"""Smoke test of the benchmark at tiny sizes.

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the correctness gates pass, that same-seed runs repeat
the deterministic results bit for bit, and that the work counts reproduce
the reference corpus.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import bench_workloads as bench
from bench_spans import Tracer
from entrel import synth

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(n_eval=10, n_train=14, epochs=2, setup_repeats=2, grad_check_queries=1,
            hyper=dict(nk_c=4, nk_e=3, h_c=5, h_e=4, k=2, emb_dim=6))


def tiny(name):
    return replace(bench.WORKLOADS[name], **TINY)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {name: bench.run_workload(tiny(name), 3, 0, True, out) for name in bench.WORKLOADS}


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_is_emitted_and_gates_pass(traced_runs, name):
    result = traced_runs[name]
    assert result["correct"], result["gates"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["end_to_end"]) == set(bench.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in result["end_to_end"].values())
    assert set(result["per_layer"]) == set(bench.PER_LAYER)
    assert result["absent"] == []
    layer = result["per_layer"]
    assert layer["model.predict_queries.calls"] > 0
    assert layer["training.sgd_step.calls"] == layer["training.batches"]


def test_same_seed_runs_repeat_bit_for_bit(traced_runs, tmp_path):
    first = traced_runs["s1-pairs-train"]
    again = bench.run_workload(tiny("s1-pairs-train"), 3, 0, False, tmp_path)
    assert again["end_to_end"]["final_train_loss"] == first["end_to_end"]["final_train_loss"]
    assert again["dev_avg_ec_re"] == first["dev_avg_ec_re"]


def test_work_counts_reproduce_the_reference_corpus():
    sentences = synth.generate(synth.default_grammar(seed=3), 300)
    for setup, (inputs, unique) in {1: (600, 600), 2: (7972, 1654), 3: (9748, 1809)}.items():
        counts = bench.work_counts(bench.generate_queries(sentences, setup), len(sentences))
        assert counts["querygen.entity_inputs"] == inputs
        assert counts["querygen.unique_entity_input_ratio"] == unique / inputs


def test_reference_seed_draws_the_prefix_of_its_stream():
    wl = bench.WORKLOADS["s1-pairs-train"]
    eval_sentences, train_sentences = bench.draw_corpora(wl, 3, bench.reference_mix(wl))
    stream = synth.generate(synth.default_grammar(seed=3), wl.n_eval + wl.n_train)
    assert [s.id for s in eval_sentences + train_sentences] == [s.id for s in stream]


def test_other_seeds_draw_the_reference_mix():
    wl = tiny("s2-table-train")
    mix = bench.reference_mix(wl)
    eval_sentences, train_sentences = bench.draw_corpora(wl, 11, mix)
    assert sorted(map(bench._shape, eval_sentences)) == sorted(mix[0].elements())
    assert len(train_sentences) == wl.n_train


def test_tracer_self_time_and_absent_functions():
    def leaf(x):
        return x

    def outer(x):
        return module.leaf(x) + module.leaf(x)

    module = types.SimpleNamespace(leaf=leaf, outer=outer)
    with Tracer() as tracer:
        tracer.install({"m": module}, [("m", "leaf", "m.leaf", None),
                                       ("m", "outer", "m.outer", None),
                                       ("m", "gone", "m.gone", None)])
        with tracer.span("root"):
            assert module.outer(2) == 4
    assert module.leaf is leaf and module.outer is outer
    assert tracer.absent == ["m.gone"]
    spans = tracer.summary()
    assert spans["m.leaf"]["calls"] == 2 and spans["m.outer"]["calls"] == 1
    assert spans["m.outer"]["self_s"] == pytest.approx(
        spans["m.outer"]["total_s"] - spans["m.leaf"]["total_s"])
    total_self = sum(v["self_s"] for v in spans.values())
    assert total_self == pytest.approx(spans["root"]["total_s"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "s1-pairs-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
