"""Workloads, correctness gates and metrics of the entrel benchmark.

Every workload trains a CRF model with ``training.train_loop`` (as
``entrel train`` does: per-epoch dev scoring, best/final checkpoints) and
then runs timed eval passes over 300 held-out sentences (as ``entrel eval``
does: ``predict_queries`` per sentence, then one ``score_queries``). The
workloads differ in query setup, model size and decoding:

* s1-pairs-train: setup 1, one query per sentence, so no CNN input is
  shared between queries; short parts make per-call kernel overhead and
  the CRF a large share of the time.
* s2-table-train: setup 2 with the 1.94M-parameter model, 13.3 queries per
  sentence sharing CNN inputs; the hidden layers, the SGD step and
  checkpoint writes dominate training.
* s3-table-eval: setup 3 token table; the eval passes (16.2 queries per
  sentence, masked Viterbi decoding) dominate, and the seeded model goes
  through save_checkpoint/load_checkpoint during set-up.

Inputs come only from the seed: the grammar ``default_grammar(seed)``.
Request latency depends on how many queries a sentence yields, which jumps
between a few discrete values, so a plain prefix of the stream would move
p50 and p95 from seed to seed. Each seed therefore draws its sentences from
its own stream to fill a fixed mix of sentence shapes (token count, merged
table rows): the mix of the first sentences of ``default_grammar(seed=3)``.
For seed 3 that is exactly the first 300 eval sentences and the training
sentences right after them.
"""

import importlib
import math
import pkgutil
import resource
import statistics
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import entrel
from entrel import corpus, evaluation, model, querygen, synth, training
from bench_spans import Tracer

REFERENCE_SEED = 3  # grammar seed whose sentence-shape mix every seed reproduces
TRAIN_SEED = 13  # model init, shuffling and subsampling seed (the CLI default)
ROUNDTRIP_SENTENCES = 20  # eval sentences decoded again after a checkpoint round trip


@dataclass
class Workload:
    name: str
    setup: int
    n_train: int  # training-corpus sentences, split 85/15 into train and dev
    epochs: int
    masked_decode: bool = False
    keep_prob: float | None = None  # negative subsampling of train and dev queries
    checkpoint_setup: bool = False  # set-up saves and reloads the seeded model
    n_eval: int = 300
    setup_repeats: int = 7
    grad_check_queries: int = 2
    hyper: dict = field(default_factory=dict)  # HyperParams overrides


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("s1-pairs-train", setup=1, n_train=600, epochs=3),
        Workload("s2-table-train", setup=2, n_train=120, epochs=1, keep_prob=0.3),
        Workload("s3-table-eval", setup=3, n_train=80, epochs=1, keep_prob=0.3,
                 masked_decode=True, checkpoint_setup=True),
    )
}

END_TO_END = {
    "setup_s": "s",
    "train_qps": "queries/s",
    "predict_qps": "queries/s",
    "predict_p50_ms": "ms",
    "predict_p95_ms": "ms",
    "final_train_loss": "nats/query",
    "peak_rss_mb": "MB",
}

# (module, attribute path, span name, metrics beyond self_s)
_CALLS = ("calls",)
_TRACED = [
    ("corpus", "EmbeddingTable.lookup", _CALLS),
    ("corpus", "random_embeddings", ()),
    ("synth", "generate", ()),
    ("querygen", "gen_setup1", ()),
    ("querygen", "gen_setup2", ()),
    ("querygen", "gen_setup3", ()),
    ("querygen", "subsample_negatives", ()),
    ("kernels", "conv1d", _CALLS),
    ("kernels", "conv1d_backward", _CALLS),
    ("kernels", "kmax_pool", _CALLS),
    ("kernels", "kmax_pool_backward", _CALLS),
    ("kernels", "matvec", _CALLS),
    ("kernels", "tanh_backward", _CALLS),
    ("kernels", "logsumexp_rows", _CALLS),
    ("crf", "nll_and_gradients", _CALLS),
    ("crf", "viterbi", _CALLS),
    ("model", "init_params", _CALLS),
    ("model", "forward_query", _CALLS),
    ("model", "encode_task", _CALLS),
    ("model", "score_task", _CALLS),
    ("model", "backward_query", _CALLS),
    ("model", "encode_task_backward", _CALLS),
    ("model", "decode_query", _CALLS),
    ("model", "predict_queries", _CALLS),
    ("model", "save_checkpoint", _CALLS),
    ("model", "load_checkpoint", _CALLS),
    ("training", "train_loop", ()),
    ("training", "query_loss_and_backward", _CALLS),
    ("training", "sgd_step", _CALLS),
    ("evaluation", "score_queries", ()),
    ("evaluation", "score_paired", ()),
    ("evaluation", "score_setup3", ()),
]


def _span_name(module: str, path: str) -> str:
    # the three generators are one layer: query generation
    return "querygen.gen" if path.startswith("gen_setup") else f"{module}.{path}"


def _conv_gflop(tracer, args, kwargs, result):
    seq, filters = args[0], args[1]
    nk, width, emb = filters.shape
    tracer.add("kernels.conv1d.gflop", 2e-9 * (seq.shape[0] - width + 1) * nk * width * emb)


def _matvec_gflop(tracer, args, kwargs, result):
    rows, cols = np.shape(args[0])
    tracer.add("kernels.matvec.gflop", 2e-9 * rows * cols)


def _checkpoint_bytes(tracer, args, kwargs, result):
    written = sum(p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())
    tracer.add("model.save_checkpoint.bytes", written)


_HOOKS = {
    "kernels.conv1d": _conv_gflop,
    "kernels.matvec": _matvec_gflop,
    "model.save_checkpoint": _checkpoint_bytes,
}

_COUNTS = {
    "querygen.queries": "count",
    "querygen.queries_per_sentence": "queries/sentence",
    "querygen.entity_inputs": "count",
    "querygen.unique_entity_input_ratio": "ratio",
    "kernels.conv1d.gflop": "GFLOP",
    "kernels.matvec.gflop": "GFLOP",
    "model.save_checkpoint.bytes": "bytes",
    "training.batches": "count",
    "evaluation.dev_avg_ec_re": "F1",
    "trace.spans": "count",
    "trace.phase_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "fraction",
}


def _per_layer_units() -> dict:
    units = {}
    for module, path, extra in _TRACED:
        name = _span_name(module, path)
        if "calls" in extra:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(_COUNTS)
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# Inputs


def _shape(sentence):
    """(token count, merged table rows): what a sentence's query counts follow."""
    merged = sum(e.end - e.start - 1 for e in sentence.entities)
    return len(sentence.tokens), len(sentence.tokens) - merged


def reference_mix(wl: Workload):
    """Shape counts of the eval and training sentences of the reference seed."""
    ref = synth.generate(synth.default_grammar(seed=REFERENCE_SEED), wl.n_eval + wl.n_train)
    return Counter(map(_shape, ref[: wl.n_eval])), Counter(map(_shape, ref[wl.n_eval :]))


def draw_corpora(wl: Workload, seed: int, mix):
    """(eval, train) sentences from the seed's stream that fill ``mix``.

    The pool is twice the sentences needed; a shape it runs short of takes
    the nearest-shaped unused sentence.
    """
    pool = synth.generate(synth.default_grammar(seed=seed), 2 * (wl.n_eval + wl.n_train))
    wanted = [Counter(mix[0]), Counter(mix[1])]
    picked = [[], []]
    unused = []
    for sentence in pool:
        shape = _shape(sentence)
        for want, got in zip(wanted, picked):
            if want[shape] > 0:
                want[shape] -= 1
                got.append(sentence)
                break
        else:
            unused.append(sentence)
    for want, got in zip(wanted, picked):
        for tokens, rows in sorted(want.elements()):
            best = min(range(len(unused)), key=lambda i: (
                abs(_shape(unused[i])[0] - tokens) + abs(_shape(unused[i])[1] - rows), i))
            got.append(unused.pop(best))
    return picked[0], picked[1]


def generate_queries(sentences, setup: int):
    if setup == 1:
        return querygen.gen_setup1(sentences)
    if setup == 2:
        return querygen.gen_setup2(sentences)[0]
    return querygen.gen_setup3(sentences)[0]


def work_counts(queries, n_sentences: int) -> dict:
    """Counts fixed by the inputs: queries and the entity encodings they need.

    Each query encodes its two spans with the entity-classification path;
    an entity input is one (sentence, span) pair, so the unique ratio is
    the share of those encodings that per-sentence reuse could not skip.
    """
    inputs = [(q.sentence_id, span) for q in queries for span in (q.span_i, q.span_j)]
    return {
        "querygen.queries": len(queries),
        "querygen.queries_per_sentence": len(queries) / n_sentences,
        "querygen.entity_inputs": len(inputs),
        "querygen.unique_entity_input_ratio": len(set(inputs)) / len(inputs),
    }


@dataclass
class State:
    params: object
    config: training.TrainConfig
    train_queries: list
    dev_queries: list
    dev_sentences: list
    eval_sentences: list
    eval_groups: list  # eval queries, one list per sentence


def build(wl: Workload, seed: int, mix, workdir: Path) -> State:
    """Set-up: corpus, queries, vocabulary and embeddings, init_params."""
    eval_sentences, train_sentences = draw_corpora(wl, seed, mix)
    train_sentences, dev_sentences = synth.split_corpus(train_sentences)
    train_q = generate_queries(train_sentences, wl.setup)
    dev_q = generate_queries(dev_sentences, wl.setup)
    if wl.keep_prob is not None:
        train_q = querygen.subsample_negatives(train_q, wl.keep_prob, (TRAIN_SEED, 3, 0))
        dev_q = querygen.subsample_negatives(dev_q, wl.keep_prob, (TRAIN_SEED, 3, 1))
    groups = [generate_queries([s], wl.setup) for s in eval_sentences]
    hyper = model.HyperParams.defaults_for(wl.setup, "crf", **wl.hyper)
    table = corpus.random_embeddings(
        corpus.corpus_vocabulary(train_sentences + dev_sentences), hyper.emb_dim,
        np.random.default_rng((TRAIN_SEED, 2)))
    params = model.init_params(hyper, corpus.LabelSpace(), table, seed=TRAIN_SEED)
    if wl.checkpoint_setup:
        model.save_checkpoint(workdir / "seeded", params, TRAIN_SEED)
        params, _ = model.load_checkpoint(workdir / "seeded")
    config = training.TrainConfig(
        max_epochs=wl.epochs, seed=TRAIN_SEED, setup=wl.setup, neg_keep_prob=wl.keep_prob,
        masked_decode=wl.masked_decode)
    return State(params, config, train_q, dev_q, dev_sentences, eval_sentences, groups)


# ---------------------------------------------------------------------------
# Machine speed
#
# The machine this runs on shares its cores with other tenants: the same code
# runs 15-30% slower for minutes at a time, which no amount of repetition
# within one run averages out. Every timed phase is therefore reported in
# reference seconds: its wall time times REFERENCE_UNIT_S over the median time
# of a fixed calibration unit sampled around and during the phase. The unit
# runs the same kind of work as the program (small convolutions and
# matrix-vector products, k-max selection, dictionary lookups) but no entrel
# code, so no change to the program moves it.

REFERENCE_UNIT_S = 0.015  # the unit's median time on a 2-core x86_64 virtual machine
_UNIT = np.random.default_rng(0)
_UNIT_SEQ = _UNIT.standard_normal((12, 50))
_UNIT_FILTERS = _UNIT.standard_normal((50, 3, 50))
_UNIT_MATRIX = _UNIT.standard_normal((600, 100))
_UNIT_VECTOR = _UNIT.standard_normal(600)
_UNIT_WORDS = {f"w{i}": i for i in range(50)}


def calibration_unit() -> float:
    """Seconds the fixed calibration unit takes right now."""
    start = perf_counter()
    total = 0.0
    for i in range(240):
        windows = np.lib.stride_tricks.sliding_window_view(_UNIT_SEQ, 3, axis=0)
        conv = np.einsum("tew,fwe->tf", windows, _UNIT_FILTERS)
        top = np.sort(np.argsort(-conv, axis=0, kind="stable")[:3], axis=0)
        hidden = np.tanh(_UNIT_MATRIX.T @ _UNIT_VECTOR)
        total += float(hidden[0]) + float(top[0, 0]) + _UNIT_WORDS.get(f"w{i % 60}", 0)
    return perf_counter() - start


class MachineClock:
    """Calibration samples, taken at most every ``interval`` seconds."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples = []
        self._last = -math.inf

    def sample(self, count: int = 1, force: bool = False):
        if force or perf_counter() - self._last >= self.interval:
            self.samples.extend(calibration_unit() for _ in range(count))
            self._last = perf_counter()

    @property
    def scale(self) -> float:
        """Reference seconds per wall second."""
        return REFERENCE_UNIT_S / statistics.median(self.samples)


@contextmanager
def _sampling_between_batches(clock: MachineClock):
    """Sample ``clock`` before SGD steps while training; yields [seconds spent].

    Without ``training.sgd_step`` (a refactor may remove it) the clock gets
    only the samples taken around training.
    """
    spent = [0.0]
    step = getattr(training, "sgd_step", None)
    if step is None:
        yield spent
        return

    def sampling_step(*args, **kwargs):
        start = perf_counter()
        clock.sample()
        spent[0] += perf_counter() - start
        return step(*args, **kwargs)

    training.sgd_step = sampling_step
    try:
        yield spent
    finally:
        training.sgd_step = step


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Run:
    train_s: float = 0.0
    train_queries: int = 0
    log: list = field(default_factory=list)
    eval_s: float = 0.0
    decoded: int = 0
    latencies: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # (predictions, report dict) per pass
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    train_clock: MachineClock = field(default_factory=MachineClock)
    eval_clock: MachineClock = field(default_factory=MachineClock)

    @property
    def phase_s(self) -> float:
        return self.train_s + self.eval_s


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def measure(wl: Workload, state: State, seconds: float, workdir: Path,
            tracer=None, passes: int | None = None) -> Run:
    """Train, then run eval passes until ``seconds`` (or ``passes``) is reached.

    Untraced, it also samples the machine clock around training and, between
    requests, during the eval passes; eval time counts only the requests and
    the scoring, not the samples.
    """
    run = Run()
    clocked = tracer is None  # samples taken in a traced repeat would land in its spans
    cfg = state.config
    n_train = len(state.train_queries)
    batches = wl.epochs * math.ceil(n_train / cfg.batch_size)
    run.attempted += batches
    out_dir = workdir / "train"
    out_dir.mkdir(parents=True, exist_ok=True)
    if clocked:
        run.train_clock.sample(5, force=True)
    sampling = _sampling_between_batches(run.train_clock) if clocked else nullcontext([0.0])
    start = perf_counter()
    try:
        with _span(tracer, "bench.train"), sampling as sampled:
            result = training.train_loop(
                state.params, state.train_queries, state.dev_queries, cfg, out_dir=out_dir,
                dev_sentences=state.dev_sentences, log_path=out_dir / "log.jsonl")
    except Exception as exc:  # the program failed: count it and report
        run.failed += batches
        run.errors.append(f"train_loop: {exc!r}")
        return run
    run.train_s = perf_counter() - start - sampled[0]
    if clocked:
        run.train_clock.sample(5, force=True)
    run.train_queries = n_train * result.epoch
    run.log = result.log

    all_queries = [q for group in state.eval_groups for q in group]
    ls = state.params.label_space
    while True:
        pass_start = perf_counter()
        run.attempted += len(all_queries)
        try:
            with _span(tracer, "bench.eval"):
                preds = []
                for group in state.eval_groups:
                    if clocked:
                        run.eval_clock.sample()
                    t0 = perf_counter()
                    preds.extend(model.predict_queries(group, state.params, wl.masked_decode))
                    run.latencies.append(perf_counter() - t0)
                    run.eval_s += run.latencies[-1]
                t0 = perf_counter()
                report = evaluation.score_queries(all_queries, preds, wl.setup, ls,
                                                  state.eval_sentences)
                run.eval_s += perf_counter() - t0
        except Exception as exc:
            run.failed += len(all_queries)
            run.errors.append(f"eval pass: {exc!r}")
            break
        run.decoded += len(all_queries)
        run.passes.append((preds, report.as_dict()))
        now = perf_counter()
        if passes is not None:
            if len(run.passes) >= passes:
                break
        elif now - start + (now - pass_start) > seconds:
            break
    if clocked:
        run.eval_clock.sample(5, force=True)
    return run


# ---------------------------------------------------------------------------
# Correctness gates (run outside the timed phases)


def gate_grad_check(wl: Workload) -> bool:
    """float64 finite-difference check of every gradient on a tiny model."""
    sentences = synth.generate(synth.default_grammar(seed=REFERENCE_SEED), wl.grad_check_queries)
    queries = querygen.gen_setup1(sentences)
    hyper = model.HyperParams(nk_c=4, nk_e=3, h_c=5, h_e=4, k=2, emb_dim=6)
    table = corpus.random_embeddings(corpus.corpus_vocabulary(sentences), hyper.emb_dim,
                                     np.random.default_rng((TRAIN_SEED, 2)))
    params = model.init_params(hyper, corpus.LabelSpace(), table, seed=TRAIN_SEED)
    return training.grad_check(params, queries, l2=1e-3).passed


def gate_checkpoint_roundtrip(wl: Workload, state: State, preds, workdir: Path) -> bool:
    """After save_checkpoint -> load_checkpoint, scores and predictions are
    bit-identical to the in-memory model's."""
    subset = [q for group in state.eval_groups[:ROUNDTRIP_SENTENCES] for q in group]
    model.save_checkpoint(workdir / "roundtrip", state.params, TRAIN_SEED)
    loaded, _ = model.load_checkpoint(workdir / "roundtrip")
    same_scores = all(np.array_equal(model.forward_query(q, loaded)[0],
                                     model.forward_query(q, state.params)[0]) for q in subset)
    return same_scores and model.predict_queries(subset, loaded, wl.masked_decode) == preds[
        : len(subset)]


def gate_masked_triples_valid(wl: Workload, state: State, preds) -> bool:
    """Masked decoding yields an entity class, a relation, an entity class.

    Besides the run's own masked predictions it decodes random score
    sequences, on which an unmasked decoder picks cross-task labels.
    """
    ls = state.params.label_space
    if not wl.masked_decode:
        subset = [q for group in state.eval_groups[:ROUNDTRIP_SENTENCES] for q in group]
        preds = model.predict_queries(subset, state.params, True)
    rng = np.random.default_rng(TRAIN_SEED)
    random_scores = rng.normal(scale=5.0, size=(200, 3, ls.n_classes))
    preds = list(preds) + [model.decode_query(d, state.params, True) for d in random_scores]
    return all(ls.is_ec_index(t1) and ls.is_re_index(r) and ls.is_ec_index(t2)
               for t1, r, t2 in preds)


def run_gates(wl: Workload, state: State, run: Run, workdir: Path) -> dict:
    """Name -> passed for every gate that applies to a completed run.

    A gate that raises counts as failed; its error joins ``run.errors``.
    """
    checks = {}
    if run.log:
        losses = [record["train_loss"] for record in run.log]
        # a uniform guess over all label triples scores 3 ln N nats per query
        uniform = 3 * math.log(state.params.label_space.n_classes)
        checks["losses_finite"] = lambda: all(math.isfinite(x) for x in losses)
        checks["learns"] = lambda: losses[-1] < uniform
    if run.passes:
        preds = run.passes[0][0]
        checks["passes_agree"] = lambda: all(p == run.passes[0] for p in run.passes[1:])
        checks["checkpoint_roundtrip"] = lambda: gate_checkpoint_roundtrip(
            wl, state, preds, workdir)
        checks["masked_triples_valid"] = lambda: gate_masked_triples_valid(wl, state, preds)
    return {name: _passes(name, check, run.errors) for name, check in checks.items()}


def _passes(name: str, check, errors: list) -> bool:
    try:
        return bool(check())
    except Exception as exc:  # the program failed inside a gate: count it
        errors.append(f"gate {name}: {exc!r}")
        return False


# ---------------------------------------------------------------------------
# Metrics


def _avg_ec_re(run: Run) -> float:
    """Avg EC+RE of the first eval pass; 0 when no class occurs at all."""
    return (run.passes[0][1]["avg_ec_re"] or 0.0) if run.passes else math.nan


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(setup_times, setup_clock: MachineClock, run: Run,
                       normalize: bool = True) -> dict:
    """The end-to-end metrics, with times in reference seconds.

    ``normalize=False`` gives the same figures in wall seconds.
    """
    def scale(clock):
        return clock.scale if normalize and clock.samples else 1.0

    lat_ms = np.array(run.latencies) * 1e3 * scale(run.eval_clock)
    p50, p95 = (np.percentile(lat_ms, [50, 95]) if lat_ms.size else (math.nan, math.nan))
    train_s = run.train_s * scale(run.train_clock)
    eval_s = run.eval_s * scale(run.eval_clock)
    return {
        "setup_s": statistics.median(setup_times) * scale(setup_clock),
        "train_qps": run.train_queries / train_s if train_s else math.nan,
        "predict_qps": run.decoded / eval_s if eval_s else math.nan,
        "predict_p50_ms": float(p50),
        "predict_p95_ms": float(p95),
        "final_train_loss": run.log[-1]["train_loss"] if run.log else math.nan,
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer_metrics(tracer: Tracer, state: State, run: Run, untraced: Run) -> dict:
    spans = tracer.summary()
    metrics = {}
    for name, unit in PER_LAYER.items():
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s") and layer in spans:
            metrics[name] = spans[layer][kind]
        elif kind in ("calls", "self_s"):
            metrics[name] = 0  # never reached on this workload, or absent
    queries = [q for group in state.eval_groups for q in group]
    metrics.update(work_counts(queries, len(state.eval_groups)))
    for name in ("kernels.conv1d.gflop", "kernels.matvec.gflop", "model.save_checkpoint.bytes"):
        metrics[name] = tracer.counters.get(name, 0.0)
    metrics["training.batches"] = len(run.log) * math.ceil(
        len(state.train_queries) / state.config.batch_size)
    metrics["evaluation.dev_avg_ec_re"] = _avg_ec_re(run)
    bench = [v for k, v in spans.items() if k.startswith("bench.")]
    metrics["trace.spans"] = tracer.n_spans
    metrics["trace.phase_s"] = sum(v["total_s"] for k, v in spans.items()
                                   if k in ("bench.train", "bench.eval"))
    metrics["trace.unattributed_s"] = sum(v["self_s"] for v in bench)
    metrics["trace.overhead_frac"] = (run.phase_s / untraced.phase_s - 1.0
                                      if untraced.phase_s else math.nan)
    return metrics


def _traced_modules() -> dict:
    """Every module of the entrel package, by short name."""
    return {info.name: importlib.import_module(f"entrel.{info.name}")
            for info in pkgutil.iter_modules(entrel.__path__)}


def trace_targets():
    return [(module, path, _span_name(module, path), _HOOKS.get(_span_name(module, path)))
            for module, path, _ in _TRACED]


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Gates, set-up, measured phase; returns the result record.

    With ``trace`` the workload runs untraced first (its end-to-end numbers
    and the overhead baseline), then once more traced with the same number
    of eval passes, for the per-layer numbers.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    gates = {"grad_check": _passes("grad_check", lambda: gate_grad_check(wl), errors)}
    mix = reference_mix(wl)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        setup_times = []
        setup_clock = MachineClock()
        setup_clock.sample(3, force=True)
        for _ in range(wl.setup_repeats):
            start = perf_counter()
            state = build(wl, seed, mix, workdir)
            setup_times.append(perf_counter() - start)
            setup_clock.sample(force=True)
        run = measure(wl, state, seconds, workdir)
        gates.update(run_gates(wl, state, run, workdir))
        result = {
            "end_to_end": end_to_end_metrics(setup_times, setup_clock, run),
            "wall": end_to_end_metrics(setup_times, setup_clock, run, normalize=False),
            "dev_avg_ec_re": _avg_ec_re(run),
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": errors + run.errors,
        }
        if trace:
            with Tracer() as tracer:
                tracer.install(_traced_modules(), trace_targets())
                with tracer.span("bench.setup"):
                    traced_state = build(wl, seed, mix, workdir)
                traced = measure(wl, traced_state, seconds, workdir, tracer,
                                 passes=max(1, len(run.passes)))
            gates["trace_changes_nothing"] = (
                [r["train_loss"] for r in traced.log] == [r["train_loss"] for r in run.log]
                and traced.passes[:1] == run.passes[:1])
            result["per_layer"] = per_layer_metrics(tracer, traced_state, traced, run)
            result["absent"] = tracer.absent
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["errors"] += traced.errors
            spans_path = out_dir / f"spans-{wl.name}-seed{seed}.npz"
            tracer.save(spans_path)
            result["spans_file"] = str(spans_path)
    result["gates"] = gates
    result["attempted"] += len(gates)
    result["failed"] += sum(1 for ok in gates.values() if not ok)
    result["correct"] = result["failed"] == 0
    return result
