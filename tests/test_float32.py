"""The tuned configurations run in float32; HyperParams() stays the float64
reference. A float32 model must agree with the same-seed float64 model,
keep every array it makes in float32, and round-trip through checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

from entrel import crf, evaluation, model, synth, training
from entrel.corpus import (
    LabelSpace,
    Sentence,
    corpus_vocabulary,
    random_embeddings,
    write_canonical,
)
from entrel.kernels import (
    ParamTensor,
    conv1d,
    conv1d_backward,
    kmax_pool,
    kmax_pool_backward,
    logsumexp_rows,
    matvec,
    rel_error,
    tanh_backward,
)
from entrel.model import (
    HyperParams,
    ModelParams,
    backward_query,
    forward_query,
    forward_sentences,
    gold_indices,
    init_params,
    load_checkpoint,
    output_chain,
    predict_queries,
    save_checkpoint,
    sentence_groups,
)
from entrel.querygen import Query, gen_setup1, gen_setup2
from entrel.training import TrainConfig, query_loss_and_backward, sgd_step, train_loop

from conftest import TINY_HYPER
from test_cli import TINY_FLAGS, manifest, run, train
from test_model import predict_world

LAYERS = ("crf", "softmax")


def fit(params, queries, config, out):
    """train_loop without a dev set, writing its checkpoints and log under ``out``."""
    return train_loop(params, queries, [], config, out_dir=out, dev_sentences=[],
                      log_path=out / "log.jsonl")


def cast(params: ModelParams, dtype: str) -> ModelParams:
    """The same model with every tensor rounded to ``dtype``."""
    hyper = dataclasses.replace(params.hyper, dtype=dtype)
    tensors = {t.name: ParamTensor(t.name, t.value.astype(hyper.np_dtype))
               for t in params.all_tensors()}
    table = dataclasses.replace(params.embeddings, matrix=tensors["embeddings"].value)
    return ModelParams(hyper, params.label_space, table, tensors)


def build(dtype, output_layer="crf", seed=5, n_sentences=40, setup=1):
    """A seeded tiny model and its train queries; the seed fixes the model
    whatever the dtype, up to rounding."""
    sentences = synth.generate(synth.default_grammar(seed=3), n_sentences)
    hyper = HyperParams(**TINY_HYPER, output_layer=output_layer, dtype=dtype)
    table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim,
                              np.random.default_rng(seed + 50))
    params = init_params(hyper, LabelSpace(), table, seed=seed)
    queries = gen_setup1(sentences) if setup == 1 else gen_setup2(sentences)[0]
    return params, queries


def float_arrays(obj, seen=None):
    """Every floating-point array reachable from obj through containers and
    the attributes of entrel's own objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if np.issubdtype(obj.dtype, np.floating):
            yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from float_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from float_arrays(value, seen)
    elif type(obj).__module__.startswith("entrel."):
        yield from float_arrays(vars(obj), seen)


def dtypes(obj):
    return {array.dtype for array in float_arrays(obj)}


class TestDefaults:
    @pytest.mark.parametrize("output_layer", LAYERS)
    @pytest.mark.parametrize("setup", [1, 2, 3])
    def test_tuned_configs_are_float32(self, setup, output_layer):
        hyper = HyperParams.defaults_for(setup, output_layer)
        assert hyper.dtype == "float32" and hyper.np_dtype == np.float32

    def test_reference_model_is_float64(self):
        assert HyperParams().dtype == "float64"
        assert HyperParams(**TINY_HYPER).np_dtype == np.float64

    @pytest.mark.parametrize("output_layer", LAYERS)
    def test_gradcheck_command_checks_a_float64_model(self, monkeypatch, output_layer):
        checked = []
        real = training.grad_check

        def spy(params, *args, **kwargs):
            checked.append((params.hyper.dtype, dtypes(params.all_tensors())))
            return real(params, *args, **kwargs)

        monkeypatch.setattr(training, "grad_check", spy)
        assert run("gradcheck", "--queries", 1, "--output-layer", output_layer) == 0
        assert checked == [("float64", {np.dtype(np.float64)})]


class TestAgreesWithFloat64:
    @pytest.mark.parametrize("output_layer", LAYERS)
    def test_score_sequences(self, output_layer):
        params64, queries = build("float64", output_layer, setup=2)
        params32, _ = build("float32", output_layer, setup=2)
        groups = [[queries[i] for i in members] for members in sentence_groups(queries)]
        d64, _ = forward_sentences(groups, params64)
        d32, _ = forward_sentences(groups, params32)
        assert d32.dtype == np.float32
        assert rel_error(d32, d64) < 1e-5

    @pytest.mark.parametrize("output_layer", LAYERS)
    @pytest.mark.parametrize("masked", [False, True])
    def test_predictions(self, output_layer, masked):
        params64, queries = predict_world(output_layer)
        params32 = cast(params64, "float32")
        preds = predict_queries(queries, params32, masked)
        assert preds == predict_queries(queries, params64, masked)
        assert len(set(preds)) > 1

    @pytest.mark.parametrize("output_layer", LAYERS)
    def test_train_losses(self, output_layer, tmp_path):
        logs = {}
        for dtype in ("float64", "float32"):
            params, queries = build(dtype, output_layer)
            state = fit(params, queries, TrainConfig(max_epochs=4, seed=2), tmp_path / dtype)
            logs[dtype] = [record["train_loss"] for record in state.log]
        assert len(logs["float32"]) == 4
        for loss32, loss64 in zip(logs["float32"], logs["float64"]):
            assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)


class TestStaysFloat32:
    """No step of training or prediction promotes a float32 model to float64."""

    def test_kernels_return_their_inputs_dtype(self):
        rng = np.random.default_rng(0)
        seq, filters, bias = (rng.normal(size=shape).astype(np.float32)
                              for shape in ((7, 6), (4, 3, 6), (4,)))
        conv = conv1d(seq, filters, bias)
        pooled, sel = kmax_pool(conv, [(0, len(conv)), (2, 4)], 2)
        h = np.tanh(matvec(filters[:, 0], seq))
        outputs = [conv, pooled, kmax_pool_backward(pooled, sel, len(conv)),
                   *conv1d_backward(conv, seq, filters), h, tanh_backward(h, h),
                   logsumexp_rows(conv)]
        assert [out.dtype for out in outputs] == [np.float32] * len(outputs)

    @pytest.mark.parametrize("output_layer", LAYERS)
    def test_training_step(self, output_layer):
        params, queries = build("float32", output_layer, setup=2)
        batch = queries[:12]
        assert dtypes(params.all_tensors()) == {np.dtype(np.float32)}
        groups = [[batch[i] for i in members] for members in sentence_groups(batch)]
        d, cache = forward_sentences(groups, params)
        assert d.dtype == np.float32 and dtypes(cache) == {np.dtype(np.float32)}
        gold = [gold_indices(q, params.label_space) for group in groups for q in group]
        q, allowed = output_chain(params)
        losses, grad_d, grad_q = crf.nll_and_gradients(d, q, gold, allowed)
        assert dtypes([losses, grad_d, grad_q]) == {np.dtype(np.float32)}
        params.transitions.grad[...] = grad_q
        backward_query(grad_d, cache, params)
        assert dtypes(cache) == {np.dtype(np.float32)}
        tensors = params.all_tensors()
        arrays = [(t.value, t.grad) for t in tensors]
        sgd_step(params, lr=0.1, l2=1e-3)
        assert dtypes(tensors) == {np.dtype(np.float32)}
        # in place: every tensor keeps its arrays
        assert all(t.value is value and t.grad is grad for t, (value, grad) in zip(tensors, arrays))

    @pytest.mark.parametrize("output_layer", LAYERS)
    def test_batch_loss_and_backward(self, output_layer):
        params, queries = build("float32", output_layer, setup=2)
        loss = query_loss_and_backward(queries[:12], params)
        assert np.isfinite(loss)
        assert dtypes(params.all_tensors()) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("output_layer", LAYERS)
    @pytest.mark.parametrize("masked", [False, True])
    def test_prediction(self, monkeypatch, output_layer, masked):
        params, queries = build("float32", output_layer, setup=2)
        seen = []
        real_forward, real_path_scores = model.forward_sentences, crf._path_scores

        def forward_spy(groups, params):
            d, cache = real_forward(groups, params)
            seen.append((d, cache))
            return d, cache

        def path_scores_spy(d, q):
            # the masked scores and the path-score cube viterbi decodes from
            cube = real_path_scores(d, q)
            seen.extend((d, cube))
            return cube

        monkeypatch.setattr(model, "forward_sentences", forward_spy)
        monkeypatch.setattr(crf, "_path_scores", path_scores_spy)
        preds = predict_queries(queries[:30], params, masked)
        assert len(preds) == 30 and len(seen) >= 2
        assert dtypes(seen) == {np.dtype(np.float32)}


class TestCheckpoints:
    def test_float32_round_trip_is_bit_identical(self, tmp_path):
        params, queries = build("float32")
        fit(params, queries[:20], TrainConfig(max_epochs=1, seed=2), tmp_path / "run")
        save_checkpoint(tmp_path / "a", params, seed=2)
        loaded, _ = load_checkpoint(tmp_path / "a")
        assert loaded.hyper == params.hyper
        for ta, tb in zip(params.all_tensors(), loaded.all_tensors()):
            assert tb.value.dtype == np.float32 and np.array_equal(ta.value, tb.value)
        save_checkpoint(tmp_path / "b", loaded, seed=2)
        for name in ("params.bin", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        content = manifest(tmp_path / "a")
        assert content["dtype"] == content["hyperparams"]["dtype"] == "float32"
        n_values = sum(t.value.size for t in params.all_tensors())
        assert content["total_bytes"] == 4 * n_values
        assert np.array_equal(forward_query(queries[0], loaded)[0],
                              forward_query(queries[0], params)[0])

    def test_float64_checkpoint_still_runs_in_float64(self, tmp_path, capsys):
        params, queries = build("float64")
        fit(params, queries[:20], TrainConfig(max_epochs=1, seed=2), tmp_path / "run")
        save_checkpoint(tmp_path / "ck", params, seed=2)
        sentences = synth.generate(synth.default_grammar(seed=4), 6)
        corpus = tmp_path / "dev.jsonl"
        write_canonical(corpus, sentences)

        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert dtypes(loaded.all_tensors()) == {np.dtype(np.float64)}
        save_checkpoint(tmp_path / "again", loaded, seed=2)
        assert (tmp_path / "again/params.bin").read_bytes() == \
            (tmp_path / "ck/params.bin").read_bytes()

        # eval and predict print what the in-memory float64 model gives
        assert run("eval", "--checkpoint", tmp_path / "ck", "--corpus", corpus, "--setup", 2,
                   "--out", tmp_path / "report") == 0
        eval_queries = gen_setup2(sentences)[0]
        report = evaluation.score_queries(eval_queries, predict_queries(eval_queries, params),
                                          2, params.label_space, sentences)
        assert json.loads((tmp_path / "report/report.json").read_text()) == \
            json.loads(json.dumps(report.as_dict()))
        capsys.readouterr()
        assert run("predict", "--checkpoint", tmp_path / "ck", "--sentence", "per1 works for org1",
                   "--span1", "0:1", "--span2", "3:4") == 0
        tokens = ["per1", "works", "for", "org1"]
        query = Query(Sentence("cli", tokens, [], []), (0, 1), (3, 4), "O", "N", "O", setup=1)
        d, _ = forward_query(query, params)
        assert d.dtype == np.float64
        labels = [params.label_space.label_of(i) for i in model.decode_query(d, params)]
        assert capsys.readouterr().out.splitlines()[0] == \
            f"('per1', 'org1') => ({labels[0]}, {labels[1]}, {labels[2]})"

    def test_same_seed_cli_training_is_bit_identical(self, tmp_path):
        sentences = synth.generate(synth.default_grammar(seed=3), 24)
        train_s, dev_s = synth.split_corpus(sentences, 0.25)
        write_canonical(tmp_path / "train.jsonl", train_s)
        write_canonical(tmp_path / "dev.jsonl", dev_s)
        for name in ("a", "b"):
            assert train(tmp_path, tmp_path / name, "--max-epochs", 2, "--setup", 2,
                         *TINY_FLAGS) == 0
        assert manifest(tmp_path / "a" / "final")["dtype"] == "float32"
        for path in ("log.jsonl", "final/params.bin", "final/manifest.json",
                     "best/params.bin", "best/manifest.json"):
            assert (tmp_path / "a" / path).read_bytes() == (tmp_path / "b" / path).read_bytes()
