import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from entrel import synth, training
from entrel.corpus import LabelSpace, corpus_vocabulary, random_embeddings
from entrel.evaluation import MetricsReport
from entrel.model import (
    HyperParams,
    forward_query,
    gold_indices,
    init_params,
    load_checkpoint,
    predict_queries,
)
from entrel.querygen import ConfigError, gen_setup1, gen_setup2, gen_setup3, subsample_negatives
from entrel.training import (
    GradCheckReport,
    TrainConfig,
    grad_check,
    query_loss_and_backward,
    sgd_step,
    train_loop,
)

from conftest import TINY_HYPER


def build(seed=5, n_sentences=60, trainable=True, **hyper_overrides):
    ls = LabelSpace()
    grammar = synth.default_grammar(seed=3)
    sentences = synth.generate(grammar, n_sentences)
    train_s, dev_s = synth.split_corpus(sentences, 0.2)
    hyper = HyperParams(**{**TINY_HYPER, **hyper_overrides})
    table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim,
                              np.random.default_rng(seed + 50), trainable)
    params = init_params(hyper, ls, table, seed=seed)
    return params, gen_setup1(train_s), gen_setup1(dev_s), dev_s


def train(params, train_q, dev_q, dev_s, config, out):
    """train_loop writing its checkpoints and log.jsonl under ``out``."""
    return train_loop(params, train_q, dev_q, config, out_dir=out, dev_sentences=dev_s,
                      log_path=out / "log.jsonl")


class TestSgdStep:
    def test_zero_grads_no_l2_unchanged(self):
        params, *_ = build()
        before = {t.name: t.value.copy() for t in params.all_tensors()}
        sgd_step(params, lr=0.1, l2=0.0)
        for tensor in params.all_tensors():
            assert np.array_equal(tensor.value, before[tensor.name])

    def test_pure_shrink_with_l2(self):
        params, *_ = build()
        before = {t.name: t.value.copy() for t in params.trainable_tensors()}
        sgd_step(params, lr=0.1, l2=0.01)
        for tensor in params.trainable_tensors():
            assert np.allclose(tensor.value, before[tensor.name] * (1 - 0.1 * 0.01),
                               atol=1e-15)

    def test_scalar_quadratic_oracle(self):
        # loss = (theta - 3)^2 / 2 on a single entry: grad = theta - 3;
        # hand-computed update theta' = theta - lr * ((theta - 3) + l2 * theta)
        params, *_ = build()
        q = params.transitions
        theta = 1.5
        lr, l2 = 0.2, 0.01
        q.value[0, 0] = theta
        q.grad[0, 0] = theta - 3.0
        sgd_step(params, lr=lr, l2=l2)
        assert q.value[0, 0] == pytest.approx(theta - lr * ((theta - 3.0) + l2 * theta),
                                              abs=1e-15)

    def test_nonfinite_gradient_aborts_with_name(self):
        params, *_ = build()
        params["ec_out"].grad[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="ec_out"):
            sgd_step(params, lr=0.1, l2=0.0)

    def test_nonfinite_last_gradient_moves_nothing(self):
        # every other tensor has a nonzero gradient and l2 > 0, so any update
        # made before the check would move it
        params, *_ = build()
        trainable = params.trainable_tensors()
        for tensor in trainable:
            tensor.grad[...] = 1.0
        last = trainable[-1]
        last.grad.reshape(-1)[-1] = np.nan
        before = {t.name: t.value.copy() for t in params.all_tensors()}
        with pytest.raises(RuntimeError, match=last.name):
            sgd_step(params, lr=0.1, l2=0.01)
        for tensor in params.all_tensors():
            assert np.array_equal(tensor.value, before[tensor.name]), tensor.name


def stepped_model(**hyper_overrides):
    """A model after one loss, backward and step, with a second batch's
    backward done: its hidden weights hold factors and a scale other than 1."""
    params, train_q, *_ = build(n_sentences=20, **hyper_overrides)
    query_loss_and_backward(train_q[:4], params)
    sgd_step(params, lr=0.1, l2=1e-3)
    query_loss_and_backward(train_q[4:8], params)
    return params


def snapshot(params):
    return {t.name: (t.stored.copy(), t.scale) for t in params.all_tensors()}


def assert_unmoved(params, before):
    for tensor in params.all_tensors():
        stored, scale = before[tensor.name]
        assert np.array_equal(tensor.stored, stored) and tensor.scale == scale, tensor.name


class TestFactoredStep:
    @pytest.mark.parametrize("factor", [0, 1], ids=["inputs", "pre_activation_grad"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_factor_names_the_tensor_and_moves_nothing(self, factor, bad):
        params = stepped_model()
        params["re_ent_w"].factors[factor][-1, -1] = bad
        before = snapshot(params)
        with pytest.raises(RuntimeError, match="^non-finite gradient in tensor re_ent_w$"):
            sgd_step(params, lr=0.1, l2=1e-3)
        assert_unmoved(params, before)

    def test_factor_bound_over_float32_names_the_tensor_and_moves_nothing(self):
        # each product of the factors fits float32, their sum over the batch
        # does not: every entry of X.T @ G is B * 1e38
        params = stepped_model(dtype="float32")
        x, g = params["re_ctx_w"].factors
        assert len(x) >= 2
        x[...] = 1e19
        g[...] = 1e19
        before = snapshot(params)
        with pytest.raises(RuntimeError, match="^non-finite gradient in tensor re_ctx_w$"):
            sgd_step(params, lr=0.1, l2=1e-3)
        assert_unmoved(params, before)

    def test_grad_of_a_hidden_weight_is_the_factor_product(self):
        params, train_q, *_ = build(n_sentences=20)
        query_loss_and_backward(train_q[:6], params)
        for name in sorted(HIDDEN_WEIGHTS):
            tensor = params[name]
            x, g = tensor.factors
            assert tensor._grad is None, name  # the backward made no buffer
            assert np.array_equal(tensor.grad, x.T @ g), name
            assert tensor.grad is tensor.grad and tensor.grad.shape == tensor.shape, name

    def test_grad_read_after_a_second_backward_reflects_it(self):
        params, train_q, *_ = build(n_sentences=20)
        fresh, *_ = build(n_sentences=20)
        query_loss_and_backward(train_q[:4], params)
        first = {name: params[name].grad.copy() for name in HIDDEN_WEIGHTS}
        query_loss_and_backward(train_q[4:8], params)
        query_loss_and_backward(train_q[4:8], fresh)
        for name in HIDDEN_WEIGHTS:
            x, g = params[name].factors
            assert np.array_equal(params[name].grad, x.T @ g), name
            assert np.array_equal(params[name].grad, fresh[name].grad), name
            assert not np.array_equal(params[name].grad, first[name]), name

    def test_scaled_steps_match_the_dense_update(self):
        """Two batches stepped in the scaled form give the weights that the
        dense update theta * (1 - lr * l2) - lr * grad gives, to rounding,
        while the scale stays live between the batches."""
        lr, l2 = 0.1, 0.05
        params, train_q, *_ = build(n_sentences=20)
        dense, *_ = build(n_sentences=20)
        for steps, batch in enumerate((train_q[:4], train_q[4:8]), start=1):
            query_loss_and_backward(batch, params)
            sgd_step(params, lr=lr, l2=l2)
            query_loss_and_backward(batch, dense)
            for tensor in dense.trainable_tensors():
                value = tensor.value
                value *= 1.0 - lr * l2
                value -= lr * tensor.grad
            assert params["re_ctx_w"].scale == pytest.approx((1.0 - lr * l2) ** steps)
        for tensor, reference in zip(params.all_tensors(), dense.all_tensors()):
            assert np.allclose(tensor.value, reference.value, rtol=1e-12, atol=1e-14), tensor.name

    def test_a_scale_below_the_floor_is_folded_before_the_step(self):
        params = stepped_model()
        dense = stepped_model()
        tensor, reference = params["re_ctx_w"], dense["re_ctx_w"]
        tiny = training.SCALE_FLOOR / 4
        tensor.value[...] /= tiny  # the same W, at a scale under the floor
        tensor.scale = tiny
        sgd_step(params, lr=0.1, l2=1e-3)
        assert tensor.scale == 1.0 - 0.1 * 1e-3
        value = reference.value
        value *= 1.0 - 0.1 * 1e-3
        value -= 0.1 * reference.grad
        assert np.allclose(tensor.value, reference.value, rtol=1e-12, atol=1e-14)

    def test_learning_rate_times_l2_of_one_is_a_config_error(self):
        with pytest.raises(ConfigError, match="learning_rate \\* l2 must be below 1"):
            TrainConfig(learning_rate=0.5, l2=2.0)


def shared_sentence_batch():
    """Queries over three sentences of build()'s corpus, two of them over one
    sentence, and one query twice."""
    sentences = synth.generate(synth.default_grammar(seed=3), 3)
    queries, _ = gen_setup2(sentences)
    by_sentence = [[q for q in queries if q.sentence is s] for s in sentences]
    first, second, third = by_sentence
    return [first[0], second[0], first[1], third[-1], second[0]]


def setup3_table_batch():
    """The setup-3 table of the first sentence of build()'s corpus: its 15
    queries pair 6 spans, so pairs outnumber spans in the hidden layers."""
    queries, _ = gen_setup3(synth.generate(synth.default_grammar(seed=3), 1))
    return queries


class TestBatchedLossAndBackward:
    @pytest.mark.parametrize("output_layer", ["crf", "softmax"])
    def test_one_call_equals_per_query_calls_summed(self, output_layer):
        params, *_ = build(output_layer=output_layer)
        rng = np.random.default_rng(3)
        for tensor in params.all_tensors():  # spread-out weights: gradients everywhere
            tensor.value[...] = rng.normal(scale=0.5, size=tensor.shape)
        batch = shared_sentence_batch()
        loss = query_loss_and_backward(batch, params)
        batched = {t.name: t.grad.copy() for t in params.all_tensors()}
        summed = {t.name: np.zeros_like(t.grad) for t in params.all_tensors()}
        single = 0.0
        for query in batch:  # each call writes its own query's gradient
            single += query_loss_and_backward([query], params)
            for tensor in params.all_tensors():
                summed[tensor.name] += tensor.grad
        assert loss == pytest.approx(single, rel=1e-12)
        for tensor in params.all_tensors():
            # the batch writes its mean gradient
            assert np.allclose(batched[tensor.name], summed[tensor.name] / len(batch),
                               rtol=0, atol=1e-12), tensor.name
        assert np.abs(batched["re_ctx_w"]).max() > 0
        assert np.abs(batched["transitions"]).max() > 0 or output_layer == "softmax"

    @pytest.mark.parametrize("output_layer", ["crf", "softmax"])
    def test_no_gradient_survives_into_the_next_batch(self, output_layer):
        params, train_q, *_ = build(output_layer=output_layer)
        fresh, *_ = build(output_layer=output_layer)
        first, second = train_q[:4], train_q[4:9]
        assert not {q.sentence_id for q in first} & {q.sentence_id for q in second}
        query_loss_and_backward(first, params)
        for tensor in params.trainable_tensors():
            assert np.abs(tensor.grad).max() > 0, tensor.name
        query_loss_and_backward(second, params)
        query_loss_and_backward(second, fresh)
        for tensor, reference in zip(params.all_tensors(), fresh.all_tensors()):
            assert np.array_equal(tensor.grad, reference.grad), tensor.name

    @pytest.mark.parametrize("output_layer, trainable", [
        ("crf", True), ("crf", False), ("softmax", True)])
    def test_first_backward_makes_the_trainable_buffers_only(self, output_layer, trainable):
        """Frozen embeddings and the softmax baseline's transitions never
        get a gradient; at step time the four hidden weights hold factors
        and no buffer, and every other trainable tensor holds a buffer."""
        params, train_q, *_ = build(n_sentences=20, trainable=trainable,
                                    output_layer=output_layer)
        query_loss_and_backward(train_q[:6], params)
        sgd_step(params, lr=0.1, l2=1e-3)
        names = {t.name for t in params.trainable_tensors()}
        assert set(factored(params)) == HIDDEN_WEIGHTS
        assert set(buffered(params)) == names - HIDDEN_WEIGHTS
        assert ("embeddings" in buffered(params)) == trainable
        assert ("transitions" in buffered(params)) == (output_layer == "crf")
        # the step decays the hidden weights through their scales
        assert {t.name for t in params.all_tensors() if t.scale != 1.0} == HIDDEN_WEIGHTS

    def test_empty_batch_is_named_before_the_encoder_runs(self, monkeypatch):
        params, *_ = build()

        def encoder_ran(*args, **kwargs):
            raise AssertionError("the encoder ran on an empty batch")

        monkeypatch.setattr(training, "forward_sentences", encoder_ran)
        with pytest.raises(ValueError, match="empty batch"):
            query_loss_and_backward([], params)


def s2_world():
    """The s2-size float32 hyperparameters, a float64 embedding table and the
    setup-2 train queries of 60 synthetic sentences."""
    sentences = synth.generate(synth.default_grammar(seed=3), 60)
    queries = subsample_negatives(gen_setup2(sentences)[0], 0.3, (13, 3, 0))
    hyper = HyperParams.defaults_for(2, "crf")
    table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim,
                              np.random.default_rng(1))
    return hyper, table, queries


class TestAllocation:
    def test_init_makes_no_float64_copy_and_no_gradient_buffer(self):
        """init_params at s2 sizes draws each weight straight into float32
        and makes no gradient buffer: it allocates the values and less than
        a quarter of the largest tensor besides."""
        hyper, table, _ = s2_world()
        tracemalloc.start()
        try:
            params = init_params(hyper, LabelSpace(), table, seed=13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        values = sum(tensor.value.nbytes for tensor in params.all_tensors())
        largest = params["re_ctx_w"].value.nbytes
        assert peak < values + largest / 4, (peak, values, largest)

    def test_training_step_allocates_under_half_the_largest_tensor(self):
        """A warmed s2-size float32 step (loss, backward, SGD) writes the
        gradients into their buffers: no temporary near a weight matrix's
        size, and no pass that copies a whole tensor."""
        sentences = synth.generate(synth.default_grammar(seed=3), 60)
        queries = subsample_negatives(gen_setup2(sentences)[0], 0.3, (13, 3, 0))
        hyper = HyperParams.defaults_for(2, "crf")
        table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim,
                                  np.random.default_rng(1))
        params = init_params(hyper, LabelSpace(), table, seed=13)
        order = np.random.default_rng(0).permutation(len(queries))
        first, second = ([queries[i] for i in order[start : start + 10]] for start in (0, 10))
        query_loss_and_backward(first, params)
        sgd_step(params, lr=0.1, l2=1e-3)
        tracemalloc.start()
        try:
            query_loss_and_backward(second, params)
            sgd_step(params, lr=0.1, l2=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(tensor.value.nbytes for tensor in params.all_tensors())
        assert largest == params["re_ctx_w"].value.nbytes
        assert peak < largest / 2, (peak, largest)

    def test_one_epoch_keeps_the_values_and_no_gradient_buffer(self, tmp_path):
        """After one s2-size epoch train_loop has freed the gradient buffers,
        as large as the values: what the model, init and training keep is
        the values and under 1 MiB besides."""
        hyper, table, queries = s2_world()
        tracemalloc.start()
        try:
            params = init_params(hyper, LabelSpace(), table, seed=13)
            train_loop(params, queries[:40], [], TrainConfig(max_epochs=1, setup=2),
                       out_dir=tmp_path, dev_sentences=[], log_path=tmp_path / "log.jsonl")
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        values = sum(tensor.value.nbytes for tensor in params.all_tensors())
        assert kept < values + 2**20, (kept, values)


def buffered(params):
    """Names of the tensors that hold a gradient buffer."""
    return [tensor.name for tensor in params.all_tensors() if tensor._grad is not None]


HIDDEN_WEIGHTS = {"ec_ctx_w", "ec_ent_w", "re_ctx_w", "re_ent_w"}


def factored(params):
    """Names of the tensors that hold their gradient as factors."""
    return [tensor.name for tensor in params.all_tensors() if tensor.factors is not None]


class TestGradientBufferLifetime:
    """A buffer lives from an epoch's first backward to the end of its batch
    loop."""

    def test_none_after_train_loop_returns(self, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=2, seed=1, batch_size=4),
              tmp_path)
        assert buffered(params) == []

    def test_no_factors_and_no_scale_after_train_loop_returns(self, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=2, seed=1, batch_size=4),
              tmp_path)
        assert factored(params) == []
        assert all(tensor.scale == 1.0 for tensor in params.all_tensors())

    def test_none_after_a_failed_batch_is_raised(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        steps = []
        real_step = training.sgd_step

        def poisoning_step(params, lr, l2):
            steps.append((buffered(params), factored(params),
                          {t.name for t in params.all_tensors() if t.scale != 1.0}))
            if len(steps) == 3:
                params["ec_out"].grad[0, 0] = np.inf
            real_step(params, lr, l2)

        monkeypatch.setattr(training, "sgd_step", poisoning_step)
        with pytest.raises(RuntimeError, match="^epoch 1, batch 3 "):
            train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=1, seed=1, batch_size=4),
                  tmp_path)
        names = [t.name for t in params.trainable_tensors()]
        assert steps[-1] == ([name for name in names if name not in HIDDEN_WEIGHTS],
                             [name for name in names if name in HIDDEN_WEIGHTS],
                             HIDDEN_WEIGHTS)
        assert buffered(params) == []
        assert factored(params) == []
        assert all(tensor.scale == 1.0 for tensor in params.all_tensors())

    def test_dev_scoring_and_checkpoint_writes_find_none(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        seen = []
        real_predict, real_save = training.predict_queries, training.save_checkpoint

        def recording_predict(queries, params, masked=False):
            seen.append(("predict", buffered(params)))
            return real_predict(queries, params, masked)

        def recording_save(directory, params, seed, extra=None):
            seen.append(("save", buffered(params)))
            real_save(directory, params, seed, extra)

        monkeypatch.setattr(training, "predict_queries", recording_predict)
        monkeypatch.setattr(training, "save_checkpoint", recording_save)
        train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=2, seed=1, batch_size=4),
              tmp_path)
        kinds = [kind for kind, _ in seen]
        assert kinds.count("predict") == 2 and "save" in kinds
        assert all(names == [] for _, names in seen), seen

    def test_dev_scoring_finds_no_factors_and_no_scale(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        seen = []
        real_predict = training.predict_queries

        def recording_predict(queries, params, masked=False):
            seen.append((factored(params), [t.name for t in params.all_tensors()
                                            if t.scale != 1.0]))
            return real_predict(queries, params, masked)

        monkeypatch.setattr(training, "predict_queries", recording_predict)
        train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=2, seed=1, batch_size=4),
              tmp_path)
        assert seen == [([], []), ([], [])]


class TestTrainLoop:
    def test_failed_step_names_its_batch_and_moves_nothing(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        batches, before = [], {}
        real_loss, real_step = training.query_loss_and_backward, training.sgd_step

        def recording_loss(queries, params):
            batches.append(queries)
            return real_loss(queries, params)

        def poisoning_step(params, lr, l2):
            if len(batches) == 3:
                params["ec_out"].grad[0, 0] = np.inf
                before.update({t.name: t.value.copy() for t in params.all_tensors()})
            real_step(params, lr, l2)

        monkeypatch.setattr(training, "query_loss_and_backward", recording_loss)
        monkeypatch.setattr(training, "sgd_step", poisoning_step)
        with pytest.raises(RuntimeError) as failure:
            train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=1, seed=1, batch_size=4),
                  tmp_path)
        ids = ", ".join(dict.fromkeys(query.sentence_id for query in batches[2]))
        assert str(failure.value) == (f"epoch 1, batch 3 (sentences {ids}): "
                                      "non-finite gradient in tensor ec_out")
        for tensor in params.all_tensors():
            assert np.array_equal(tensor.value, before[tensor.name]), tensor.name

    def test_failed_step_saves_the_parameters_from_before_it(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        steps, before = [], {}
        real_step = training.sgd_step

        def poisoning_step(params, lr, l2):
            steps.append(lr)
            if len(steps) == 3:
                params["ec_out"].grad[0, 0] = np.inf
                before.update({t.name: t.value.copy() for t in params.all_tensors()})
            real_step(params, lr, l2)

        monkeypatch.setattr(training, "sgd_step", poisoning_step)
        with pytest.raises(RuntimeError, match="^epoch 1, batch 3 "):
            train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=1, seed=1, batch_size=4),
                  tmp_path)
        saved, meta = load_checkpoint(tmp_path / "final")
        assert meta["extra"] == {"epoch": 1, "batch": 3}
        for tensor in saved.all_tensors():
            assert np.array_equal(tensor.value, before[tensor.name]), tensor.name
        assert not (tmp_path / "best").exists()
        assert (tmp_path / "log.jsonl").read_text() == ""

    def test_failed_step_keeps_the_log_of_the_epochs_before_it(self, monkeypatch, tmp_path):
        config = TrainConfig(max_epochs=3, seed=1, batch_size=4)
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        done = train(params, train_q, dev_q, dev_s, replace(config, max_epochs=1),
                     tmp_path / "one")
        per_epoch = -(-len(train_q) // config.batch_size)
        steps = []
        real_step = training.sgd_step

        def poisoning_step(params, lr, l2):
            steps.append(lr)
            if len(steps) == per_epoch + 1:  # the first batch of epoch 2
                params["ec_out"].grad[0, 0] = np.nan
            real_step(params, lr, l2)

        monkeypatch.setattr(training, "sgd_step", poisoning_step)
        params, *_ = build(n_sentences=20)
        with pytest.raises(RuntimeError, match="^epoch 2, batch 1 "):
            train(params, train_q, dev_q, dev_s, config, tmp_path / "failed")
        log = (tmp_path / "failed" / "log.jsonl").read_text()
        assert len(log.splitlines()) == 1
        assert log == (tmp_path / "one" / "log.jsonl").read_text()
        assert json.loads(log) == done.log[0]

    def test_empty_train_set_is_config_error(self, tmp_path):
        params, *_ = build()
        with pytest.raises(ConfigError, match="empty train set"):
            train(params, [], [], [], TrainConfig(max_epochs=1), tmp_path)

    def test_zero_epochs_returns_initialized_params(self, tmp_path):
        params, train_q, dev_q, dev_s = build()
        before = {t.name: t.value.copy() for t in params.all_tensors()}
        state = train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=0), tmp_path)
        assert state.log == []
        assert (tmp_path / "log.jsonl").read_text() == ""
        assert (tmp_path / "final" / "manifest.json").exists()
        for tensor in params.all_tensors():
            assert np.array_equal(tensor.value, before[tensor.name])

    def test_lr_halves_on_dev_regression(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        metrics = iter([0.5, 0.8, 0.6, 0.7])

        def fake_score(queries, preds, setup, ls, sentences, omit_other=False):
            m = next(metrics)
            return MetricsReport({}, {}, m, m, m)

        monkeypatch.setattr(training, "score_queries", fake_score)
        state = train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=4, seed=1), tmp_path)
        records = state.log
        assert [r["halved"] for r in records] == [False, False, True, False]
        assert records[2]["lr"] == pytest.approx(0.1)
        assert records[2]["lr_next"] == pytest.approx(0.05)
        assert records[3]["lr"] == pytest.approx(0.05)
        # epoch 4 (0.7) is above epoch 3 (0.6): no halving even though it is
        # below the best-so-far 0.8
        assert state.best_metric == pytest.approx(0.8)
        assert [r["improved"] for r in records] == [True, True, False, False]

    def test_lr_floor_stops_training(self, monkeypatch, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=20)
        metrics = iter([1.0 / (i + 1) for i in range(40)])  # strictly decreasing

        def fake_score(queries, preds, setup, ls, sentences, omit_other=False):
            m = next(metrics)
            return MetricsReport({}, {}, m, m, m)

        monkeypatch.setattr(training, "score_queries", fake_score)
        monkeypatch.setattr(training, "LR_FLOOR", 1e-3)
        state = train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=40, seed=1), tmp_path)
        assert state.epoch < 40
        assert state.lr < 1e-3
        lrs = [r["lr"] for r in state.log]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # non-increasing

    def test_best_metric_non_decreasing(self, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=80)
        state = train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=5, seed=2), tmp_path)
        best = None
        for record in state.log:
            metric = record["dev_avg_ec_re"]
            if best is None or (metric is not None and metric > best):
                best = metric
        assert state.best_metric == pytest.approx(best)

    def test_same_seed_bit_identical_at_s2_sizes(self):
        """Three s2-size float32 batches from one seed, twice in one process at
        the default BLAS thread count: products this large are the ones the
        BLAS library may split across threads."""
        runs = []
        for _ in range(2):
            hyper, table, queries = s2_world()
            params = init_params(hyper, LabelSpace(), table, seed=13)
            order = np.random.default_rng(0).permutation(len(queries))
            losses = []
            for start in (0, 10, 20):
                losses.append(query_loss_and_backward(
                    [queries[i] for i in order[start : start + 10]], params))
                sgd_step(params, lr=0.1, l2=1e-3)
            runs.append((losses, {t.name: t.value.tobytes() for t in params.all_tensors()}))
        (losses_a, tensors_a), (losses_b, tensors_b) = runs
        assert losses_a == losses_b
        assert tensors_a == tensors_b

    def test_determinism_checkpoints_and_logs(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            params, train_q, dev_q, dev_s = build(seed=7, n_sentences=40)
            out = tmp_path / run
            state = train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=3, seed=11), out)
            outputs.append((state, out))
        (state_a, out_a), (state_b, out_b) = outputs
        assert state_a.log == state_b.log
        assert (out_a / "log.jsonl").read_bytes() == (out_b / "log.jsonl").read_bytes()
        for name in ("final", "best"):
            assert (out_a / name / "params.bin").read_bytes() == \
                (out_b / name / "params.bin").read_bytes()
            assert (out_a / name / "manifest.json").read_bytes() == \
                (out_b / name / "manifest.json").read_bytes()

    def test_overfits_separable_task(self, tmp_path):
        params, train_q, dev_q, dev_s = build(n_sentences=300,
                                          nk_c=12, nk_e=8, h_c=16, h_e=8, emb_dim=16)
        # The hard cases are the entity types of rare names in no-relation
        # sentences: only the name's own embedding says the type, so SGD must
        # memorise those vectors. lr 0.2 with batch 5 is the budget measured
        # to fit them on six (build seed, train seed) pairs; the defaults
        # (lr 0.1, batch 10) reach only 0.81-0.90. The bounds, the 10 epochs,
        # the train seed and the corpus size are the original ones.
        config = TrainConfig(max_epochs=10, seed=3, learning_rate=0.2, batch_size=5)
        state = train(params, train_q, dev_q, dev_s, config, tmp_path)
        preds = predict_queries(train_q, params)
        hits = sum(pred == gold_indices(q, params.label_space) for q, pred in zip(train_q, preds))
        assert hits / len(train_q) >= 0.95
        assert state.best_metric >= 0.85

    def test_freeze_embeddings_flag(self, tmp_path):
        # the table train --freeze-embeddings builds
        params, train_q, dev_q, dev_s = build(n_sentences=20, trainable=False)
        emb_before = params["embeddings"].value.copy()
        train(params, train_q, dev_q, dev_s, TrainConfig(max_epochs=1, seed=4), tmp_path)
        assert np.array_equal(params["embeddings"].value, emb_before)


class TestGradCheck:
    def test_fresh_init_passes(self):
        params, train_q, *_ = build(n_sentences=16)
        report = grad_check(params, train_q[:5], l2=1e-3)
        assert report.passed, report.errors
        assert set(report.errors) == {t.name for t in params.trainable_tensors()}
        assert max(report.errors.values()) < 1e-6

    @pytest.mark.parametrize("output_layer", ["crf", "softmax"])
    def test_batch_sharing_sentences_passes(self, output_layer):
        params, *_ = build(output_layer=output_layer)
        for batch in (shared_sentence_batch(), setup3_table_batch()):
            report = grad_check(params, batch, l2=1e-3)
            assert report.passed, report.errors

    def test_softmax_path_passes(self):
        params, train_q, *_ = build(n_sentences=16, output_layer="softmax")
        report = grad_check(params, train_q[:3])
        assert report.passed, report.errors

    def test_corrupted_tanh_backward_detected(self, monkeypatch):
        import entrel.model as model_module

        params, train_q, *_ = build(n_sentences=16)
        real = model_module.tanh_backward

        def corrupted(h, grad):
            return real(h, grad) * 1.01

        monkeypatch.setattr(model_module, "tanh_backward", corrupted)
        report = grad_check(params, train_q[:3])
        assert not report.passed
        # the corruption sits upstream of the hidden-layer weights
        assert any(name.endswith(("ctx_w", "ent_w", "ctx_b", "ent_b"))
                   for name, err in report.errors.items() if err >= report.tolerance)

    def test_requires_float64(self):
        params, train_q, *_ = build(n_sentences=16)
        params.hyper.dtype = "float32"
        with pytest.raises(ConfigError, match="float64"):
            grad_check(params, train_q[:2])
