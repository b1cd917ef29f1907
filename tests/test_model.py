import dataclasses
import functools
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrel import crf, model, synth
from entrel.corpus import (
    EntityMention,
    LabelSpace,
    RelationAnnotation,
    Sentence,
    corpus_vocabulary,
    random_embeddings,
)
from entrel.kernels import conv1d, conv1d_backward, kmax_pool_backward, rel_error
from entrel.model import (
    HyperParams,
    SentenceEncoding,
    backward_query,
    decode_query,
    encode_task,
    forward_query,
    forward_sentences,
    gold_indices,
    init_params,
    load_checkpoint,
    output_chain,
    predict_queries,
    save_checkpoint,
    score_task,
)
from entrel.querygen import Query, QueryError, gen_setup1, gen_setup3

import softmax_oracles
from conftest import FIG_TOKENS, TINY_HYPER, finite_difference
from crf_oracles import brute_force_logZ, sequence_score
from pool_oracles import kmax_pool_oracle
from scatter_oracles import route_oracle


def make_sentence():
    return Sentence(
        "s0",
        ["the", "per1", "lives", "in", "loc1", "today"],
        [EntityMention(1, 2, "Peop"), EntityMention(4, 5, "Loc")],
        [RelationAnnotation(0, 1, "Live_in")],
    )


def make_params(seed=5, sentences=None, **overrides):
    hyper = HyperParams(**{**TINY_HYPER, **overrides})
    sentences = sentences or [make_sentence()]
    table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim,
                              np.random.default_rng(seed + 100))
    return init_params(hyper, LabelSpace(), table, seed=seed)


def make_query(sentence=None):
    sentence = sentence or make_sentence()
    return gen_setup1([sentence])[0]


class TestHyperParams:
    def test_defaults_per_setup(self):
        crf1 = HyperParams.defaults_for(1, "crf")
        assert (crf1.nk_c, crf1.nk_e, crf1.h_c, crf1.h_e) == (200, 50, 100, 50)
        crf2 = HyperParams.defaults_for(2, "crf")
        assert (crf2.nk_c, crf2.nk_e, crf2.h_c, crf2.h_e) == (500, 100, 200, 50)
        crf3 = HyperParams.defaults_for(3, "crf")
        assert (crf3.nk_c, crf3.nk_e, crf3.h_c, crf3.h_e) == (500, 100, 100, 50)
        for setup in (1, 2, 3):
            soft = HyperParams.defaults_for(setup, "softmax")
            assert (soft.nk_c, soft.nk_e, soft.h_c, soft.h_e) == (500, 100, 100, 50)

    def test_filter_widths(self):
        hyper = HyperParams.defaults_for(1, "crf")
        assert hyper.ctx_width == 3
        assert hyper.ent_width == 2

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HyperParams(nk_c=0)
        with pytest.raises(ValueError):
            HyperParams(output_layer="maxent")
        with pytest.raises(ValueError, match="dtype"):
            HyperParams(dtype="float16")


def naive_pooled(part, params, prefix):
    """Straight-line pooled features of one part (a token list) through the
    context ("ctx") or entity ("ent") CNN: embedding rows right-padded with
    zero rows to the filter width, a narrow conv written as loops, then k-max
    pooling that keeps the top k values of each filter in sentence order."""
    hyper = params.hyper
    width = hyper.ctx_width if prefix == "ctx" else hyper.ent_width
    filters = params[f"{prefix}_filters"].value
    bias = params[f"{prefix}_bias"].value
    emb = params["embeddings"].value
    mat = np.zeros((max(len(part), width), emb.shape[1]))
    for i, tok in enumerate(part):
        mat[i] = emb[params.embeddings.lookup(tok)]
    nk, w, e = filters.shape
    conv = np.zeros((mat.shape[0] - w + 1, nk))
    for t in range(conv.shape[0]):
        for f in range(nk):
            conv[t, f] = bias[f] + sum(
                mat[t + i, ee] * filters[f, i, ee] for i in range(w) for ee in range(e)
            )
    cols = []
    for c in range(nk):
        col = list(conv[:, c])
        idx = sorted(sorted(range(len(col)), key=lambda i: (-col[i], i))[: hyper.k])
        vals = [col[i] for i in idx] + [0.0] * max(0, hyper.k - len(col))
        cols.append(vals[: hyper.k])
    return np.array(cols).T.ravel()


class TestEncode:
    def test_output_length_is_h_c_plus_h_e(self):
        params = make_params()
        width = TINY_HYPER["h_c"] + TINY_HYPER["h_e"]
        enc = SentenceEncoding([(make_sentence().tokens, [(1, 2), (4, 5)])], params)
        h, _ = encode_task(enc, "ec", [[0], [1]], params)
        assert h.shape == (2, width)
        h, _ = encode_task(enc, "re", [[0, 1]], params)
        assert h.shape == (1, width)
        # a span covering the whole sentence leaves both contexts empty
        enc = SentenceEncoding([(("per1",), [(0, 1)])], params)
        h, _ = encode_task(enc, "ec", [[0]], params)
        assert h.shape == (1, width)

    def test_zero_parameters_give_zero_representation(self):
        params = make_params()
        for tensor in params.all_tensors():
            tensor.value[...] = 0.0
        enc = SentenceEncoding([(("the", "per1", "lives"), [(1, 2)])], params)
        h, _ = encode_task(enc, "ec", [[0]], params)
        assert not h.any()
        d, _ = forward_query(make_query(), params)
        assert not d.any()

    def test_wrong_part_count_rejected(self):
        params = make_params()
        enc = SentenceEncoding([(make_sentence().tokens, [(1, 2), (4, 5)])], params)
        with pytest.raises(ValueError, match="expects 1 span"):
            encode_task(enc, "ec", [[0, 1]], params)
        with pytest.raises(ValueError, match="expects 2 span"):
            encode_task(enc, "re", [[0]], params)
        with pytest.raises(ValueError, match="unknown task"):
            encode_task(enc, "xx", [[0]], params)

    def test_straight_line_oracle_ec_path(self):
        """Independent inline re-implementation of the EC path."""
        params = make_params()
        query = make_query()
        tokens = query.sentence.tokens
        d, _ = forward_query(query, params)

        si, ei = query.span_i
        ctx = np.concatenate([naive_pooled(tokens[:si], params, "ctx"),
                              naive_pooled(tokens[ei:], params, "ctx")])
        entv = naive_pooled(tokens[si:ei], params, "ent")
        h_ctx = np.tanh(params["ec_ctx_w"].value.T @ ctx + params["ec_ctx_b"].value)
        h_ent = np.tanh(params["ec_ent_w"].value.T @ entv + params["ec_ent_b"].value)
        expected = params["ec_out"].value.T @ np.concatenate([h_ctx, h_ent])
        assert np.abs(d[0] - expected).max() < 1e-12

    @pytest.mark.parametrize("tokens, pairs", [
        (FIG_TOKENS, [((0, 1), (6, 7))]),
        # the outer contexts tokens[:si] and tokens[ej:] are empty; the inner
        # ones each hold the other entity
        (["a", "b"], [((0, 1), (1, 2))]),
        # one call over every pair of four spans, in textual order: six pairs
        # outnumber the four spans, so the hidden layers project each span once
        (FIG_TOKENS, list(itertools.combinations([(0, 1), (2, 3), (7, 9), (11, 14)], 2))),
    ], ids=["figure", "two-tokens", "pairs-outnumber-spans"])
    def test_straight_line_oracle_re_path(self, tokens, pairs):
        """Independent inline re-implementation of the RE path: context parts
        tokens[:si], tokens[ei:], tokens[:sj], tokens[ej:] through the context
        CNN, entity parts tokens[si:ei], tokens[sj:ej] through the entity CNN."""
        sentence = Sentence("re", list(tokens), [], [])
        params = make_params(sentences=[sentence])
        rng = np.random.default_rng(3)
        for tensor in params.all_tensors():  # nonzero biases show in empty parts
            tensor.value[...] = rng.normal(scale=0.5, size=tensor.shape)
        queries = [Query(sentence, span_i, span_j, "O", "N", "O", 1) for span_i, span_j in pairs]
        d, _ = forward_sentences([queries], params)

        assert len(d) == len(pairs)
        for row, ((si, ei), (sj, ej)) in zip(d, pairs):
            ctx = np.concatenate([naive_pooled(part, params, "ctx") for part in
                                  (tokens[:si], tokens[ei:], tokens[:sj], tokens[ej:])])
            entv = np.concatenate([naive_pooled(tokens[si:ei], params, "ent"),
                                   naive_pooled(tokens[sj:ej], params, "ent")])
            h_ctx = np.tanh(params["re_ctx_w"].value.T @ ctx + params["re_ctx_b"].value)
            h_ent = np.tanh(params["re_ent_w"].value.T @ entv + params["re_ent_b"].value)
            expected = params["re_out"].value.T @ np.concatenate([h_ctx, h_ent])
            assert np.abs(row[1] - expected).max() < 1e-12

    def test_ec_rows_share_parameters(self):
        # two queries in one sentence where e1-parts of one equal e2-parts of
        # the other: the shared EC path must give identical score rows
        sent = Sentence(
            "share",
            ["x", "per1", "y", "org9", "z", "loc2", "w"],
            [
                EntityMention(1, 2, "Peop"),
                EntityMention(3, 4, "Org"),
                EntityMention(5, 6, "Loc"),
            ],
            [],
        )
        params = make_params(sentences=[sent])
        queries = gen_setup1([sent])
        by_spans = {(q.span_i, q.span_j): q for q in queries}
        x = by_spans[((3, 4), (5, 6))]  # e1 = org9
        y = by_spans[((1, 2), (3, 4))]  # e2 = org9
        dx, _ = forward_query(x, params)
        dy, _ = forward_query(y, params)
        assert np.array_equal(dx[0], dy[2])

    def test_entity_cnn_shared_across_tasks(self):
        # the RE input of (e1, e2) starts with e1's EC parts: its left and
        # right context (left_i, mid_i) and its entity part (ent_i)
        params = make_params()
        enc = SentenceEncoding([(make_sentence().tokens, [(1, 2), (4, 5)])], params)
        for cnn in (enc.ctx, enc.ent):
            ec_block = cnn.gather(np.array([[0]]))[0]
            assert np.array_equal(cnn.gather(np.array([[0, 1]]))[0, : ec_block.size], ec_block)

    def test_forward_deterministic(self):
        params = make_params()
        query = make_query()
        d1, _ = forward_query(query, params)
        d2, _ = forward_query(query, params)
        assert np.array_equal(d1, d2)

    def test_invalid_spans_rejected(self):
        params = make_params()
        sentence = make_sentence()
        for span_i, span_j in (((1, 3), (2, 4)), ((4, 5), (1, 2)), ((1, 2), (5, 7))):
            query = Query(sentence, span_i, span_j, "O", "O", "O", 1)
            with pytest.raises(QueryError):
                forward_query(query, params)
            with pytest.raises(QueryError):
                predict_queries([query], params)

    def test_d_shape_3x11(self):
        params = make_params()
        d, _ = forward_query(make_query(), params)
        assert d.shape == (3, 11)
        assert np.isfinite(d).all()


def embed_pad(ids, emb, width):
    """Per-part input as the encoder once built it: the part's embedding rows,
    right-padded with zero rows up to the filter width."""
    mat = np.zeros((max(len(ids), width), emb.shape[1]))
    mat[: len(ids)] = emb[list(ids)]
    return mat


class TestSentenceEncoding:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_slice_pooling_matches_per_part_conv(self, data):
        """Pooled parts and their gradients equal a separate zero-padded
        conv1d per part, pooled by the per-column reference, for spans and
        contexts of any length (empty and shorter than the filter width
        included), whether one sentence is encoded or several are packed
        into one encoding. Each part's selected rows are the reference's
        selection shifted to the part's rows in the encoding's conv, which
        tied values in ``pooled`` could not show."""
        sentences = []
        for _ in range(data.draw(st.integers(1, 3), label="n_sentences")):
            n_tokens = data.draw(st.integers(1, 9), label="n_tokens")
            cuts = sorted(data.draw(st.sets(st.integers(0, n_tokens), min_size=2), label="cuts"))
            sentences.append((n_tokens, [(cuts[i], cuts[i + 1])
                                         for i in range(0, len(cuts) - 1, 2)]))
        ctx_width = data.draw(st.integers(1, 4), label="ctx_width")
        ent_width = data.draw(st.integers(1, 3), label="ent_width")
        k = data.draw(st.integers(1, 4), label="k")
        # small-integer values make every sum exact and conv ties common
        exact = data.draw(st.booleans(), label="exact")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def draw(shape):
            return rng.integers(-1, 2, size=shape).astype(float) if exact else rng.normal(size=shape)

        def same(a, b):
            return np.array_equal(a, b) if exact else np.allclose(a, b, rtol=0, atol=1e-10)

        sentences = [([f"w{i}" for i in rng.integers(0, 3, size=n)], spans)
                     for n, spans in sentences]
        params = make_params(sentences=[Sentence("p", tokens, [], []) for tokens, _ in sentences],
                             ctx_width=ctx_width, ent_width=ent_width, k=k)
        cnn_names = ("embeddings", "ctx_filters", "ctx_bias", "ent_filters", "ent_bias")
        for name in cnn_names:
            params[name].value[...] = draw(params[name].shape)
        emb = params["embeddings"].value

        enc = SentenceEncoding(sentences, params)
        n_spans = sum(len(spans) for _, spans in sentences)
        expected = {name: np.zeros_like(params[name].value) for name in cnn_names}
        for prefix, cnn, width in (("ctx", enc.ctx, ctx_width), ("ent", enc.ent, ent_width)):
            filters = params[f"{prefix}_filters"].value
            upstream = draw(cnn.pooled.shape)
            # each sentence's parts, in the encoding's order, with the
            # sentence's first token in the packed sequence
            offsets = np.cumsum([0] + [len(tokens) for tokens, _ in sentences])
            parts = [(tokens, part, lo) for (tokens, spans), lo in zip(sentences, offsets)
                     for s, e in spans
                     for part in (((0, s), (e, len(tokens))) if prefix == "ctx" else ((s, e),))]
            assert len(cnn.pooled) == len(parts)
            # the first conv row of each part: a part at least `width` tokens
            # long is a slice of the packed sequence's conv; a shorter one is a
            # `width`-row zero-padded copy appended after the sequence
            next_row = offsets[-1] if any(b - a >= width for _, (a, b), _ in parts) else 0
            firsts = []
            for _, (a, b), lo in parts:
                if b - a >= width:
                    firsts.append(lo + a)
                else:
                    firsts.append(next_row)
                    next_row += width
            for index, (tokens, (a, b), _) in enumerate(parts):
                ids = [params.embeddings.lookup(tok) for tok in tokens[a:b]]
                mat = embed_pad(ids, emb, width)
                conv = conv1d(mat, filters, params[f"{prefix}_bias"].value)
                pooled, sel = kmax_pool_oracle(conv, [(0, len(conv))], k)
                assert same(cnn.pooled[index], pooled[0]), (prefix, index, a, b)
                shifted = np.where(sel[0] >= 0, sel[0] + firsts[index], -1)
                assert np.array_equal(cnn.sel[index], shifted), (prefix, index, a, b)
                grad_conv = kmax_pool_backward(upstream[index][None], sel, conv.shape[0])
                grad_mat, grad_filters, grad_bias = conv1d_backward(grad_conv, mat, filters)
                expected[f"{prefix}_filters"] += grad_filters
                expected[f"{prefix}_bias"] += grad_bias
                for row, tok_id in enumerate(ids):
                    expected["embeddings"][tok_id] += grad_mat[row]
            cnn.add_grad(np.arange(n_spans)[:, None], upstream.reshape(n_spans, -1))
        enc.backward(params)
        for name in cnn_names:
            assert same(params[name].grad, expected[name]), name


class TestGradientRouting:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_add_grad_matches_add_at_oracle(self, data):
        """Both tasks' feature gradients, routed to a CNN's spans by one
        product each, equal np.add.at sums: a span that several inputs
        read, within one call or across the two, gets every input's part."""
        n_tokens = data.draw(st.integers(2, 8), label="n_tokens")
        spans = sorted(data.draw(st.sets(st.tuples(st.integers(0, n_tokens - 1),
                                                   st.integers(1, n_tokens)).filter(
            lambda span: span[0] < span[1]), min_size=1, max_size=4), label="spans"))
        n_spans = len(spans)
        pairs = np.array(data.draw(st.lists(st.tuples(st.integers(0, n_spans - 1),
                                                      st.integers(0, n_spans - 1)),
                                            min_size=1, max_size=6), label="pairs"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tokens = [f"w{i}" for i in rng.integers(0, 3, size=n_tokens)]
        params = make_params(sentences=[Sentence("p", tokens, [], [])])
        enc = SentenceEncoding([(tokens, spans)], params)
        for cnn in (enc.ctx, enc.ent):
            width = cnn.features.shape[1]
            singles = np.arange(n_spans)[:, None]
            grad_ec = rng.normal(size=(n_spans, width))
            grad_re = rng.normal(size=(len(pairs), 2 * width))
            cnn.add_grad(singles, grad_ec)
            cnn.add_grad(pairs, grad_re)
            oracle = (route_oracle(singles.reshape(-1), n_spans, grad_ec)
                      + route_oracle(pairs.reshape(-1), n_spans, grad_re.reshape(-1, width)))
            assert cnn.grad_pooled.shape == cnn.pooled.shape
            assert np.allclose(cnn.grad_pooled.reshape(n_spans, -1), oracle, rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def predict_world(output_layer):
    """A tiny model with spread-out random weights (so predictions vary) and
    the setup-3 queries of five synthetic sentences."""
    sentences = synth.generate(synth.default_grammar(seed=3), 5)
    params = make_params(seed=21, sentences=sentences, output_layer=output_layer)
    rng = np.random.default_rng(22)
    for tensor in params.all_tensors():
        tensor.value[...] = rng.normal(scale=0.7, size=tensor.shape)
    return params, tuple(gen_setup3(sentences)[0])


class TestPredictQueries:
    @settings(max_examples=30, deadline=None)
    @given(order=st.randoms(use_true_random=False), keep=st.floats(0.1, 1.0),
           pack=st.none() | st.integers(1, 16))
    def test_multi_sentence_call_equals_per_sentence_calls(self, order, keep, pack):
        """A call over several sentences, packed PACK_QUERIES queries at a
        time (or a drawn smaller budget, down to one query per pack), gives
        each sentence the predictions of a call over that sentence alone:
        both output layers, masked and unmasked."""
        for output_layer, masked in itertools.product(["crf", "softmax"], [False, True]):
            params, queries = predict_world(output_layer)
            subset = [q for q in queries if order.random() < keep] or [queries[0]]
            order.shuffle(subset)
            with mock.patch.object(model, "PACK_QUERIES", pack or model.PACK_QUERIES):
                preds = predict_queries(subset, params, masked)
            assert len(preds) == len(subset)
            for sentence in {id(q.sentence): q.sentence for q in subset}.values():
                members = [i for i, q in enumerate(subset) if q.sentence is sentence]
                alone = predict_queries([subset[i] for i in members], params, masked)
                assert [preds[i] for i in members] == alone

    def test_packs_hand_each_query_once_and_at_most_pack_queries_per_call(self, monkeypatch):
        sentences = synth.generate(synth.default_grammar(seed=3), 30)
        params = make_params(seed=21, sentences=sentences)
        queries = gen_setup3(sentences)[0]
        per_sentence = [len(members) for members in model.sentence_groups(queries)]
        assert max(per_sentence) <= model.PACK_QUERIES < len(queries)
        calls = []
        real = model.forward_sentences

        def recording_forward(groups, params):
            calls.append([query for group in groups for query in group])
            return real(groups, params)

        monkeypatch.setattr(model, "forward_sentences", recording_forward)
        predict_queries(queries, params)
        assert len(calls) > 1
        assert all(len(call) <= model.PACK_QUERIES for call in calls), [len(c) for c in calls]
        handed = sorted(id(query) for call in calls for query in call)
        assert handed == sorted(map(id, queries))

    @pytest.mark.parametrize("output_layer", ["crf", "softmax"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_batched_decoding_matches_single_queries(self, output_layer, masked):
        params, queries = predict_world(output_layer)
        preds = predict_queries(queries, params, masked)
        single = [decode_query(forward_query(q, params)[0], params, masked) for q in queries]
        assert preds == single
        assert len(set(preds)) > 1

    def test_predictions_share_one_tuple_per_triple(self):
        params, queries = predict_world("crf")
        preds = predict_queries(queries, params) + predict_queries(queries, params)
        shared = {}
        for pred in preds:
            assert type(pred) is tuple and all(type(v) is int for v in pred)
            assert shared.setdefault(pred, pred) is pred
        assert preds[0] == tuple(preds[0]) and hash(preds[0]) == hash(tuple(preds[0]))

    def test_empty_batch(self):
        params, _ = predict_world("crf")
        assert predict_queries([], params) == []

    @pytest.mark.parametrize("output_layer", ["crf", "softmax"])
    def test_cached_chain_parts_are_read_only(self, output_layer):
        """The position mask and the softmax's zero transitions are built
        once per model and shared by every call, so no caller may write to
        them."""
        params, _ = predict_world(output_layer)
        q, allowed = output_chain(params, masked=True)
        assert np.array_equal(allowed, params.label_space.position_mask())
        fixed = [allowed] if output_layer == "crf" else [allowed, q]
        for array in fixed:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = not array[0, 0]
        assert output_chain(params, masked=True)[1] is allowed


class TestScoreTask:
    def test_zero_weights(self):
        params = make_params()
        params["ec_out"].value[...] = 0.0
        h = np.ones((2, TINY_HYPER["h_c"] + TINY_HYPER["h_e"]))
        assert not score_task(h, "ec", params).any()

    def test_linearity(self):
        params = make_params()
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2, TINY_HYPER["h_c"] + TINY_HYPER["h_e"]))
        assert np.allclose(score_task(2 * h, "re", params),
                           2 * score_task(h, "re", params), atol=1e-12)

    def test_matches_matvec_oracle(self):
        params = make_params()
        rng = np.random.default_rng(1)
        h = rng.normal(size=(2, TINY_HYPER["h_c"] + TINY_HYPER["h_e"]))
        w = params["ec_out"].value
        expected = np.array([[sum(w[i, c] * row[i] for i in range(len(row))) for c in range(11)]
                             for row in h])
        assert np.allclose(score_task(h, "ec", params), expected, atol=1e-12)


def chain_loss_and_grad(d, params, gold):
    """Loss and grad_d [3, N] of the model's output chain for one score
    sequence d [3, N], run as training runs it: a batch, here of one."""
    q, allowed = output_chain(params)
    losses, grad_d, _ = crf.nll_and_gradients(d[None], q, [gold], allowed)
    return float(losses[0]), grad_d[0]


def softmax_distributions(query, params):
    """The baseline's three task-slice distributions, read off the training
    loss gradient (probabilities minus the gold one-hot), and the scores d."""
    d, _ = forward_query(query, params)
    gold = gold_indices(query)
    _, grad = chain_loss_and_grad(d, params, gold)
    for row, target in enumerate(gold):
        grad[row, target] += 1.0
    n_ec = params.label_space.n_ec
    return grad[0, :n_ec], grad[1, n_ec:], grad[2, :n_ec], d


class TestSoftmaxPath:
    """The softmax baseline is the chain without transitions, masked per
    task slice; tests/softmax_oracles.py computes it slice by slice."""

    def test_distributions_sum_to_one(self):
        params = make_params(output_layer="softmax")
        p1, pr, p2, _ = softmax_distributions(make_query(), params)
        for p in (p1, pr, p2):
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert (p >= 0).all()
        assert p1.shape == (5,) and pr.shape == (6,) and p2.shape == (5,)

    def test_uniform_scores_give_uniform_distributions(self):
        params = make_params(output_layer="softmax")
        for tensor in params.all_tensors():
            tensor.value[...] = 0.0
        p1, pr, p2, _ = softmax_distributions(make_query(), params)
        assert np.allclose(p1, 0.2, atol=1e-12)
        assert np.allclose(pr, 1 / 6, atol=1e-12)

    def test_argmax_matches_re_slice(self):
        # decoding takes each task slice's argmax, the mode of its distribution
        params = make_params(output_layer="softmax")
        _, pr, _, d = softmax_distributions(make_query(), params)
        pred = decode_query(d, params)
        assert pred == (int(np.argmax(d[0, :5])), 5 + int(np.argmax(d[1, 5:])),
                        int(np.argmax(d[2, :5])))
        assert pred[1] == 5 + int(np.argmax(pr))

    def test_loss_and_grad_match_finite_differences(self):
        params = make_params(output_layer="softmax")
        ls = params.label_space
        rng = np.random.default_rng(2)
        d = rng.normal(size=(3, 11))
        gold = (1, ls.unified("Live_in"), 2)
        loss, grad = chain_loss_and_grad(d, params, gold)
        assert loss > 0
        numeric = finite_difference(lambda: chain_loss_and_grad(d, params, gold)[0], d)
        assert rel_error(grad, numeric) < 1e-6
        # gradient never leaks outside the task slices
        assert not grad[0, 5:].any() and not grad[2, 5:].any() and not grad[1, :5].any()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), coarse=st.booleans(),
           scale=st.sampled_from([0.1, 3.0, 30.0]))
    def test_matches_slice_oracle(self, seed, coarse, scale):
        # coarse draws are small integers, so slices often tie at their top
        params = make_params(output_layer="softmax")
        ls = params.label_space
        rng = np.random.default_rng(seed)
        if coarse:
            d = rng.integers(-2, 3, size=(3, ls.n_classes)).astype(float)
        else:
            d = rng.normal(scale=scale, size=(3, ls.n_classes))
        gold = (int(rng.integers(ls.n_ec)), int(rng.integers(ls.n_ec, ls.n_classes)),
                int(rng.integers(ls.n_ec)))
        loss, grad = chain_loss_and_grad(d, params, gold)
        oracle_loss, oracle_grad = softmax_oracles.softmax_loss_and_grad(d, ls, gold)
        assert abs(loss - oracle_loss) <= 1e-12 * max(1.0, abs(oracle_loss))
        assert rel_error(grad, oracle_grad) <= 1e-12
        assert decode_query(d, params) == softmax_oracles.softmax_decode(d, ls)
        assert decode_query(d, params, masked=True) == softmax_oracles.softmax_decode(d, ls)

    def test_stored_transitions_are_not_used(self):
        params = make_params(output_layer="softmax")
        rng = np.random.default_rng(3)
        d = rng.normal(size=(3, 11))
        gold = (1, 7, 2)
        before = chain_loss_and_grad(d, params, gold), decode_query(d, params)
        params.transitions.value[...] = rng.normal(scale=50.0, size=params.transitions.shape)
        (loss, grad), pred = chain_loss_and_grad(d, params, gold), decode_query(d, params)
        assert loss == before[0][0] and np.array_equal(grad, before[0][1])
        assert pred == before[1]


class TestInit:
    def test_same_seed_bit_identical(self):
        a = make_params(seed=9)
        b = make_params(seed=9)
        for ta, tb in zip(a.all_tensors(), b.all_tensors()):
            assert ta.name == tb.name
            assert np.array_equal(ta.value, tb.value)

    def test_q_and_biases_zero(self):
        params = make_params()
        assert not params.transitions.value.any()
        for name in ("ctx_bias", "ent_bias", "ec_ctx_b", "re_ent_b"):
            assert not params[name].value.any()

    def test_transitions_not_trainable_in_softmax_mode(self):
        params = make_params(output_layer="softmax")
        names = {t.name for t in params.trainable_tensors()}
        assert "transitions" not in names
        assert "embeddings" in names

    def test_frozen_embeddings_excluded(self):
        params = make_params()
        params.embeddings.trainable = False
        names = {t.name for t in params.trainable_tensors()}
        assert "embeddings" not in names

    def test_a_fresh_model_holds_no_gradient_buffer(self):
        params = make_params()
        assert [t.name for t in params.all_tensors() if t._grad is not None] == []


class TestBackward:
    def test_backward_before_forward_is_state_error(self):
        params = make_params()
        with pytest.raises(RuntimeError, match="before forward"):
            backward_query(np.zeros((1, 3, 11)), None, params)

    def test_full_crf_loss_matches_finite_differences(self):
        params = make_params()
        query = make_query()
        gold = gold_indices(query)

        def objective():
            d, _ = forward_query(query, params)
            q = params.transitions.value
            return brute_force_logZ(d, q) - sequence_score(d, gold, q)

        d, cache = forward_sentences([[query]], params)
        _, grad_d, grad_q = crf.nll_and_gradients(d, params.transitions.value, [gold])
        params.transitions.grad[...] = grad_q
        backward_query(grad_d, cache, params)

        for name in ("ec_out", "re_ctx_w", "ent_filters", "ctx_bias", "embeddings",
                     "transitions"):
            numeric = finite_difference(objective, params[name].value)
            assert rel_error(params[name].grad, numeric) < 1e-4, name


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params(seed=11)
        save_checkpoint(tmp_path / "ck", params, seed=11, extra={"note": 1})
        loaded, meta = load_checkpoint(tmp_path / "ck")
        assert meta["seed"] == 11
        assert meta["extra"] == {"note": 1}
        assert loaded.hyper == params.hyper
        assert loaded.label_space == params.label_space
        for ta, tb in zip(params.all_tensors(), loaded.all_tensors()):
            assert ta.name == tb.name
            assert np.array_equal(ta.value, tb.value)
        assert loaded.embeddings.vocab == params.embeddings.vocab
        assert loaded.embeddings.unk_row == params.embeddings.unk_row

    def test_round_trip_predictions_identical(self, tmp_path):
        params = make_params(seed=12)
        query = make_query()
        d_before, _ = forward_query(query, params)
        save_checkpoint(tmp_path / "ck", params, seed=12)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        d_after, _ = forward_query(query, loaded)
        assert np.array_equal(d_before, d_after)

    def test_a_loaded_model_predicts_without_gradient_buffers(self, tmp_path):
        save_checkpoint(tmp_path / "ck", make_params(seed=12), seed=12)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        predict_queries(gen_setup3([make_sentence()])[0], loaded, masked=True)
        assert [t.name for t in loaded.all_tensors() if t._grad is not None] == []

    def test_save_is_deterministic(self, tmp_path):
        params = make_params(seed=13)
        save_checkpoint(tmp_path / "a", params, seed=13)
        save_checkpoint(tmp_path / "b", params, seed=13)
        assert (tmp_path / "a/params.bin").read_bytes() == (tmp_path / "b/params.bin").read_bytes()
        manifest = (tmp_path / "a/manifest.json").read_bytes()
        assert manifest == (tmp_path / "b/manifest.json").read_bytes()
        assert manifest.endswith(b"\n") and not manifest.endswith(b"\n\n")

    def test_save_holds_no_copy_of_the_payload(self, tmp_path):
        """An s2-size float32 model is written from its tensors' own buffers:
        the save allocates less than half its largest tensor."""
        params = make_params(seed=18, **dataclasses.asdict(HyperParams.defaults_for(2, "crf")))
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "ck", params, seed=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(tensor.value.nbytes for tensor in params.all_tensors())
        assert largest == params["re_ctx_w"].value.nbytes
        assert peak < largest / 2, (peak, largest)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        for ta, tb in zip(params.all_tensors(), loaded.all_tensors()):
            assert np.array_equal(ta.value, tb.value), ta.name

    def test_tensors_stored_out_of_manifest_order_load_bit_identical(self, tmp_path):
        """A payload that holds the tensors in reverse order, with manifest
        offsets to match, loads each tensor from its own offset."""
        params = make_params(seed=17)
        save_checkpoint(tmp_path / "ck", params, seed=17)
        manifest_path, payload_path = tmp_path / "ck/manifest.json", tmp_path / "ck/params.bin"
        manifest = json.loads(manifest_path.read_text())
        blob = payload_path.read_bytes()
        entries = manifest["tensors"]
        ends = [entry["offset"] for entry in entries[1:]] + [len(blob)]
        chunks = [blob[entry["offset"] : end] for entry, end in zip(entries, ends)]
        reordered, offset = [], 0
        for entry, chunk in reversed(list(zip(entries, chunks))):
            entry["offset"] = offset
            reordered.append(chunk)
            offset += len(chunk)
        payload_path.write_bytes(b"".join(reordered))
        manifest_path.write_text(json.dumps(manifest))
        assert payload_path.read_bytes() != blob
        loaded, _ = load_checkpoint(tmp_path / "ck")
        for ta, tb in zip(params.all_tensors(), loaded.all_tensors()):
            assert ta.name == tb.name
            assert ta.value.tobytes() == tb.value.tobytes(), ta.name

    def test_shape_validation(self, tmp_path):
        params = make_params(seed=14)
        save_checkpoint(tmp_path / "ck", params, seed=14)
        manifest = json.loads((tmp_path / "ck/manifest.json").read_text())
        manifest["tensors"][1]["shape"] = [1, 1, 1]
        (tmp_path / "ck/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("dropped", [0, 3, -1])
    def test_missing_tensor_named(self, tmp_path, dropped):
        params = make_params(seed=16)
        save_checkpoint(tmp_path / "ck", params, seed=16)
        manifest = json.loads((tmp_path / "ck/manifest.json").read_text())
        name = manifest["tensors"].pop(dropped)["name"]
        (tmp_path / "ck/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"lacks tensor {name}$"):
            load_checkpoint(tmp_path / "ck")

    def test_truncated_payload_rejected(self, tmp_path):
        params = make_params(seed=15)
        save_checkpoint(tmp_path / "ck", params, seed=15)
        blob = (tmp_path / "ck/params.bin").read_bytes()
        (tmp_path / "ck/params.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["hyperparams"].update(bogus=3), "hyperparams has unknown key bogus"),
        (lambda m: m["hyperparams"].pop("k"), "hyperparams lacks key k"),
        (lambda m: m.pop("vocab"), "manifest lacks key vocab"),
        (lambda m: m.update(bogus=1), "manifest has unknown key bogus"),
        (lambda m: m["tensors"][2].pop("offset"), "tensor entry lacks key offset"),
        (lambda m: m.update(dtype="float16"), "unknown dtype float16"),
        (lambda m: m["hyperparams"].update(dtype="float16"),
         "hyperparams: unknown dtype 'float16'"),
        (lambda m: m["hyperparams"].update(dtype="float32"),
         "dtype float64 disagrees with hyperparams dtype float32"),
        (lambda m: m["re_labels"].reverse(),
         "re_labels ['N', 'Kill', 'Live_in', 'OrgBased_in', 'Work_for', 'Located_in'] is not "
         "the label set ['Located_in', 'Work_for', 'OrgBased_in', 'Live_in', 'Kill', 'N']"),
    ], ids=["unknown-hyperparam", "missing-hyperparam", "missing-key", "unknown-key",
            "missing-entry-key", "unknown-dtype", "unknown-hyperparams-dtype",
            "dtypes-disagree", "other-label-set"])
    def test_malformed_manifest_names_file_and_key(self, tmp_path, edit, message):
        params = make_params(seed=17)
        save_checkpoint(tmp_path / "ck", params, seed=17)
        path = tmp_path / "ck/manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as info:
            load_checkpoint(tmp_path / "ck")
        assert str(info.value) == f"{path}: {message}"
