"""CNN encoder producing the three-step score sequence, the output chain
that decodes it, parameter initialization and checkpointing.

Both tasks share the word embeddings and the two CNNs (one for entity
parts, one for context parts). Each task owns its hidden sub-layers and
output projection: the per-part pooled features concatenate into a context
group and an entity group, each goes through its own tanh hidden layer, and
the two hidden vectors concatenate before the linear output map onto the
full unified label space.

Every part is a prefix, a suffix or a span of the query's sentence, so a
``SentenceEncoding`` runs each CNN once over the sentence and pools each part
from a row window of that conv. One ``kmax_pool`` call per CNN pools every
window and returns the selected rows as rows of that conv, the frame
``kmax_pool_backward`` routes gradients into.
Training packs all the sentences of a mini-batch into one encoding and runs
each layer once for the batch (``forward_sentences``, ``backward_query``).
``predict_queries`` packs sentences the same way, up to ``PACK_QUERIES``
queries at a time, and decodes each pack as one batch; a one-sentence call
is a pack of one.

The RE input of a span pair (i, j) is its two spans' features concatenated,
[f(i), f(j)] with D features per span, so its hidden pre-activation is
f(i) @ W[:D] + f(j) @ W[D:]. When one ``encode_task`` call has more inputs
than its encoding has spans, as in a table of every pair of a sentence's
spans, each hidden layer therefore multiplies every span's features by each
D-row block of W once and sums the blocks' rows per pair
(``_CnnPass.project``), instead of multiplying a gathered [B, 2D] input by
all of W. The rule compares the call's own row counts, B inputs against the
spans, and nothing else: calls with no more inputs than spans keep the
gathered product. The two forms differ only in rounding; the backward
gathers the inputs in either case.

The backward writes each parameter's gradient once per batch: filter,
bias and output weight gradients go straight into their buffers as one
product or sum, and gradients that several inputs send to one span are
summed by a 0/1 routing product, not accumulated. The four hidden-layer
weights, 95% of the values of the tuned setup-2 model, keep their batch
gradient as its two factors instead, the gathered inputs X [B, in] and the
pre-activation gradient G [B, out] (``ParamTensor.keep_factors``), and
``training.sgd_step`` takes their step from the factors. The embeddings,
which both CNNs scatter into, are the one buffer the backward clears
itself, so no pass over the whole model zeroes gradients between batches.
A gradient lives from an epoch's first backward, which makes it, to the
end of that epoch's batch loop, which frees it and folds every weight's
scale into its values (``ModelParams.drop_gradients``): prediction makes
none, and training's dev scoring and checkpoint writes run beside none.

Both output layers are the linear chain of ``crf`` over the score sequence
(``output_chain``): the CRF with its learned transitions, globally
normalized, and the softmax baseline as that chain without transitions,
each position normalized over its task's label slice.
"""

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from entrel import crf
from entrel.corpus import EmbeddingTable, LabelSpace
from entrel.kernels import (
    ParamTensor,
    conv1d,
    conv1d_backward,
    kmax_pool,
    kmax_pool_backward,
    matvec,
    scaled_uniform,
    tanh_backward,
)
from entrel.querygen import Query, check_spans

TASKS = ("ec", "re")
# queries that predict_queries scores and decodes together. Larger packs save
# per-call work, but a pack's hidden activations and score cubes grow with it:
# at the tuned setup-2/3 sizes a pack of 64 peaks near 3 MB, one of 256 near
# 10 MB, for about 20% more throughput.
PACK_QUERIES = 64
# entity spans per task input: EC encodes one span, RE an ordered pair; each
# span brings two context parts (left, right) and one entity part
_TASK_SPANS = {"ec": 1, "re": 2}

# Tuned layer sizes per (output layer, setup): nk_c, nk_e, h_c, h_e
_DEFAULT_SIZES = {
    ("crf", 1): (200, 50, 100, 50),
    ("crf", 2): (500, 100, 200, 50),
    ("crf", 3): (500, 100, 100, 50),
    ("softmax", 1): (500, 100, 100, 50),
    ("softmax", 2): (500, 100, 100, 50),
    ("softmax", 3): (500, 100, 100, 50),
}


@dataclass
class HyperParams:
    """Layer sizes, output layer and parameter dtype of one model.

    ``HyperParams()`` is the float64 reference model: gradient checks and
    exact-oracle tests run on it. The tuned configurations that training and
    prediction use come from ``defaults_for`` and are float32.
    """

    nk_c: int = 200  # context CNN filters
    nk_e: int = 50  # entity CNN filters
    h_c: int = 100  # context hidden width
    h_e: int = 50  # entity hidden width
    k: int = 3  # k-max pooling
    emb_dim: int = 50
    ctx_width: int = 3  # context filter width
    ent_width: int = 2  # entity filter width
    output_layer: str = "crf"  # "crf" or "softmax"
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("nk_c", "nk_e", "h_c", "h_e", "k", "emb_dim", "ctx_width", "ent_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"hyperparameter {name} must be positive")
        if self.output_layer not in ("crf", "softmax"):
            raise ValueError(f"unknown output layer {self.output_layer!r}")
        if self.dtype not in _DTYPE_CODES:
            raise ValueError(f"unknown dtype {self.dtype!r}")

    @classmethod
    def defaults_for(cls, setup: int, output_layer: str, **overrides) -> "HyperParams":
        """The tuned configuration of a setup and output layer, in float32:
        half the bytes of float64 through every product, SGD step and
        checkpoint, with train losses within 1e-5 relative of float64's."""
        nk_c, nk_e, h_c, h_e = _DEFAULT_SIZES[(output_layer, setup)]
        base = dict(nk_c=nk_c, nk_e=nk_e, h_c=h_c, h_e=h_e, output_layer=output_layer,
                    dtype="float32")
        base.update(overrides)
        return cls(**base)

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def ctx_in(self, task: str) -> int:
        return 2 * _TASK_SPANS[task] * self.k * self.nk_c

    def ent_in(self, task: str) -> int:
        return _TASK_SPANS[task] * self.k * self.nk_e


class ModelParams:
    """All the model's tensors, each with the gradient, a buffer or a
    hidden weight's factors, that training makes on an epoch's first
    backward (``ParamTensor``) and frees through ``drop_gradients`` when the
    epoch's batch loop ends: a model that is only built or loaded, and then
    predicts, and a model between epochs or after training, holds values
    alone, each with scale 1.

    Tensor order is fixed; checkpoints and init draws depend on it.
    """

    def __init__(self, hyper: HyperParams, label_space: LabelSpace,
                 embeddings: EmbeddingTable, tensors: dict):
        self.hyper = hyper
        # always LabelSpace(); the benchmark reads it (perfbench/bench_workloads.py:428)
        self.label_space = label_space
        self.embeddings = embeddings
        self._tensors = tensors
        self._triples = {}
        # the output chain's fixed parts, built once and shared read-only by
        # every decode and loss call
        self.position_mask = _read_only(label_space.position_mask())
        self.zero_transitions = _read_only(np.zeros_like(tensors["transitions"].value))

    def __getitem__(self, name: str) -> ParamTensor:
        return self._tensors[name]

    def all_tensors(self):
        return list(self._tensors.values())

    def drop_gradients(self):
        """Free every tensor's gradient buffer or factors and fold every
        scale into its values; the next backward makes gradients again."""
        for tensor in self._tensors.values():
            del tensor.grad
            tensor.fold()

    def trainable_tensors(self):
        out = []
        for tensor in self._tensors.values():
            if tensor.name == "embeddings" and not self.embeddings.trainable:
                continue
            if tensor.name == "transitions" and self.hyper.output_layer != "crf":
                continue
            out.append(tensor)
        return out

    def task_tensors(self, task: str):
        return (
            self[f"{task}_ctx_w"],
            self[f"{task}_ctx_b"],
            self[f"{task}_ent_w"],
            self[f"{task}_ent_b"],
            self[f"{task}_out"],
        )

    @property
    def transitions(self) -> ParamTensor:
        return self["transitions"]

    def shared_triple(self, triple: tuple) -> tuple:
        """The one tuple this model hands out for a decoded triple, so that
        kept predictions share storage instead of holding a copy each."""
        return self._triples.setdefault(triple, triple)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def tensor_shapes(hyper: HyperParams, n_emb_rows: int):
    """Ordered (name, shape) pairs for every tensor in the model."""
    ls = LabelSpace()
    n = ls.n_classes
    shapes = [
        ("embeddings", (n_emb_rows, hyper.emb_dim)),
        ("ctx_filters", (hyper.nk_c, hyper.ctx_width, hyper.emb_dim)),
        ("ctx_bias", (hyper.nk_c,)),
        ("ent_filters", (hyper.nk_e, hyper.ent_width, hyper.emb_dim)),
        ("ent_bias", (hyper.nk_e,)),
    ]
    for task in TASKS:
        shapes.extend(
            [
                (f"{task}_ctx_w", (hyper.ctx_in(task), hyper.h_c)),
                (f"{task}_ctx_b", (hyper.h_c,)),
                (f"{task}_ent_w", (hyper.ent_in(task), hyper.h_e)),
                (f"{task}_ent_b", (hyper.h_e,)),
                (f"{task}_out", (hyper.h_c + hyper.h_e, n)),
            ]
        )
    shapes.append(("transitions", (ls.size_with_tags, ls.size_with_tags)))
    return shapes


def init_params(hyper: HyperParams, label_space: LabelSpace,
                embeddings: EmbeddingTable, seed: int) -> ModelParams:
    """Deterministic init: scaled-uniform weights, zero biases, zero Q.

    ``label_space`` is always ``LabelSpace()``; it stays a parameter only
    because the benchmark passes it (perfbench/bench_workloads.py:275)."""
    rng = np.random.default_rng(seed)
    dtype = hyper.np_dtype
    if embeddings.dim != hyper.emb_dim:
        raise ValueError(
            f"embedding dim {embeddings.dim} != configured emb_dim {hyper.emb_dim}"
        )
    embeddings.matrix = embeddings.matrix.astype(dtype, copy=False)
    tensors = {}
    for name, shape in tensor_shapes(hyper, embeddings.n_rows):
        if name == "embeddings":
            value = embeddings.matrix
        elif name.endswith(("_bias", "_b")) or name == "transitions":
            value = np.zeros(shape, dtype=dtype)
        elif name.endswith("filters"):
            nk, width, emb = shape
            value = scaled_uniform(rng, shape, width * emb, nk, dtype=dtype)
        else:
            value = scaled_uniform(rng, shape, shape[0], shape[1], dtype=dtype)
        tensors[name] = ParamTensor(name, value)
    return ModelParams(hyper, label_space, embeddings, tensors)


def _cnn_layout(n_tokens: int, parts, width: int):
    """Input rows of one CNN pass over a token sequence (one sentence, or
    several packed end to end), and the conv rows of each part.

    A part (a, b) at least ``width`` tokens long is a row slice of the
    sequence's own narrow conv: conv(tokens[a:b]) == conv(tokens)[a : b-width+1].
    A shorter part, empty ones included, gets its own copy right-padded with
    zero rows to ``width``, appended after the sequence, whose single conv row
    is the zero-padded conv of that part alone. Conv rows that straddle two
    segments are computed but never pooled.

    Returns (token position per input row, -1 for a zero row;
    [start, stop) conv rows per part).
    """
    positions = list(range(n_tokens)) if any(b - a >= width for a, b in parts) else []
    windows = []
    for a, b in parts:
        if b - a >= width:
            windows.append((a, b - width + 1))
            continue
        windows.append((len(positions), len(positions) + 1))
        positions.extend(range(a, b))
        positions.extend([-1] * (width - (b - a)))
    return np.array(positions, dtype=np.intp), windows


def _route(ids, n_rows: int, grad):
    """Sum the rows of grad [len(ids), D] into [n_rows, D] by ``ids``, as one
    product of a 0/1 routing matrix [n_rows, len(ids)] with grad: rows that
    share an id sum."""
    route = np.arange(n_rows)[:, None] == ids
    return route.astype(grad.dtype) @ grad


def _check_finite(values, what: str, params: ModelParams):
    """A RuntimeError naming ``what`` unless every one of ``values`` is
    finite; only a non-finite parameter or an overflow of the model's dtype
    gives a non-finite value."""
    if not np.isfinite(values).all():
        raise RuntimeError(f"non-finite {what}: a model parameter is non-finite or "
                           f"overflows {params.hyper.dtype}")


_CNN_NAMES = {"ctx": "context", "ent": "entity"}


class _CnnPass:
    """One CNN run once over a token sequence, pooled for a list of parts.

    ``features`` holds each span's pooled parts, flattened in part order.
    Gradients on them gather in ``grad_pooled`` until ``backward``. A
    non-finite conv output is a RuntimeError naming the CNN.
    """

    def __init__(self, ids, params: ModelParams, prefix: str, width: int, parts, n_spans: int):
        self.filters = params[f"{prefix}_filters"]
        self.bias = params[f"{prefix}_bias"]
        emb = params["embeddings"].value
        positions, windows = _cnn_layout(len(ids), parts, width)
        padding = positions < 0
        self.row_ids = np.where(padding, -1, ids[positions])
        # row id -1 gathers the last embedding row; the padding rows are zeroed
        self.mat = emb[self.row_ids]
        self.mat[padding] = 0.0
        conv = conv1d(self.mat, self.filters.value, self.bias.value)
        _check_finite(conv, f"{_CNN_NAMES[prefix]} CNN output", params)
        self.conv_rows = conv.shape[0]
        self.pooled, self.sel = kmax_pool(conv, windows, params.hyper.k)
        self.features = self.pooled.reshape(n_spans, -1)
        self.grad_pooled = None

    def gather(self, span_ids):
        """The features of each input's spans [B, S] concatenated: [B, S * D]."""
        return self.features[span_ids].reshape(len(span_ids), -1)

    def project(self, span_ids, w):
        """gather(span_ids) @ w [S * D, H]: [B, H]. When inputs outnumber
        spans, each span's features are multiplied by each D-row block of w
        once and the blocks' rows summed per input."""
        if len(span_ids) <= len(self.features):
            return matvec(w.T, self.gather(span_ids))
        d = self.features.shape[1]
        out = matvec(w[:d].T, self.features)[span_ids[:, 0]]
        for s in range(1, span_ids.shape[1]):
            out += matvec(w[s * d : (s + 1) * d].T, self.features)[span_ids[:, s]]
        return out

    def add_grad(self, span_ids, grad_concat):
        """Add the gradient of features[span_ids] [B, S], flattened per input
        as [B, S * D], to ``grad_pooled``; a span repeated in span_ids gets
        the sum."""
        flat = span_ids.reshape(-1)
        grad = _route(flat, len(self.features), grad_concat.reshape(len(flat), -1))
        grad = grad.reshape(self.pooled.shape)
        if self.grad_pooled is None:
            self.grad_pooled = grad
        else:
            self.grad_pooled += grad

    def backward(self, params: ModelParams):
        """Push the gathered pooled gradient back through pooling, the conv
        and the embedding lookup: one call of each per pass. Writes the
        filter and bias gradients and adds the embedding rows' gradients."""
        grad_conv = kmax_pool_backward(self.grad_pooled, self.sel, self.conv_rows)
        grad_mat, grad_filters, grad_bias = conv1d_backward(grad_conv, self.mat, self.filters.value)
        self.filters.grad[...] = grad_filters
        self.bias.grad[...] = grad_bias
        if params.embeddings.trainable:
            real = self.row_ids >= 0
            np.add.at(params["embeddings"].grad, self.row_ids[real], grad_mat[real])


class SentenceEncoding:
    """Both CNNs run once over sentences packed end to end, pooled for each
    sentence's entity spans.

    ``sentences`` lists (tokens, spans) pairs. Span u = (s, e) of a sentence
    owns three parts of it: the context CNN pools its left context
    tokens[:s] and right context tokens[e:], the entity CNN pools the span
    tokens[s:e]. Features are indexed by span, sentence after sentence. An
    EC input is one span's parts and an RE input a span pair's (left_i,
    mid_i = tokens[e_i:], left_j, right_j; ent_i, ent_j), so every query
    over the sentences reads its features from here. No part spans two
    sentences, so packing them changes no pooled value.
    """

    def __init__(self, sentences, params: ModelParams):
        hyper = params.hyper
        lookup = params.embeddings.lookup
        ids, ctx_parts, ent_parts = [], [], []
        for tokens, spans in sentences:
            lo, hi = len(ids), len(ids) + len(tokens)
            ids += [lookup(tok) for tok in tokens]
            for s, e in spans:
                ctx_parts += ((lo, lo + s), (lo + e, hi))
                ent_parts.append((lo + s, lo + e))
        ids = np.array(ids, dtype=np.intp)
        self.ctx = _CnnPass(ids, params, "ctx", hyper.ctx_width, ctx_parts, len(ent_parts))
        self.ent = _CnnPass(ids, params, "ent", hyper.ent_width, ent_parts, len(ent_parts))

    def backward(self, params: ModelParams):
        """Write both CNNs' gradients from what encode_task_backward routed
        here. The embeddings are the one tensor both CNNs scatter into: their
        gradient is cleared first."""
        if params.embeddings.trainable:
            params["embeddings"].grad[...] = 0.0
        self.ctx.backward(params)
        self.ent.backward(params)


def encode_task(enc: SentenceEncoding, task: str, span_ids, params: ModelParams):
    """Task representations h_z [B, h_c + h_e] for B inputs over the
    sentences of one encoding.

    ``span_ids`` [B, S] indexes spans of ``enc``: one span per EC input, the
    ordered pair (e1, e2) per RE input. The inputs' context parts and entity
    parts are pooled features that ``enc`` holds; each group feeds its tanh
    hidden layer and the two hidden vectors concatenate.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    span_ids = np.asarray(span_ids, dtype=np.intp)
    n_spans = _TASK_SPANS[task]
    if span_ids.ndim != 2 or span_ids.shape[1] != n_spans:
        raise ValueError(f"task {task!r} expects {n_spans} span(s) per input, "
                         f"got span ids of shape {span_ids.shape}")
    ctx_w, ctx_b, ent_w, ent_b, _ = params.task_tensors(task)
    # the weights' stored values, and their scale on the [B, h] products
    h_ctx = np.tanh(ctx_w.scaled(enc.ctx.project(span_ids, ctx_w.stored)) + ctx_b.value)
    h_ent = np.tanh(ent_w.scaled(enc.ent.project(span_ids, ent_w.stored)) + ent_b.value)
    h = np.concatenate([h_ctx, h_ent], axis=1)
    cache = {
        "task": task,
        "enc": enc,
        "span_ids": span_ids,
        "h_ctx": h_ctx,
        "h_ent": h_ent,
    }
    return h, cache


def score_task(h, task: str, params: ModelParams):
    """Linear map from task representations h [B, H] onto the unified label
    space: scores [B, N]."""
    out = params.task_tensors(task)[4]
    return matvec(out.value.T, h)


def encode_task_backward(grad_h, cache, params: ModelParams):
    """Keep the gradients of one encode_task call's hidden layers: each
    weight's as its factors, the call's gathered inputs and pre-activation
    gradient (``ParamTensor.keep_factors``), each bias's in its buffer. The
    pooled-feature gradient goes to the sentence encoding, whose
    ``backward`` finishes the CNNs.

    A hidden layer whose every unit is at +-1 on every input passes no
    gradient to the CNNs; that is a RuntimeError naming the layer.
    """
    task = cache["task"]
    ctx_w, ctx_b, ent_w, ent_b, _ = params.task_tensors(task)
    for group in ("ctx", "ent"):
        if np.abs(cache[f"h_{group}"]).min() == 1.0:
            raise RuntimeError(f"saturated {task} {_CNN_NAMES[group]} hidden layer: every "
                               f"unit is at +-1 on every input, so no gradient passes it")
    h_c = params.hyper.h_c
    grad_pre_ctx = tanh_backward(cache["h_ctx"], grad_h[:, :h_c])
    grad_pre_ent = tanh_backward(cache["h_ent"], grad_h[:, h_c:])
    enc, span_ids = cache["enc"], cache["span_ids"]
    # the inputs' features are gathered again, not kept from the forward,
    # so prediction, which runs no backward, keeps no copy of them
    ctx_w.keep_factors(enc.ctx.gather(span_ids), grad_pre_ctx)
    np.sum(grad_pre_ctx, axis=0, out=ctx_b.grad)
    ent_w.keep_factors(enc.ent.gather(span_ids), grad_pre_ent)
    np.sum(grad_pre_ent, axis=0, out=ent_b.grad)
    enc.ctx.add_grad(span_ids, ctx_w.scaled(grad_pre_ctx) @ ctx_w.stored.T)
    enc.ent.add_grad(span_ids, ent_w.scaled(grad_pre_ent) @ ent_w.stored.T)


def _sentence_spans(queries, offset: int):
    """Sorted entity spans of queries over one sentence, and each query's
    (span_i, span_j) as row indices into them, counted from ``offset``."""
    n_tokens = len(queries[0].sentence.tokens)
    for query in queries:
        check_spans(n_tokens, query.span_i, query.span_j)
    spans = sorted({span for query in queries for span in (query.span_i, query.span_j)})
    row = {span: offset + index for index, span in enumerate(spans)}
    return spans, [(row[q.span_i], row[q.span_j]) for q in queries]


def sentence_groups(queries):
    """Indices of the queries over each sentence, sentences in order of first use."""
    groups = {}
    for index, query in enumerate(queries):
        groups.setdefault(id(query.sentence), []).append(index)
    return list(groups.values())


def forward_sentences(groups, params: ModelParams):
    """Score sequences [B, 3, N] of queries given as one list per sentence
    (rows follow the lists in order), plus the cache backward_query needs.

    The sentences are packed into one encoding; each distinct entity span of
    a sentence gets one EC representation, each query one RE representation.
    """
    packed, pairs, n_spans = [], [], 0
    for queries in groups:
        spans, rows = _sentence_spans(queries, n_spans)
        packed.append((queries[0].sentence.tokens, spans))
        pairs += rows
        n_spans += len(spans)
    pairs = np.array(pairs, dtype=np.intp)
    enc = SentenceEncoding(packed, params)
    h_ec, c_ec = encode_task(enc, "ec", np.arange(n_spans)[:, None], params)
    h_re, c_re = encode_task(enc, "re", pairs, params)
    s_ec = score_task(h_ec, "ec", params)
    s_re = score_task(h_re, "re", params)
    d = np.stack([s_ec[pairs[:, 0]], s_re, s_ec[pairs[:, 1]]], axis=1)
    cache = {"enc": enc, "pairs": pairs, "h": (h_ec, h_re), "tasks": (c_ec, c_re)}
    return d, cache


def forward_query(query: Query, params: ModelParams):
    """Score sequence d (3 x N): EC scores for e1, RE scores, EC scores for e2."""
    d, cache = forward_sentences([[query]], params)
    return d[0], cache


def backward_query(grad_d, cache, params: ModelParams):
    """Push gradients on the score sequences [B, 3, N] of one
    forward_sentences call back into the parameters: one product per layer
    for the whole batch. Writes the gradient of every parameter but the
    transitions, whose gradient the loss gives, replacing what the buffers
    held."""
    if cache is None:
        raise RuntimeError("backward_query called before forward_sentences")
    pairs = cache["pairs"]
    h_ec, h_re = cache["h"]
    # positions 0 and 2 score the pairs' first and second spans, in pairs' order
    grad_ec = _route(pairs.reshape(-1), len(h_ec), grad_d[:, ::2].reshape(-1, grad_d.shape[2]))
    for task, h, grad_scores, task_cache in zip(
        TASKS, (h_ec, h_re), (grad_ec, grad_d[:, 1]), cache["tasks"]
    ):
        out = params.task_tensors(task)[4]
        np.matmul(h.T, grad_scores, out=out.grad)
        encode_task_backward(grad_scores @ out.value.T, task_cache, params)
    cache["enc"].backward(params)


def gold_indices(query: Query):
    unified = LabelSpace().unified
    return unified(query.gold_t1), unified(query.gold_rel), unified(query.gold_t2)


def output_chain(params: ModelParams, masked: bool = False):
    """Transitions and position mask ([3, N] or None) of the output chain.

    The CRF chains its learned transitions, masked only when asked. The
    softmax baseline is the same chain without transition factors: a zero
    matrix, never the stored tensor, and always masked, so each position is
    normalized over its own task's label slice.
    """
    if params.hyper.output_layer == "crf":
        return params.transitions.value, params.position_mask if masked else None
    return params.zero_transitions, params.position_mask


def decode_query(d, params: ModelParams, masked: bool = False):
    """Predicted (t1, r, t2) unified indices for one score sequence [3, N],
    or a list of them for a batch [B, 3, N].

    A non-finite score is a RuntimeError: no triple would be the best.
    """
    _check_finite(d, "scores", params)
    batch = d if d.ndim == 3 else d[None]
    best = crf.viterbi(batch, *output_chain(params, masked))
    triples = [params.shared_triple(tuple(row)) for row in best.tolist()]
    return triples if d.ndim == 3 else triples[0]


def _packs(groups):
    """Runs of consecutive sentence groups of at most PACK_QUERIES queries
    each; a sentence with more queries is a pack of its own."""
    pack, size = [], 0
    for members in groups:
        if pack and size + len(members) > PACK_QUERIES:
            yield pack
            pack, size = [], 0
        pack.append(members)
        size += len(members)
    if pack:
        yield pack


def predict_queries(queries, params: ModelParams, masked: bool = False):
    """Decode a batch of queries into unified (t1, r, t2) index triples.

    Queries are grouped by sentence, and the sentences are packed: each pack
    of at most PACK_QUERIES queries is scored by one forward_sentences call
    and decoded as one batch. A query's prediction depends only on its own
    sentence, so packing changes no pooled feature; a one-sentence call is a
    pack of one.
    """
    preds = [None] * len(queries)
    for pack in _packs(sentence_groups(queries)):
        d, _ = forward_sentences([[queries[i] for i in members] for members in pack], params)
        rows = (index for members in pack for index in members)
        for index, pred in zip(rows, decode_query(d, params, masked)):
            preds[index] = pred
    return preds


# ---------------------------------------------------------------------------
# Checkpointing: manifest.json + params.bin (little-endian IEEE-754 values
# concatenated row-major in manifest order).

MANIFEST_NAME = "manifest.json"
PARAMS_NAME = "params.bin"
_DTYPE_CODES = {"float64": "<f8", "float32": "<f4"}
# the keys save_checkpoint writes, besides the optional "extra", with the JSON
# type of each value that load_checkpoint reads
_MANIFEST_KEYS = {"format": int, "seed": int, "dtype": str, "hyperparams": dict,
                  "ec_labels": list, "re_labels": list, "vocab": list, "unk_row": int,
                  "embeddings_trainable": bool, "tensors": list, "total_bytes": int}
_ENTRY_KEYS = {"name": str, "shape": list, "offset": int}


def save_checkpoint(directory, params: ModelParams, seed: int, extra: dict | None = None):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    hyper = params.hyper
    ls = params.label_space
    code = _DTYPE_CODES[hyper.dtype]
    entries = []
    offset = 0
    # each tensor is written as it is serialized; the payload is never held
    # whole beside the model
    with open(directory / PARAMS_NAME, "wb") as handle:
        for tensor in params.all_tensors():
            entries.append({"name": tensor.name, "shape": list(tensor.shape), "offset": offset})
            offset += handle.write(np.ascontiguousarray(tensor.value, dtype=code).data)
    table = params.embeddings
    manifest = {
        "format": 1,
        "seed": seed,
        "dtype": hyper.dtype,
        "hyperparams": asdict(hyper),
        "ec_labels": list(ls.ec_labels),
        "re_labels": list(ls.re_labels),
        "vocab": [[word, row] for word, row in table.words_in_row_order()],
        "unk_row": table.unk_row,
        "embeddings_trainable": table.trainable,
        "tensors": entries,
        "total_bytes": offset,
    }
    if extra:
        manifest["extra"] = extra
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def _check_keys(path, what, found, required, optional=(), kind="key"):
    """Raise ValueError naming the first required key that ``found`` lacks,
    or else the first key it has that is neither required nor optional, or
    else the first value whose JSON type is not the one ``required`` maps
    its key to (None: any type)."""
    if not isinstance(found, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    missing = [key for key in required if key not in found]
    if missing:
        raise ValueError(f"{path}: {what} lacks {kind} {missing[0]}")
    unknown = [key for key in found if key not in required and key not in optional]
    if unknown:
        raise ValueError(f"{path}: {what} has unknown {kind} {unknown[0]}")
    for key, value_type in required.items():
        if value_type is not None and type(found[key]) is not value_type:
            raise ValueError(f"{path}: {what} {key} is not of type {value_type.__name__}")


def _require(path, ok: bool, what: str):
    """Raise ValueError naming the manifest at ``path`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{path}: {what}")


def load_checkpoint(directory):
    """Load a checkpoint directory; validates the manifest's keys and value
    types, its format and its label set (LabelSpace, the only one), then
    the tensor names and shapes against the model the manifest
    describes and the vocabulary's embedding rows, then that every tensor
    value is finite."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    _check_keys(manifest_path, "manifest", manifest, _MANIFEST_KEYS, optional=("extra",))
    _check_keys(manifest_path, "hyperparams", manifest["hyperparams"],
                {f.name: f.type for f in fields(HyperParams)})
    _require(manifest_path, manifest["format"] == 1,
             f"format {manifest['format']} is not 1, the one format this build reads")
    ls = LabelSpace()
    for key, labels in (("ec_labels", ls.ec_labels), ("re_labels", ls.re_labels)):
        _require(manifest_path, manifest[key] == list(labels),
                 f"{key} {manifest[key]} is not the label set {list(labels)}")
    for entry in manifest["tensors"]:
        _check_keys(manifest_path, "tensor entry", entry, _ENTRY_KEYS)
        _require(manifest_path, entry["offset"] >= 0
                 and all(type(n) is int and n >= 0 for n in entry["shape"]),
                 f"tensor {entry['name']} has a negative offset or size")
    code = _DTYPE_CODES.get(manifest["dtype"])
    if code is None:
        raise ValueError(f"{manifest_path}: unknown dtype {manifest['dtype']}")
    try:
        hyper = HyperParams(**manifest["hyperparams"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: hyperparams: {exc}") from None
    if hyper.dtype != manifest["dtype"]:
        raise ValueError(f"{manifest_path}: dtype {manifest['dtype']} disagrees with "
                         f"hyperparams dtype {hyper.dtype}")
    path = directory / PARAMS_NAME
    size = path.stat().st_size
    if size != manifest["total_bytes"]:
        raise ValueError(
            f"{path}: checkpoint payload is {size} bytes, manifest says {manifest['total_bytes']}"
        )
    entries = {entry["name"]: entry for entry in manifest["tensors"]}
    emb_shape = entries["embeddings"]["shape"] if "embeddings" in entries else []
    n_emb_rows = emb_shape[0] if emb_shape else 0
    expected = dict(tensor_shapes(hyper, n_emb_rows))
    _check_keys(manifest_path, "manifest", entries, dict.fromkeys(expected), kind="tensor")
    for name, shape in expected.items():
        _require(manifest_path, tuple(entries[name]["shape"]) == shape,
                 f"tensor {name} has shape {tuple(entries[name]['shape'])}, "
                 f"manifest/model disagree")
    vocab = {}
    for entry in manifest["vocab"]:
        _require(manifest_path, type(entry) is list and len(entry) == 2 and type(entry[0]) is str
                 and type(entry[1]) is int and 0 <= entry[1] < n_emb_rows,
                 f"vocab entry {entry!r} is not a [word, row] pair of the {n_emb_rows} rows")
        vocab[entry[0]] = entry[1]
    _require(manifest_path, 0 <= manifest["unk_row"] < n_emb_rows,
             f"unk_row {manifest['unk_row']} is outside the {n_emb_rows} embedding rows")
    tensors = {}
    # each tensor is read straight into its own array; the payload is never
    # held whole beside them
    with open(path, "rb") as handle:
        for name, shape in expected.items():
            count = int(np.prod(shape))
            handle.seek(entries[name]["offset"])
            value = np.fromfile(handle, dtype=code, count=count)
            if value.size != count:
                raise ValueError(f"{path}: tensor {name} runs past the end of the payload")
            if not np.isfinite(value).all():
                raise ValueError(f"{path}: tensor {name} holds a non-finite value")
            tensors[name] = ParamTensor(name, value.reshape(shape))
    embeddings = EmbeddingTable(
        hyper.emb_dim,
        vocab,
        tensors["embeddings"].value,
        manifest["unk_row"],
        manifest["embeddings_trainable"],
    )
    params = ModelParams(hyper, ls, embeddings, tensors)
    meta = {"seed": manifest["seed"], "extra": manifest.get("extra")}
    return params, meta
