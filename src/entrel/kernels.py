"""Dense numeric kernels with paired backward passes.

All functions operate on plain numpy arrays and are pure: forward ops take
inputs and return outputs, backward ops take the upstream gradient plus the
values recorded at forward time and return input gradients, never adding
into a caller's buffer. Callers own the bookkeeping of which forward values
feed which backward call (see ``model.forward_sentences`` /
``model.backward_query``, which run each kernel once for a whole mini-batch
and write each parameter's gradient once per batch).

Every kernel computes in the dtype of its inputs and returns that dtype.
The tuned models (``HyperParams.defaults_for``) train and predict in
float32; gradient checks run on float64 models, whose finite differences
float32 rounding would swamp.
"""

import math

import numpy as np


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m [rows, cols] times each vector of a batch x [B, cols], with explicit
    shape validation: [B, rows], row b being m @ x[b]."""
    if m.ndim != 2 or x.ndim != 2 or m.shape[1] != x.shape[1]:
        raise ValueError(
            f"matvec shape mismatch: matrix {m.shape} vs vectors {x.shape}"
        )
    return x @ m.T


def _im2col(seq: np.ndarray, width: int) -> np.ndarray:
    """[L, emb] -> [L-w+1, w*emb]: row t holds seq[t], ..., seq[t+w-1]."""
    steps = seq.shape[0] - width + 1
    return np.concatenate([seq[i : i + steps] for i in range(width)], axis=1)


def conv1d(seq: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid (narrow) 1-D convolution over a token-embedding sequence.

    seq: [L, emb], filters: [nk, w, emb], bias: [nk] -> out: [L-w+1, nk]
    with out[t, f] = bias[f] + sum_{i<w, e} seq[t+i, e] * filters[f, i, e].

    The caller must pad short sequences first; L < w is an internal error.
    """
    length, emb = seq.shape
    nk, width, femb = filters.shape
    if femb != emb:
        raise ValueError(f"conv1d embedding mismatch: seq {emb} vs filters {femb}")
    if length < width:
        raise ValueError(
            f"conv1d: sequence length {length} < filter width {width} "
            "(padding must prevent this)"
        )
    # one matrix product over the unrolled windows
    return _im2col(seq, width) @ filters.reshape(nk, width * emb).T + bias


def conv1d_backward(grad_out: np.ndarray, seq: np.ndarray, filters: np.ndarray):
    """Gradients of conv1d w.r.t. (seq, filters, bias) given upstream grad_out."""
    nk, width, emb = filters.shape
    steps = grad_out.shape[0]
    grad_bias = grad_out.sum(axis=0)
    grad_filters = (grad_out.T @ _im2col(seq, width)).reshape(nk, width, emb)
    grad_seq = np.zeros_like(seq)
    for i in range(width):
        grad_seq[i : i + steps] += grad_out @ filters[:, i, :]
    return grad_seq, grad_filters, grad_bias


def kmax_pool(conv: np.ndarray, windows, k: int):
    """Per-column k-max pooling of row windows, preserving row order.

    conv is [rows, nk] and windows lists [start, stop) row ranges of it,
    which may overlap. Returns (pooled [P, k, nk], sel [P, k, nk]): sel holds
    the conv row selected for each slot, -1 for a zero-padded slot. A window
    of at most k rows keeps every row, so it is copied, with zeros and -1 in
    the slots past its rows. Longer windows are grouped by length and sorted
    once per length; ties select the earlier row.
    """
    if k < 1:
        raise ValueError(f"kmax_pool: k must be >= 1, got {k}")
    shape = (len(windows), k, conv.shape[1])
    pooled = np.zeros(shape, dtype=conv.dtype)
    sel = np.full(shape, -1, dtype=np.intp)
    conv_rows = np.arange(len(conv))[:, None]
    groups = {}
    for index, (start, stop) in enumerate(windows):
        if stop - start <= k:
            pooled[index, : stop - start] = conv[start:stop]
            sel[index, : stop - start] = conv_rows[start:stop]
        else:
            groups.setdefault(stop - start, []).append(index)
    for length, members in groups.items():
        starts = np.array([windows[index][0] for index in members], dtype=np.intp)
        rows = starts[:, None] + np.arange(length)
        seqs = conv[rows]
        # stable sort on negated values: equal values keep the earlier row
        top = np.argsort(-seqs, axis=1, kind="stable")[:, :k]
        top.sort(axis=1)
        pooled[members] = np.take_along_axis(seqs, top, axis=1)
        sel[members] = top + rows[:, :1, None]
    return pooled, sel


def kmax_pool_backward(grad_out: np.ndarray, sel: np.ndarray, input_rows: int) -> np.ndarray:
    """Route pooled gradients back to the selected input rows, zero elsewhere.

    grad_out and sel are [P, k, nk], sel in input rows as ``kmax_pool``
    returns it; a row that several windows select gets their sum. One
    scatter on the flat index sel * nk + column: a zero-padded slot (sel -1)
    lands in a spare row after the input's, which the result leaves out.
    """
    nk = grad_out.shape[-1]
    index = sel * nk
    index += np.arange(nk)
    grad_seq = np.zeros((input_rows + 1) * nk, dtype=grad_out.dtype)
    np.add.at(grad_seq, index.reshape(-1), grad_out.reshape(-1))
    return grad_seq.reshape(input_rows + 1, nk)[:input_rows]


def logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    """Max-shifted log(sum(exp(row))) per row of a 2-D array; an empty row is a
    ValueError. The CRF's log-partition is one row: its flat path-score cube."""
    m = mat.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(mat - m).sum(axis=1, keepdims=True)))[:, 0]


def tanh_backward(h: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient through tanh given its *output* h: (1 - h^2) * grad."""
    return (1.0 - h * h) * grad


# values per float64 block of scaled_uniform: a 512 KB draw buffer
DRAW_CHUNK = 1 << 16


def scaled_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float64):
    """Symmetric uniform init with bound sqrt(6 / (fan_in + fan_out)).

    The float64 draws go into the result DRAW_CHUNK values at a time, so no
    float64 copy of a whole tensor is made. Each value takes one draw in
    order, so the values and the generator's position afterwards are those
    of one ``rng.uniform(...).astype(dtype)`` call.
    """
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, flat.size)
        flat[start:stop] = rng.uniform(-bound, bound, size=stop - start)
    return out


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Scaled max-abs discrepancy used by every gradient check.

    The denominator is floored at 1 so that tensors whose gradients are
    legitimately tiny (or structurally zero) do not blow the ratio up on
    float rounding noise.
    """
    num = float(np.max(np.abs(a - b))) if a.size else 0.0
    den = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0,
              float(np.max(np.abs(b))) if b.size else 0.0)
    return num / den


class ParamTensor:
    """A model tensor W and the gradient training last computed for it.

    W is held as ``scale * stored``. ``value`` returns W: a scale other than
    1 is first multiplied into ``stored`` in place (``fold``). Only
    ``training.sgd_step`` sets a scale other than 1, on the tensors whose
    gradient is held as factors, and the hot paths that read ``stored``
    and ``scale`` directly apply it to their small products (``scaled``).

    The gradient is held in one of two forms. A dense buffer is made,
    zeroed and of the value's shape and dtype, the first time ``grad`` is
    read, and each training backward overwrites it. A hidden-layer weight
    instead keeps the two factors of its batch gradient X.T @ G
    (``keep_factors``): the gathered inputs X [B, in] and the pre-activation
    gradient G [B, out]. Reading ``grad`` of such a tensor makes that
    product, once per backward. ``del tensor.grad`` frees either form.
    Training holds a gradient from an epoch's first backward until the
    epoch's batch loop ends, so a model that only predicts, a model between
    epochs, or a tensor that training never steps (frozen embeddings, the
    softmax baseline's transitions), holds none.
    """

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.stored = value
        self.scale = 1.0
        self.factors = None
        self._grad = None

    @property
    def value(self) -> np.ndarray:
        self.fold()
        return self.stored

    def fold(self, below: float = math.inf):
        """Multiply a scale other than 1 into the stored values, W = stored,
        when its magnitude is below ``below``."""
        if self.scale != 1.0 and abs(self.scale) < below:
            self.stored *= self.scale
            self.scale = 1.0

    def scaled(self, product: np.ndarray) -> np.ndarray:
        """A product with ``stored`` made one with W: times the scale, or the
        product itself while the scale is 1."""
        return product if self.scale == 1.0 else product * self.scale

    def keep_factors(self, x: np.ndarray, g: np.ndarray):
        """Hold the gradient as x.T @ g, x [B, in] and g [B, out], in place
        of a buffer; a buffer that an earlier ``grad`` read made goes."""
        self.factors = (x, g)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            if self.factors is None:
                self._grad = np.zeros_like(self.stored)
            else:
                x, g = self.factors
                self._grad = np.matmul(x.T, g)
        return self._grad

    @grad.deleter
    def grad(self):
        self._grad = None
        self.factors = None

    @property
    def shape(self):
        return self.stored.shape
