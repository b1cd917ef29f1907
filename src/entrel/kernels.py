"""Dense numeric kernels with paired backward passes.

All functions operate on plain numpy arrays and are pure: forward ops take
inputs and return outputs, backward ops take the upstream gradient plus the
values recorded at forward time and return input gradients. Callers own the
bookkeeping of which forward values feed which backward call (see
``model.forward_sentences`` / ``model.backward_query``, which run each
kernel once for a whole mini-batch).

Every kernel computes in the dtype of its inputs and returns that dtype.
The tuned models (``HyperParams.defaults_for``) train and predict in
float32; gradient checks run on float64 models, whose finite differences
float32 rounding would swamp.
"""

from dataclasses import dataclass, field

import numpy as np


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product with explicit shape validation.

    x is one vector [cols] (giving [rows]) or a batch of vectors [B, cols]
    (giving [B, rows], row b being m @ x[b]).
    """
    m = np.asarray(m)
    x = np.asarray(x)
    if m.ndim != 2 or x.ndim not in (1, 2) or m.shape[1] != x.shape[-1]:
        raise ValueError(
            f"matvec shape mismatch: matrix {m.shape} vs vector {x.shape}"
        )
    return m @ x if x.ndim == 1 else x @ m.T


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


def kmax_pool(seq: np.ndarray, k: int):
    """Per-column k-max pooling preserving original sequence order.

    seq is [rows, nk], or a batch [..., rows, nk] pooled item by item.
    Returns (out [..., k, nk], sel [..., k, nk]) where sel holds the selected
    row index per slot, or -1 for zero-padded slots (used when the input has
    fewer than k rows). Ties select the earlier index.
    """
    if k < 1:
        raise ValueError(f"kmax_pool: k must be >= 1, got {k}")
    rows, nk = seq.shape[-2:]
    if rows <= k:
        out = np.zeros(seq.shape[:-2] + (k, nk), dtype=seq.dtype)
        out[..., :rows, :] = seq
        sel = np.full(out.shape, -1, dtype=np.intp)
        sel[..., :rows, :] = np.arange(rows)[:, None]
        return out, sel
    # stable sort on negated values: equal values keep the earlier index
    top = np.argsort(-seq, axis=-2, kind="stable")[..., :k, :]
    sel = np.sort(top, axis=-2)
    return np.take_along_axis(seq, sel, axis=-2), sel


def kmax_pool_backward(grad_out: np.ndarray, sel: np.ndarray, input_rows: int) -> np.ndarray:
    """Route pooled gradients back to the selected input rows, zero elsewhere.

    grad_out and sel are [..., k, nk]; every leading item routes into the
    same [input_rows, nk] gradient, so sel of a batch indexes one shared
    input.
    """
    nk = grad_out.shape[-1]
    grad_seq = np.zeros((input_rows, nk), dtype=grad_out.dtype)
    valid = sel >= 0
    cols = np.broadcast_to(np.arange(nk), sel.shape)
    np.add.at(
        grad_seq,
        (np.where(valid, sel, 0), cols),
        np.where(valid, grad_out, 0.0),
    )
    return grad_seq


def logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    """Max-shifted log(sum(exp(row))) per row of a 2-D array; an empty row is a
    ValueError. The CRF's log-partition is one row: its flat path-score cube."""
    m = mat.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(mat - m).sum(axis=1, keepdims=True)))[:, 0]


def tanh_backward(h: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient through tanh given its *output* h: (1 - h^2) * grad."""
    return (1.0 - h * h) * grad


def scaled_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float64):
    """Symmetric uniform init with bound sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Scaled max-abs discrepancy used by every gradient check.

    The denominator is floored at 1 so that tensors whose gradients are
    legitimately tiny (or structurally zero) do not blow the ratio up on
    float rounding noise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = float(np.max(np.abs(a - b))) if a.size else 0.0
    den = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0,
              float(np.max(np.abs(b))) if b.size else 0.0)
    return num / den


@dataclass
class ParamTensor:
    """A trainable tensor paired with its gradient accumulation buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape:
            raise ValueError(
                f"{self.name}: grad shape {self.grad.shape} != value shape {self.value.shape}"
            )

    def zero_grad(self):
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape
