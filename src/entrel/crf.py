"""Linear-chain CRF over the three-step score sequence.

The chain has exactly three emission steps (entity-1 type, relation,
entity-2 type). Scores live in log space: a path score is the sum of the
transition scores along begin -> y1 -> y2 -> y3 -> end plus the three
emission scores d[i, y_i]. The transition matrix has side N+2 where the two
extra rows/columns are the begin tag (index N) and end tag (index N+1).

All functions are pure given (d, Q) and safe to call concurrently.
"""

import numpy as np

from entrel.kernels import logsumexp, logsumexp_rows

SEQ_LEN = 3
MASK_PENALTY = -1e9  # additive penalty for classes disallowed at a position


def _check_shapes(d: np.ndarray, q: np.ndarray, ndim: int = 2) -> int:
    """Class count N of score sequences d [..., 3, N] with ndim axes."""
    if d.ndim != ndim or d.shape[-2] != SEQ_LEN:
        raise ValueError(f"score sequence must be {SEQ_LEN}xN, got {d.shape}")
    n = d.shape[-1]
    if q.shape != (n + 2, n + 2):
        raise ValueError(
            f"transition matrix must be {(n + 2, n + 2)} for {n} classes, got {q.shape}"
        )
    return n


def _check_labels(y, n: int):
    y = tuple(int(v) for v in y)
    if len(y) != SEQ_LEN or any(v < 0 or v >= n for v in y):
        raise ValueError(f"label sequence {y} out of class range 0..{n - 1}")
    return y


def sequence_score(d: np.ndarray, y, q: np.ndarray) -> float:
    """Score of one label triple: transitions (incl. begin/end) + emissions."""
    n = _check_shapes(d, q)
    y1, y2, y3 = _check_labels(y, n)
    begin, end = n, n + 1
    return float(
        q[begin, y1] + d[0, y1]
        + q[y1, y2] + d[1, y2]
        + q[y2, y3] + d[2, y3]
        + q[y3, end]
    )


def _forward_backward(d: np.ndarray, q: np.ndarray):
    n = d.shape[1]
    begin, end = n, n + 1
    inner = q[:n, :n]
    alpha = np.empty((SEQ_LEN, n), dtype=d.dtype)
    alpha[0] = q[begin, :n] + d[0]
    for i in range(1, SEQ_LEN):
        alpha[i] = logsumexp_rows((alpha[i - 1][:, None] + inner).T) + d[i]
    beta = np.empty((SEQ_LEN, n), dtype=d.dtype)
    beta[SEQ_LEN - 1] = q[:n, end]
    for i in range(SEQ_LEN - 2, -1, -1):
        beta[i] = logsumexp_rows(inner + d[i + 1] + beta[i + 1])
    log_z = logsumexp(alpha[SEQ_LEN - 1] + beta[SEQ_LEN - 1])
    return alpha, beta, log_z


def nll_and_gradients(d: np.ndarray, q: np.ndarray, gold, allowed: np.ndarray | None = None):
    """Negative log-likelihood of the gold triple plus exact gradients.

    Returns (loss, grad_d, grad_q) with loss = logZ - score(gold),
    grad_d[i, c] = P(y_i = c) - [gold_i = c] and grad_q = expected minus
    observed transition counts, begin/end transitions included. With an
    ``allowed`` mask [3, N] the classes it forbids are penalized as in
    ``viterbi``; a gold triple the mask forbids is a ValueError.
    """
    n = _check_shapes(d, q)
    y1, y2, y3 = _check_labels(gold, n)
    if allowed is not None:
        d = apply_position_mask(d, allowed)
        if not allowed[np.arange(SEQ_LEN), (y1, y2, y3)].all():
            raise ValueError(f"gold triple {(y1, y2, y3)} is outside the position mask")
    begin, end = n, n + 1
    inner = q[:n, :n]
    alpha, beta, log_z = _forward_backward(d, q)
    marg = np.exp(alpha + beta - log_z)

    grad_d = marg.copy()
    grad_d[0, y1] -= 1.0
    grad_d[1, y2] -= 1.0
    grad_d[2, y3] -= 1.0

    grad_q = np.zeros_like(q)
    for i in range(SEQ_LEN - 1):
        pair = np.exp(
            alpha[i][:, None] + inner + d[i + 1][None, :] + beta[i + 1][None, :] - log_z
        )
        grad_q[:n, :n] += pair
    grad_q[y1, y2] -= 1.0
    grad_q[y2, y3] -= 1.0
    grad_q[begin, :n] += marg[0]
    grad_q[begin, y1] -= 1.0
    grad_q[:n, end] += marg[SEQ_LEN - 1]
    grad_q[y3, end] -= 1.0

    loss = log_z - sequence_score(d, (y1, y2, y3), q)
    return loss, grad_d, grad_q


def apply_position_mask(d: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Additively penalize disallowed classes per position (finite, not -inf).

    d is one score sequence [3, N] or a batch [B, 3, N]; allowed is [3, N].
    """
    if allowed.shape != d.shape[-2:]:
        raise ValueError(f"mask shape {allowed.shape} != scores shape {d.shape}")
    return np.where(allowed, d, d + MASK_PENALTY)


def viterbi(d: np.ndarray, q: np.ndarray, allowed: np.ndarray | None = None):
    """Highest-scoring label triple and its score.

    d is one score sequence [3, N], giving ((y1, y2, y3), score), or a batch
    [B, 3, N], giving (best [B, 3] ints, scores [B]); each batch row decodes
    exactly as it would alone. Ties resolve to the lowest class index at the
    earliest differing position (the lexicographically smallest optimal
    sequence), which is what a first-occurrence argmax over the full
    enumeration returns.
    """
    single = d.ndim == 2
    batch = d[None] if single else d
    n = _check_shapes(batch, q, ndim=3)
    if allowed is not None:
        batch = apply_position_mask(batch, allowed)
    begin, end = n, n + 1
    inner = q[:n, :n]
    # suffix DP so the earliest position is decided first; np.argmax takes
    # the first (lowest-index) maximum
    gamma = batch[:, SEQ_LEN - 1] + q[:n, end]
    backptr = []
    for i in range(SEQ_LEN - 2, -1, -1):
        cand = inner + gamma[:, None, :]
        backptr.append(np.argmax(cand, axis=2))
        gamma = batch[:, i] + cand.max(axis=2)
    backptr.reverse()
    first = q[begin, :n] + gamma
    rows = np.arange(len(batch))
    y1 = np.argmax(first, axis=1)
    y2 = backptr[0][rows, y1]
    y3 = backptr[1][rows, y2]
    best = np.stack([y1, y2, y3], axis=1)
    scores = first[rows, y1]
    if single:
        return tuple(int(v) for v in best[0]), float(scores[0])
    return best, scores
