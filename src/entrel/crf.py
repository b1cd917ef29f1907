"""Linear-chain CRF over the three-step score sequence.

The chain has exactly three emission steps (entity-1 type, relation,
entity-2 type). Scores live in log space: a path score is the sum of the
transition scores along begin -> y1 -> y2 -> y3 -> end plus the three
emission scores d[i, y_i]. The transition matrix has side N+2 where the two
extra rows/columns are the begin tag (index N) and end tag (index N+1).

Every function takes a batch of score sequences d [B, 3, N] (B = 1 for one
sequence) and treats each row as it would alone. The loss, its gradients and
decoding all read the score of every path, an [N, N, N] cube per row.
SEQ_LEN is 3 and model.load_checkpoint loads only checkpoints over the
11-class unified label space, so the cube holds 11^3 = 1,331 paths.

All functions are pure given (d, Q) and safe to call concurrently.
"""

import numpy as np

from entrel.kernels import logsumexp_rows

SEQ_LEN = 3
MASK_PENALTY = -1e9  # additive penalty for classes disallowed at a position


def _check_batch(d: np.ndarray, q: np.ndarray) -> int:
    """Class count N of a batch of score sequences d [B, 3, N] that the
    transition matrix q [N+2, N+2] fits; any other shape is a ValueError."""
    if d.ndim != 3 or d.shape[1] != SEQ_LEN:
        raise ValueError(f"score sequences must be Bx{SEQ_LEN}xN, got {d.shape}")
    n = d.shape[2]
    if q.shape != (n + 2, n + 2):
        raise ValueError(
            f"transition matrix must be {(n + 2, n + 2)} for {n} classes, got {q.shape}"
        )
    return n


def _check_labels(gold, n: int, rows: int) -> np.ndarray:
    """Gold label triples as ints [rows, 3] in class range."""
    y = np.asarray(gold, dtype=np.intp)
    if y.shape != (rows, SEQ_LEN) or (y < 0).any() or (y >= n).any():
        raise ValueError(f"label sequence {np.asarray(gold).tolist()} out of class "
                         f"range 0..{n - 1}")
    return y


def _path_scores(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Score of every label triple: [..., N, N, N] for d [..., 3, N], entry
    [..., a, b, c] scoring begin -> a -> b -> c -> end. Terms are added from
    the end of the chain back, as a suffix max-sum recursion adds them."""
    n = d.shape[-1]
    inner = q[:n, :n]
    tail = d[..., 1, :, None] + (inner + (d[..., 2, :] + q[:n, n + 1])[..., None, :])
    scores = inner[:, :, None] + tail[..., None, :, :]
    scores += d[..., 0, :, None, None]  # in place: one cube-sized array per call
    scores += q[n, :n, None, None]
    return scores


def nll_and_gradients(d: np.ndarray, q: np.ndarray, gold, allowed: np.ndarray | None = None):
    """Negative log-likelihood of each gold triple plus exact gradients.

    For score sequences d [B, 3, N] and gold triples [B, 3], gives (losses
    [B], grad_d [B, 3, N], grad_q [N+2, N+2]). Row b's loss is logZ_b -
    score_b(gold_b) and grad_d[b, i, c] = P(y_i = c) - [gold_b,i = c];
    grad_q = expected minus observed transition counts, begin/end
    transitions included, summed over the batch. With an ``allowed`` mask
    [3, N] the classes it forbids are penalized as in ``viterbi``; a gold
    triple the mask forbids is a ValueError.
    """
    n = _check_batch(d, q)
    gold = _check_labels(gold, n, len(d))
    if allowed is not None:
        d = apply_position_mask(d, allowed)
        outside = ~allowed[np.arange(SEQ_LEN), gold].all(axis=1)
        if outside.any():
            triple = tuple(gold[outside][0].tolist())
            raise ValueError(f"gold triple {triple} is outside the position mask")
    y1, y2, y3 = gold.T
    rows = np.arange(len(d))
    begin, end = n, n + 1
    scores = _path_scores(d, q)
    log_z = logsumexp_rows(scores.reshape(len(d), -1))
    probs = np.exp(scores - log_z[:, None, None, None])
    pair_12 = probs.sum(axis=3)  # P(y1, y2)
    pair_23 = probs.sum(axis=1)  # P(y2, y3)
    first, last = pair_12.sum(axis=2), pair_23.sum(axis=1)

    grad_d = np.stack([first, pair_12.sum(axis=1), last], axis=1)
    grad_d[rows, 0, y1] -= 1.0
    grad_d[rows, 1, y2] -= 1.0
    grad_d[rows, 2, y3] -= 1.0

    grad_q = np.zeros_like(q)
    grad_q[:n, :n] = (pair_12 + pair_23).sum(axis=0)
    grad_q[begin, :n] = first.sum(axis=0)
    grad_q[:n, end] = last.sum(axis=0)
    for source, target in ((y1, y2), (y2, y3), (begin, y1), (y3, end)):
        np.subtract.at(grad_q, (source, target), 1.0)

    return log_z - scores[rows, y1, y2, y3], grad_d, grad_q


def apply_position_mask(d: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Additively penalize disallowed classes per position (finite, not -inf):
    allowed [3, N] applies to every row of the batch d [B, 3, N]."""
    if allowed.shape != d.shape[1:]:
        raise ValueError(f"mask shape {allowed.shape} != scores shape {d.shape}")
    return np.where(allowed, d, d + MASK_PENALTY)


def viterbi(d: np.ndarray, q: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """Highest-scoring label triple of each score sequence: best [B, 3] ints
    for d [B, 3, N].

    Ties resolve to the lowest class index at the earliest differing
    position (the lexicographically smallest optimal sequence): C order
    lists the triples of the path-score cube lexicographically, and argmax
    takes the first maximum.
    """
    n = _check_batch(d, q)
    if allowed is not None:
        d = apply_position_mask(d, allowed)
    index = np.argmax(_path_scores(d, q).reshape(len(d), -1), axis=1)
    # the flat index of triple (a, b, c) is a * N^2 + b * N + c
    return index[:, None] // np.array([n * n, n, 1]) % n
