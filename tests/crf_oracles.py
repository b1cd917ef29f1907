"""Brute-force CRF oracles: every label triple scored explicitly.

They are the reference the CRF tests compare the loss, marginals and
Viterbi against. ``sequence_score`` adds one path's terms one by one, and
the enumeration builds its cube from per-step terms in its own order, so
neither shares code with entrel.crf.
"""

import itertools

import numpy as np

from entrel.crf import SEQ_LEN
from entrel.kernels import logsumexp_rows

ENUMERATION_LIMIT = 32  # the oracles refuse larger class spaces


def sequence_score(d: np.ndarray, y, q: np.ndarray) -> float:
    """Score of one label triple, term by term: begin transition, then each
    emission and the transition after it."""
    n = d.shape[1]
    begin, end = n, n + 1
    y1, y2, y3 = y
    return float(
        q[begin, y1] + d[0, y1]
        + q[y1, y2] + d[1, y2]
        + q[y2, y3] + d[2, y3]
        + q[y3, end]
    )


def _logsumexp(scores: np.ndarray) -> float:
    return float(logsumexp_rows(scores.reshape(1, -1))[0])


def enumerate_scores(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Explicit score of every label triple as an [N, N, N] array.

    C-order flattening enumerates triples lexicographically, so a
    first-occurrence argmax over the flat array matches viterbi's
    tie-breaking. Refuses class spaces too large to enumerate.
    """
    n = d.shape[1]
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle refuses N={n} > {ENUMERATION_LIMIT}")
    begin, end = n, n + 1
    inner = q[:n, :n]
    first = q[begin, :n] + d[0]
    return (
        first[:, None, None]
        + inner[:, :, None]
        + d[1][None, :, None]
        + inner[None, :, :]
        + d[2][None, None, :]
        + q[:n, end][None, None, :]
    )


def brute_force_logZ(d: np.ndarray, q: np.ndarray) -> float:
    """Oracle log-partition: logsumexp over the explicit enumeration."""
    return _logsumexp(enumerate_scores(d, q))


def brute_force_best(d: np.ndarray, q: np.ndarray):
    """Oracle argmax: best triple by explicit enumeration, lexicographic ties."""
    scores = enumerate_scores(d, q)
    flat = int(np.argmax(scores))
    best = np.unravel_index(flat, scores.shape)
    return tuple(int(v) for v in best), float(scores[best])


def brute_force_marginals(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Oracle marginals by summing exp(score - logZ) over enumerated paths."""
    n = d.shape[1]
    scores = enumerate_scores(d, q)
    log_z = _logsumexp(scores)
    probs = np.exp(scores - log_z)
    out = np.zeros((SEQ_LEN, n), dtype=d.dtype)
    for y in itertools.product(range(n), repeat=SEQ_LEN):
        for i in range(SEQ_LEN):
            out[i, y[i]] += probs[y]
    return out
