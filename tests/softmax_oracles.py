"""Per-slice softmax oracles for the locally normalized output layer.

The baseline normalizes each position of the score sequence over its own
task's label slice (entity classes at positions 0 and 2, relation classes
at position 1). These oracles compute that directly, one slice at a time,
so they share no recursion with entrel.crf, whose chain without
transitions is what the package runs.
"""

import numpy as np


def task_slices(label_space):
    """[lo, hi) unified-index range of the label slice at each position."""
    n_ec = label_space.n_ec
    return [(0, n_ec), (n_ec, label_space.n_classes), (0, n_ec)]


def slice_softmax(xs: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-D score vector."""
    e = np.exp(xs - xs.max())
    return e / e.sum()


def softmax_loss_and_grad(d: np.ndarray, label_space, gold):
    """Sum of the three slice cross-entropies and its gradient on d."""
    grad_d = np.zeros_like(d)
    loss = 0.0
    for row, ((lo, hi), target) in enumerate(zip(task_slices(label_space), gold)):
        if not lo <= target < hi:
            raise ValueError(f"gold index {target} outside task slice [{lo},{hi})")
        probs = slice_softmax(d[row, lo:hi])
        loss -= float(np.log(probs[target - lo]))
        grad_d[row, lo:hi] = probs
        grad_d[row, target] -= 1.0
    return loss, grad_d


def softmax_decode(d: np.ndarray, label_space):
    """Each position's first-occurrence argmax within its task slice."""
    return tuple(lo + int(np.argmax(d[row, lo:hi]))
                 for row, (lo, hi) in enumerate(task_slices(label_space)))
