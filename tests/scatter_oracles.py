"""Scatter-add oracles for the backward's gradient routing.

The backward sums gradients that several inputs send to one row with a 0/1
routing product (``model._route``) and a single flat scatter
(``kernels.kmax_pool_backward``). These oracles do the same sums with
``np.add.at`` on the unflattened indices, one item at a time, so they share
no indexing with the package.
"""

import numpy as np


def route_oracle(ids, n_rows: int, grad: np.ndarray) -> np.ndarray:
    """grad [len(ids), D] summed into [n_rows, D] by row id."""
    out = np.zeros((n_rows, grad.shape[1]), dtype=grad.dtype)
    np.add.at(out, ids, grad)
    return out


def kmax_pool_backward_oracle(grad_out: np.ndarray, sel: np.ndarray,
                              input_rows: int) -> np.ndarray:
    """Each pooled slot's gradient added to the input row it selected
    (none for a padded slot, sel -1), item by item and column by column."""
    nk = grad_out.shape[-1]
    out = np.zeros((input_rows, nk), dtype=grad_out.dtype)
    items_sel = sel.reshape(-1, *sel.shape[-2:])
    items_grad = grad_out.reshape(items_sel.shape)
    for item_sel, item_grad in zip(items_sel, items_grad):
        for col in range(nk):
            valid = item_sel[:, col] >= 0
            np.add.at(out[:, col], item_sel[valid, col], item_grad[valid, col])
    return out
