"""Per-column k-max pooling reference for ``kernels.kmax_pool``.

The kernel copies short windows and sorts longer ones in groups of equal
length. This reference pools every window the same way, one column at a
time in plain Python, so it shares no indexing with the package.
"""

import numpy as np


def kmax_pool_oracle(conv: np.ndarray, windows, k: int):
    """(pooled [P, k, nk], sel [P, k, nk]) of each [start, stop) row window
    of conv [rows, nk]: per column, the window's rows sorted by (-value,
    row), the first k kept and put back in row order, then zeros in pooled
    and -1 in sel for the slots left over."""
    nk = conv.shape[1]
    pooled = np.zeros((len(windows), k, nk), dtype=conv.dtype)
    sel = np.full((len(windows), k, nk), -1, dtype=np.intp)
    for index, (start, stop) in enumerate(windows):
        for col in range(nk):
            rows = sorted(range(start, stop), key=lambda row: (-float(conv[row, col]), row))
            for slot, row in enumerate(sorted(rows[:k])):
                pooled[index, slot, col] = conv[row, col]
                sel[index, slot, col] = row
    return pooled, sel
