"""Hot numeric kernels: forward elimination and modified Gram-Schmidt.

These two loops dominate runtime. Both are plain float64 numpy with a
fixed order of operations, so results are deterministic.
"""

import numpy as np

# There is one kernel path, plain numpy; benchmark records read this flag
# to name it.
USE_NUMBA = False


def row_echelon(a, pivot_tol):
    """Forward elimination with partial pivoting, in place.

    ``a`` must be a C-contiguous float64 matrix; it is overwritten with
    the row-echelon form. A column is accepted as a pivot only if the
    largest remaining entry exceeds ``pivot_tol`` (an absolute
    threshold, fixed by the caller from the initial matrix scale).

    Returns ``(pivot_cols, rank)``.
    """
    m, n = a.shape
    pivots = np.empty(min(m, n), dtype=np.int64)
    rank = 0
    for c in range(n):
        if rank == m:
            break
        p = rank + np.argmax(np.abs(a[rank:, c]))
        if np.abs(a[p, c]) <= pivot_tol:
            continue
        if p != rank:
            tmp = a[rank, :].copy()
            a[rank, :] = a[p, :]
            a[p, :] = tmp
        f = a[rank + 1:, c] / a[rank, c]
        a[rank + 1:, c + 1:] -= f.reshape(-1, 1) * a[rank:rank + 1, c + 1:]
        a[rank + 1:, c] = 0.0
        pivots[rank] = c
        rank += 1
    return pivots[:rank].copy(), rank


def orthonormal_rows(vt, drop_tol):
    """Modified Gram-Schmidt over the rows of ``vt``, two passes per row.

    Rows are processed in order; a row whose residual norm after
    projection falls at or below ``drop_tol`` is dropped. Returns
    ``(q, kept)`` where the first ``kept`` rows of ``q`` are orthonormal.
    """
    q = np.empty_like(vt)
    kept = 0
    for j in range(vt.shape[0]):
        w = vt[j].copy()
        for _ in range(2):
            for i in range(kept):
                w -= np.dot(q[i], w) * q[i]
        nrm = np.sqrt(np.dot(w, w))
        if nrm > drop_tol:
            q[kept] = w / nrm
            kept += 1
    return q[:kept].copy(), kept
