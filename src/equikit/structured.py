"""Toeplitz / BTTB / circulant weight parameterizations and their counts."""

import numpy as np


def toeplitz(n, params):
    """n x n matrix with A[i, j] = params[i - j + n - 1] (2n-1 values)."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (2 * n - 1,):
        raise ValueError(f"toeplitz({n}) needs {2 * n - 1} parameters, got {params.shape}")
    idx = np.arange(n)
    return params[idx[:, None] - idx[None, :] + n - 1]


def bttb(m1, m2, params):
    """Block-Toeplitz matrix with Toeplitz blocks, (m1*m2) x (m1*m2).

    ``params`` has length (2*m1-1)*(2*m2-1); block (I, J) is the m2 x m2
    Toeplitz matrix built from the parameter slice indexed by I - J.
    """
    params = np.asarray(params, dtype=np.float64)
    want = (2 * m1 - 1) * (2 * m2 - 1)
    if params.shape != (want,):
        raise ValueError(f"bttb({m1}, {m2}) needs {want} parameters, got {params.shape}")
    slices = params.reshape(2 * m1 - 1, 2 * m2 - 1)
    n = m1 * m2
    a = np.empty((n, n))
    for bi in range(m1):
        for bj in range(m1):
            block = toeplitz(m2, slices[bi - bj + m1 - 1])
            a[bi * m2:(bi + 1) * m2, bj * m2:(bj + 1) * m2] = block
    return a


def circulant(n, params):
    """n x n matrix with A[i, j] = params[(i - j) mod n] (wraparound)."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (n,):
        raise ValueError(f"circulant({n}) needs {n} parameters, got {params.shape}")
    idx = np.arange(n)
    return params[(idx[:, None] - idx[None, :]) % n]


def circulant_basis(n):
    """The n unit-parameter circulants, shape (n, n, n)."""
    return np.stack([circulant(n, np.eye(n)[i]) for i in range(n)])


def param_count(kind, k, n=None, m1=None, m2=None):
    """Free-parameter count of a k-layer constant-width stack.

    dense: k*n^2 + (k-1)*n; toeplitz: k*(2n-1) + (k-1)*n;
    bttb: k*(2*m1-1)*(2*m2-1) + (k-1)*m1*m2 (width n = m1*m2).
    The (k-1)*width term is the biases; the last layer carries none.
    ``k`` and any given ``n``, ``m1`` or ``m2`` must be >= 1.
    """
    if k < 1:
        raise ValueError("layer count k must be >= 1")
    bad = [f"{name}={w}" for name, w in (("n", n), ("m1", m1), ("m2", m2))
           if w is not None and w < 1]
    if bad:
        raise ValueError(f"widths must be >= 1, got {', '.join(bad)}")
    if kind == "dense":
        if n is None:
            raise ValueError("dense count needs n")
        return k * n * n + (k - 1) * n
    if kind == "toeplitz":
        if n is None:
            raise ValueError("toeplitz count needs n")
        return k * (2 * n - 1) + (k - 1) * n
    if kind == "bttb":
        if m1 is None or m2 is None:
            raise ValueError("bttb count needs m1 and m2")
        if n is not None and n != m1 * m2:
            raise ValueError(f"bttb width must satisfy n = m1*m2, got n={n}")
        return k * (2 * m1 - 1) * (2 * m2 - 1) + (k - 1) * m1 * m2
    raise ValueError(f"unknown structure kind {kind!r}")
