"""Minimal dense linear algebra: nullspace, det, the signed-permutation
detector, which only the input validator ``groups._generator_stack``
runs (every later reader takes the index arrays it returns), and the
format of the signed codes on which ``groups._element_steps`` multiplies
signed permutations.

Everything is plain float64 numpy. The nullspace is computed by Gaussian
elimination with partial pivoting followed by back-substitution and
Gram-Schmidt, which is deterministic and adequate at the problem sizes
this package targets (constraint stacks up to a few thousand rows).
"""

import numpy as np

from . import kernels

DEFAULT_TOL = 1e-9


def as_matrix(m, name="matrix"):
    """Coerce to a C-contiguous float64 2-D array, rejecting NaN/Inf."""
    a = np.ascontiguousarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def signed_permutations(images):
    """(int64 targets, int8 signs) with
    images[g] e_j = signs[g, j] e_{targets[g, j]}, or None unless every
    image of the (count, n, n) stack is exactly a signed permutation
    matrix: entries -1, 0 or 1, one nonzero per row and per column. -0.0
    counts as zero."""
    nonzero = images != 0.0
    if not ((np.abs(images[nonzero]) == 1.0).all()
            and (nonzero.sum(axis=1) == 1).all()
            and (nonzero.sum(axis=2) == 1).all()):
        return None
    targets = nonzero.argmax(axis=1)
    signs = np.take_along_axis(images, targets[:, None, :], axis=1)[:, 0, :]
    return targets.astype(np.int64), signs.astype(np.int8)


def signed_permutation_matrices(targets, signs):
    """The (count, n, n) stack that ``signed_permutations`` reads as
    (targets, signs), scattered into zeros (so every zero is +0.0)."""
    count, n = targets.shape
    stack = np.zeros((count, n, n))
    stack[np.arange(count)[:, None], targets, np.arange(n)] = signs
    return stack


def sign_flips(signs):
    """Xor masks that apply a signed permutation's signs to signed codes.

    A signed code packs column j of a signed permutation e into one
    integer: t where e e_j = +e_t and ~t = -t - 1 where e e_j = -e_t. If
    ``codes`` holds e's codes and g has (targets, signs), e @ g has the
    codes ``codes[targets] ^ sign_flips(signs)``, since e @ g maps e_j to
    signs[j] e(e_{targets[j]}) and ~x = x ^ -1. Equal elements have equal
    codes, and two codes name the same target exactly when they are equal
    or bitwise complements. The masks have the code type of degree
    n = signs.shape[-1], and codes are kept in that type.
    """
    return np.where(signs < 0, -1, 0).astype(_code_type(signs.shape[-1]))


def _code_type(n):
    """The narrowest integer type of the signed codes -n..n-1 of degree n."""
    return np.min_scalar_type(-max(n, 1))


def split_signed_codes(codes):
    """(targets, int8 signs) of an array of signed codes (``sign_flips``);
    the targets are ``codes`` itself, overwritten, so they keep its
    integer type."""
    signs = np.where(codes < 0, np.int8(-1), np.int8(1))
    np.invert(codes, out=codes, where=codes < 0)
    return codes, signs


def check_tol(tol):
    """Reject a tolerance that is not finite and non-negative; a NaN tol
    would make every ``> tol`` test false."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def nullspace(m):
    """Orthonormal basis of the (numerical) nullspace of ``m``.

    Pivots below ``DEFAULT_TOL * max|entry|`` are treated as zero, so the
    result has ``cols - rank`` columns at that threshold. Columns are
    orthonormal and ordered deterministically (free columns of the
    echelon form, in index order), and every zero entry is +0.0.
    """
    a = as_matrix(m).copy()
    rows, cols = a.shape
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.eye(cols)
    pivots, rank = kernels.row_echelon(a, DEFAULT_TOL * scale)
    pivot_set = set(pivots.tolist())
    free = [c for c in range(cols) if c not in pivot_set]
    d = cols - rank
    if d == 0:
        return np.zeros((cols, 0))
    v = np.zeros((cols, d))
    for j, c in enumerate(free):
        v[c, j] = 1.0
    for i in range(rank - 1, -1, -1):
        c = pivots[i]
        v[c, :] = -(a[i, c + 1:] @ v[c + 1:, :]) / a[i, c]
    q, kept = kernels.orthonormal_rows(
        np.ascontiguousarray(v.T), 1e-12 * np.sqrt((v * v).sum(axis=0)).max()
    )
    # back-substitution and Gram-Schmidt leave -0.0 entries; + 0.0 makes
    # every zero +0.0, so equal bases print and hash alike
    return np.ascontiguousarray(q[:kept].T) + 0.0


def determinant(m):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = as_matrix(m).copy()
    n, cols = a.shape
    if n != cols:
        raise ValueError(f"determinant needs a square matrix, got {a.shape}")
    sign = 1.0
    for c in range(n):
        p = c + np.argmax(np.abs(a[c:, c]))
        if a[p, c] == 0.0:
            return 0.0
        if p != c:
            a[[c, p]] = a[[p, c]]
            sign = -sign
        f = a[c + 1:, c] / a[c, c]
        a[c + 1:, c:] -= f[:, None] * a[c, c:]
    return sign * np.prod(np.diag(a))
