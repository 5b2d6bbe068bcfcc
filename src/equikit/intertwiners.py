"""Constrained weight spaces {A : A rho_in(g) = rho_out(g) A for all g}.

The basis is the orthonormalized nullspace of the vectorized commutation
constraints stacked over the *generators* only; the homomorphism
property makes that equivalent to constraining over every element (the
full-group version is kept in the test suite as an independent oracle,
together with the character-based dimension count below).

``solve_basis`` is the one entry point and has two paths. When every
generator image of both representations is an exact signed permutation
matrix (entries exactly -1, 0 or 1, one nonzero per row and column),
the nullspace is spanned by orbit indicators on index pairs (i, j) and
is computed from the sparse constraint rows without dense elimination,
bit for bit equal to the dense path. Every other representation goes
through the dense elimination in ``numerics.nullspace``, which is also
the test oracle for the fast path. ``tol`` is validated on both paths
but only the dense path uses it.

The solve reads generator images only. The character oracle reads every
element: the (targets, signs) index arrays of a signed permutation
representation, counting signed fixed points, or the dense images of
any other, so it builds no dense view of an index-array representation.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, check_tol, nullspace, signed_permutations
from .reps import Representation


@dataclass
class IntertwinerBasis:
    """Frobenius-orthonormal basis of an intertwiner space.

    ``basis`` has shape (dim, n_out, n_in); each slice B satisfies
    B @ rho_in(g) = rho_out(g) @ B for every group element.
    """

    rep_in: Representation
    rep_out: Representation
    dim: int
    basis: np.ndarray

    def realize(self, coeffs):
        """Linear combination sum_j coeffs[j] * basis[j]."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        if self.dim == 0:
            return np.zeros((self.rep_out.degree, self.rep_in.degree))
        return np.tensordot(coeffs, self.basis, axes=1)

    def project(self, a):
        """Coefficients of the Frobenius-orthogonal projection of ``a``."""
        return np.tensordot(self.basis, a, axes=[[1, 2], [0, 1]])


def solve_basis(rep_in, rep_out, tol=DEFAULT_TOL):
    """Solve for the intertwiner space between two representations.

    Stacks, per generator g, the constraint on vec(A) induced by
    A rho_in(g) - rho_out(g) A = 0 (row-major vectorization) and returns
    the orthonormalized nullspace reshaped to matrices. Signed
    permutation representations take the orbit path (see the module
    docstring); its result is bitwise the dense one.
    """
    if rep_in.group is not rep_out.group:
        raise ValueError("representations must share the same group")
    check_tol(tol)
    n_in, n_out = rep_in.degree, rep_out.degree
    perm_in = signed_permutations(rep_in.gen_images)
    perm_out = signed_permutations(rep_out.gen_images)
    if perm_in is not None and perm_out is not None:
        ns = _orbit_nullspace(perm_in, perm_out)
    else:
        ns = nullspace(_constraint_stack(rep_in, rep_out), tol=tol)
    dim = ns.shape[1]
    basis = ns.T.reshape(dim, n_out, n_in)
    return IntertwinerBasis(rep_in, rep_out, dim, basis)


def _constraint_stack(rep_in, rep_out):
    """Rows kron(I, rho_in(g)^T) - kron(rho_out(g), I), stacked over generators."""
    eye_in, eye_out = np.eye(rep_in.degree), np.eye(rep_out.degree)
    return np.vstack([
        np.kron(eye_out, g_in.T) - np.kron(g_out, eye_in)
        for g_in, g_out in zip(rep_in.gen_images, rep_out.gen_images)
    ])


def _orbit_nullspace(perm_in, perm_out):
    """``nullspace(stack)`` for signed permutation reps, without dense elimination.

    Back-substitution over the echelon rows of ``_sparse_echelon`` ties
    each pivot column c to one later column d, v[c] = -(a_cd v[d]) / a_cc,
    or to zero when its row has no d. So the free columns are the largest
    indices of the orbits whose signs agree, and each nullspace vector is
    +-1 on one orbit with +1 at its free column. Orbits are disjoint, so
    Gram-Schmidt only divides by sqrt(|orbit|). It also leaves signed
    zeros, which ``basis --print`` shows as "-0": back-substitution
    writes -0.0 = -(+0.0) / a_cc at every pivot column c with a_cc > 0
    outside the vector's orbit, and projecting out an earlier vector q
    turns -0.0 into +0.0 wherever q has its sign bit set. Of all
    vectors, only the first that does not contain c keeps that -0.0:
    vector 0, or vector 1 when c lies in vector 0's orbit with a
    positive entry.
    """
    size = perm_in[0].shape[1] * perm_out[0].shape[1]
    pivot_rows = _sparse_echelon(_constraint_rows(perm_in, perm_out), size)

    root = np.full(size, -1)  # free column of each index's orbit; -1 if forced to zero
    value = np.zeros(size)
    for c in range(size - 1, -1, -1):
        if c not in pivot_rows:
            root[c], value[c] = c, 1.0
        elif pivot_rows[c][1]:
            a_cc, [(d, a_cd)] = pivot_rows[c]
            root[c], value[c] = root[d], -(a_cd * value[d]) / a_cc

    free = np.flatnonzero(root == np.arange(size))
    dim = free.size
    ns = np.zeros((size, dim))
    member = np.flatnonzero(root >= 0)
    element = np.full(size, -1)
    element[member] = np.searchsorted(free, root[member])
    counts = np.bincount(element[member], minlength=dim)
    ns[member, element[member]] = value[member] / np.sqrt(counts[element[member]])
    positive_pivot = np.zeros(size, dtype=bool)
    positive_pivot[[c for c, (a_cc, _) in pivot_rows.items() if a_cc > 0.0]] = True
    if dim >= 1:
        ns[positive_pivot & (element != 0), 0] = -0.0
    if dim >= 2:
        ns[positive_pivot & (element == 0) & (value > 0.0), 1] = -0.0
    return ns


def _constraint_rows(perm_in, perm_out):
    """The rows of ``_constraint_stack`` as {column: value} dicts.

    Row (g, i, j) holds s_in(j) at (i, pi_in(j)) and -s_out(k) at (k, j),
    where pi_out(k) = i: it links two index pairs with a sign, or holds
    s_in(j) - s_out(k) when the two pairs coincide.
    """
    (t_in, s_in), (t_out, s_out) = perm_in, perm_out
    n_in, n_out = t_in.shape[1], t_out.shape[1]
    j = np.arange(n_in)[None, :]
    rows = []
    for g in range(t_in.shape[0]):
        k = np.argsort(t_out[g])[:, None]
        cols_a = np.arange(n_out)[:, None] * n_in + t_in[g][j]
        cols_b = k * n_in + j
        vals_a = np.broadcast_to(s_in[g][j], cols_a.shape)
        vals_b = np.broadcast_to(-s_out[g][k], cols_b.shape)
        for ca, cb, va, vb in zip(cols_a.ravel().tolist(), cols_b.ravel().tolist(),
                                  vals_a.ravel().tolist(), vals_b.ravel().tolist()):
            row = {ca: va}
            row[cb] = row.get(cb, 0.0) + vb
            rows.append({c: v for c, v in row.items() if v != 0.0})
    return rows


def _sparse_echelon(rows, size):
    """``kernels.row_echelon`` replayed on sparse rows: {pivot column c:
    (a_cc, [(d, a_cd)] or [])}, the echelon row that pivots on c.

    Eliminating one signed link from another leaves a signed link, or a
    lone +-2 where a sign cycle closes oddly, so every row keeps at most
    two nonzeros and every value stays exact. The pivot choices, row
    swaps and arithmetic are the dense kernel's, so the echelon rows are
    bitwise its rows.
    """
    live = [set() for _ in range(size)]  # column -> non-pivot rows holding it
    for r, row in enumerate(rows):
        for c in row:
            live[c].add(r)
    place = list(range(len(rows)))  # row -> its place in the dense row order
    at = list(range(len(rows)))     # place -> row
    pivot_rows = {}
    rank = 0
    for c in range(size):
        if not live[c]:
            continue
        # the dense kernel pivots on the first row, in place order, of
        # largest magnitude and swaps it into place ``rank``
        p = min(live[c], key=lambda r: (-abs(rows[r][c]), place[r]))
        q = at[rank]
        at[rank], at[place[p]] = p, q
        place[q], place[p] = place[p], rank
        rank += 1
        pivot = rows[p]
        a_cc = pivot.pop(c)
        pivot_rows[c] = (a_cc, list(pivot.items()))
        for d in pivot:
            live[d].discard(p)
        live[c].discard(p)
        for r in live[c]:
            row = rows[r]
            f = row.pop(c) / a_cc
            for d, a_cd in pivot.items():
                new = row.get(d, 0.0) - f * a_cd
                if new != 0.0:
                    row[d] = new
                    live[d].add(r)
                else:
                    row.pop(d, None)
                    live[d].discard(r)
    return pivot_rows


def hom_dim_oracle(rep_in, rep_out):
    """Character-formula dimension of the intertwiner space.

    round((1/|G|) * sum_g trace(rho_in(g)) * trace(rho_out(g))); valid
    for real representations, whose characters are real. A rounding
    residue above 1e-6 signals numerically inconsistent representations
    and raises.
    """
    if rep_in.group is not rep_out.group:
        raise ValueError("representations must share the same group")
    value = float(_character(rep_in) @ _character(rep_out)) / rep_in.group.order
    nearest = round(value)
    if abs(value - nearest) > 1e-6:
        raise ValueError(
            f"character average {value!r} is not an integer; "
            "representations are numerically inconsistent"
        )
    return int(nearest)


def _character(rep):
    """trace(rho(g)) for every element: the signed count of fixed points
    for a signed permutation representation (exact integers, as the
    dense trace of its images is), else the trace of the dense images."""
    if rep.targets is None:
        return np.trace(rep.images, axis1=1, axis2=2)
    fixed = rep.targets == np.arange(rep.degree)
    return (rep.signs * fixed).sum(axis=1, dtype=np.int64)
