"""Constrained weight spaces {A : A rho_in(g) = rho_out(g) A for all g}.

The basis is the orthonormalized nullspace of the vectorized commutation
constraints stacked over the *generators* only; the homomorphism
property makes that equivalent to constraining over every element (the
full-group version is kept in the test suite as an independent oracle,
together with the character-based dimension count below).

``solve_basis`` is the one entry point and has two paths. When both
representations are signed permutation reps (they carry ``gen_arrays``,
decided once when their images were validated), the nullspace is
spanned by signed orbit indicators on index pairs (i, j), one per orbit
without an odd sign cycle. Union-find with parity over the generator
links finds the orbits (see ``_orbit_nullspace``), without building the
constraint stack or a dense image, and the result is bit for bit the
dense path's. Every other pair goes through the dense elimination in
``numerics.nullspace`` at its default pivot threshold, which is also
the test oracle for the orbit path. ``fixed_subspace`` is the solve
from the trivial rep.

The solve reads the generators only. The character oracle reads every
element: the (targets, signs) index arrays of a signed permutation
representation, counting signed fixed points, or the dense images of
any other, so it builds no dense view of an index-array representation.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import nullspace
from .reps import Representation, parse_rep_spec


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
        return np.dot(coeffs, self.rows).reshape(self.rep_out.degree, self.rep_in.degree)

    @property
    def rows(self):
        """The (dim, n_out * n_in) view of ``basis``: realizing
        coefficients is one vector-matrix product on it, and projecting a
        matrix onto the basis one matrix-vector product."""
        return self.basis.reshape(self.dim, self.basis.shape[1] * self.basis.shape[2])


def solve_basis(rep_in, rep_out):
    """Solve for the intertwiner space between two representations.

    Stacks, per generator g, the constraint on vec(A) induced by
    A rho_in(g) - rho_out(g) A = 0 (row-major vectorization) and returns
    the orthonormalized nullspace reshaped to matrices. Two signed
    permutation representations take the orbit path on their
    ``gen_arrays`` (see the module docstring); its result is bitwise the
    dense one. A degree-0 representation on either side gives the zero
    space: ``dim`` 0 and a (0, n_out, n_in) ``basis``.
    """
    if rep_in.group is not rep_out.group:
        raise ValueError("representations must share the same group")
    n_in, n_out = rep_in.degree, rep_out.degree
    if n_in * n_out == 0:  # no unknowns: the zero space, which neither path takes
        ns = np.zeros((0, 0))
    elif rep_in.gen_arrays is not None and rep_out.gen_arrays is not None:
        ns = _orbit_nullspace(rep_in.gen_arrays, rep_out.gen_arrays)
    else:
        ns = nullspace(_constraint_stack(rep_in, rep_out))
    dim = ns.shape[1]
    basis = ns.T.reshape(dim, n_out, n_in)
    return IntertwinerBasis(rep_in, rep_out, dim, basis)


def fixed_subspace(rep):
    """Orthonormal basis of {b : rho(g) b = b for all generators g}: the
    intertwiners from the trivial rep, one column per basis map. The
    columns are fixed by the whole group (generators suffice), and the
    result may legitimately have zero columns."""
    basis = solve_basis(parse_rep_spec(rep.group, "trivial:1"), rep)
    return np.ascontiguousarray(basis.basis[:, :, 0].T)


def _constraint_stack(rep_in, rep_out):
    """Rows kron(I, rho_in(g)^T) - kron(rho_out(g), I), stacked over generators."""
    eye_in, eye_out = np.eye(rep_in.degree), np.eye(rep_out.degree)
    return np.vstack([
        np.kron(eye_out, g_in.T) - np.kron(g_out, eye_in)
        for g_in, g_out in zip(rep_in.gen_images, rep_out.gen_images)
    ])


def _orbit_nullspace(perm_in, perm_out):
    """``nullspace(stack)`` for signed permutation reps, by union-find with parity.

    Generator g links pair (i, j) to (t_out[g][i], t_in[g][j]) with
    parity s_out[g][i] * s_in[g][j]: A rho_in(g) = rho_out(g) A says A
    at the linked pair is parity * A[i, j]. Each pair keeps a root and a
    sign, v[p] = sign[p] * v[root[p]]. A round hooks every pair to the
    largest root among its own and its links' (both directions), then
    pointer-jumps until the roots stop changing; rounds repeat until one
    changes no root, which leaves each orbit's largest index as its root.
    A link whose parity disagrees with the settled signs closes an odd
    sign cycle and zeroes its orbit. Every other orbit is one column, in
    root order: sign / sqrt(|orbit|) on the orbit, positive at the root.
    That is the dense path's result, whose zeros are +0.0 as these are.
    """
    (t_in, s_in), (t_out, s_out) = perm_in, perm_out
    n_in, n_out = t_in.shape[1], t_out.shape[1]
    size = n_out * n_in
    pairs = np.arange(size)
    link = (t_out[:, :, None] * n_in + t_in[:, None, :]).reshape(-1, size)
    parity = (s_out[:, :, None] * s_in[:, None, :]).reshape(-1, size).astype(np.int8)
    back = np.empty_like(link)  # back[g, link[g, p]] = p
    np.put_along_axis(back, link, pairs[None], axis=1)
    # v[p] = near_parity[k, p] * v[near[k, p]] for each link k of p
    near = np.concatenate([link, back])
    near_parity = np.concatenate([parity, np.take_along_axis(parity, back, axis=1)])

    root, sign = pairs, np.ones(size, dtype=np.int8)
    while True:
        roots = np.concatenate([root[None], root[near]])
        signs = np.concatenate([sign[None], near_parity * sign[near]])
        best = roots.argmax(axis=0)
        hooked, sign = roots[best, pairs], signs[best, pairs]
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            sign = sign * sign[hooked]
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked

    odd = np.zeros(size, dtype=bool)
    odd[root[(sign != parity * sign[link]).any(axis=0)]] = True
    free = np.flatnonzero((root == pairs) & ~odd)
    dim = free.size
    ns = np.zeros((size, dim))
    member = np.flatnonzero(~odd[root])
    element = np.searchsorted(free, root[member])
    counts = np.bincount(element, minlength=dim)
    ns[member, element] = sign[member] / np.sqrt(counts[element])
    return ns


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
    if rep.gen_arrays is None:
        return np.trace(rep.images, axis1=1, axis2=2)
    fixed = rep.targets == np.arange(rep.degree)
    return (rep.signs * fixed).sum(axis=1, dtype=np.int64)
