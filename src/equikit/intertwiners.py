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
without an odd sign cycle: an equivariant layer is parameter sharing,
one shared weight per orbit. Union-find with parity over the generator
links finds the orbits (see ``_orbits``), without building the
constraint stack or a dense image, and the basis keeps them in orbit
form: each entry's basis element and value. Realizing coefficients is
then a gather, and the dense basis is scattered from the orbits only
when read (``basis --print``, the training step's ``rows``); it is bit
for bit the dense path's. Every other pair goes through the dense
elimination in ``numerics.nullspace`` at its default pivot threshold,
which is also the test oracle for the orbit path. ``fixed_subspace`` is
the solve from the trivial rep.

The solve reads the generators only. The character oracle reads every
element: the (targets, signs) index arrays of a signed permutation
representation, counting signed fixed points, or the dense images of
any other, so it builds no dense view of an index-array representation.
"""
import numpy as np

from .numerics import nullspace
from .reps import parse_rep_spec


class IntertwinerBasis:
    """Frobenius-orthonormal basis of an intertwiner space.

    ``basis`` has shape (dim, n_out, n_in); each slice B satisfies
    B @ rho_in(g) = rho_out(g) @ B for every group element. ``rows`` is
    its (dim, n_out * n_in) view: projecting a matrix onto the basis is
    one matrix-vector product on it.

    A basis solved on the orbit path is kept in orbit form, ``orbits``:
    two flat arrays over the n_out * n_in entries of a map, in row-major
    order, ``ids`` (each entry's basis element, -1 in a zeroed orbit)
    and ``values`` (its value in that element, 0 in a zeroed orbit).
    Its dense ``basis`` is scattered from them on first read and kept;
    ``realize`` never reads it. A basis from the dense path keeps its
    dense array and has ``orbits`` None.
    """

    def __init__(self, rep_in, rep_out, dim, basis=None, orbits=None):
        self.rep_in = rep_in
        self.rep_out = rep_out
        self.dim = dim
        self.orbits = orbits
        self._basis = basis

    @property
    def basis(self):
        if self._basis is None:
            self._basis = _dense_basis(*self.orbits, self.dim, self.rep_out.degree,
                                       self.rep_in.degree)
        return self._basis

    @property
    def rows(self):
        return self.basis.reshape(self.dim, self.rep_out.degree * self.rep_in.degree)

    def realize(self, coeffs):
        """Linear combination sum_j coeffs[j] * basis[j].

        In orbit form every entry has one term, so the sum is a gather,
        coeffs[id] * value, with +0.0 in a zeroed orbit and where the
        term is -0.0: bitwise ``np.dot(coeffs, rows)`` for finite
        coefficients.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        shape = (self.rep_out.degree, self.rep_in.degree)
        if self.orbits is not None:
            ids, values = self.orbits
            out = np.append(coeffs, 0.0)[ids]  # id -1 reads the appended 0.0
            out *= values
            out += 0.0  # -0.0 becomes +0.0, as in the dot product's sum
            return out.reshape(shape)
        if self.dim == 0:
            return np.zeros(shape)
        return np.dot(coeffs, self.rows).reshape(shape)


def solve_basis(rep_in, rep_out):
    """Solve for the intertwiner space between two representations.

    Stacks, per generator g, the constraint on vec(A) induced by
    A rho_in(g) - rho_out(g) A = 0 (row-major vectorization) and returns
    the orthonormalized nullspace reshaped to matrices. Two signed
    permutation representations take the orbit path on their
    ``gen_arrays`` (see the module docstring) and give a basis in orbit
    form, whose dense view is bitwise the dense path's. A degree-0
    representation on either side gives the zero space: ``dim`` 0 and a
    (0, n_out, n_in) ``basis``.
    """
    if rep_in.group is not rep_out.group:
        raise ValueError("representations must share the same group")
    n_in, n_out = rep_in.degree, rep_out.degree
    if n_in * n_out == 0:  # no unknowns: the zero space, which neither path takes
        return IntertwinerBasis(rep_in, rep_out, 0, np.zeros((0, n_out, n_in)))
    if rep_in.gen_arrays is not None and rep_out.gen_arrays is not None:
        dim, ids, values = _orbits(rep_in.gen_arrays, rep_out.gen_arrays)
        return IntertwinerBasis(rep_in, rep_out, dim, orbits=(ids, values))
    ns = nullspace(_constraint_stack(rep_in, rep_out))
    dim = ns.shape[1]
    return IntertwinerBasis(rep_in, rep_out, dim, ns.T.reshape(dim, n_out, n_in))


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


def _orbits(perm_in, perm_out):
    """The signed orbits of the generators on index pairs, by union-find
    with parity: ``(dim, ids, values)``, ``ids`` and ``values`` flat
    over the pairs p = i * n_in + j.

    Generator g links pair (i, j) to (t_out[g][i], t_in[g][j]) with
    parity s_out[g][i] * s_in[g][j]: A rho_in(g) = rho_out(g) A says A
    at the linked pair is parity * A[i, j]. Each pair keeps a state
    2 * root + neg, for v[p] = (-1)^neg * v[root]. A round hooks every
    pair to the largest state among its own and its links' (row 0 of
    ``near`` is the pair itself), hooks each root to the largest that
    its pairs found, then pointer-jumps until the states stop changing;
    rounds repeat until one changes no root, which leaves each orbit's
    largest index as its root. Forward links suffice: each generator
    permutes the pairs, so a root that no link raises is constant along
    each cycle. A link whose parity disagrees with the settled signs
    closes an odd sign cycle and zeroes its orbit: its pairs get id -1
    and value 0. Every other orbit is one basis element, numbered in
    root order, and its pairs get value sign / sqrt(|orbit|), positive
    at the root. Scattered into zeros, that is the dense path's result,
    whose zeros are +0.0 as these are (``_dense_basis``).
    """
    (t_in, s_in), (t_out, s_out) = perm_in, perm_out
    k, n_in = t_in.shape
    n_out = t_out.shape[1]
    size = n_out * n_in
    pairs = np.arange(size)
    near = np.empty((k + 1, n_out, n_in), dtype=np.int64)
    flip = np.zeros((k + 1, n_out, n_in), dtype=np.int64)  # 1 where the parity is -1
    near[0] = pairs.reshape(n_out, n_in)
    np.add(t_out[:, :, None] * n_in, t_in[:, None, :], out=near[1:])
    np.not_equal(s_out[:, :, None], s_in[:, None, :], out=flip[1:])
    near, flip = near.reshape(k + 1, size), flip.reshape(k + 1, size)

    state = pairs * 2
    while True:
        best = state[near]
        best ^= flip
        best = best.max(axis=0)
        np.maximum.at(best, state >> 1, best ^ (state & 1))
        while True:
            jumped = best[best >> 1]
            jumped ^= best & 1
            if (jumped == best).all():
                break
            best = jumped
        if ((best ^ state) < 2).all():  # no root changed
            break
        state = best

    root, neg = best >> 1, best & 1
    odd = np.zeros(size, dtype=bool)
    odd[root[(neg ^ flip[1:] != neg[near[1:]]).any(axis=0)]] = True
    free = np.flatnonzero((root == pairs) & ~odd)
    column = np.full(size, -1)
    column[free] = np.arange(free.size)
    ids = column[root]
    counts = np.bincount(ids + 1, minlength=free.size + 1)
    counts[0] = 1  # zeroed pairs: 0 / 1
    values = np.where(ids < 0, 0, 1 - 2 * neg) / np.sqrt(counts)[ids + 1]
    return free.size, ids, values


def _dense_basis(ids, values, dim, n_out, n_in):
    """The (dim, n_out, n_in) basis of an orbit form: ``values`` scattered
    into zeros at (pair, id), then transposed, in the dense path's memory
    layout."""
    ns = np.zeros((ids.size, dim))
    member = np.flatnonzero(ids >= 0)
    ns[member, ids[member]] = values[member]
    return ns.T.reshape(dim, n_out, n_in)


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
