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
one shared weight per orbit. A plain union-find over signed pair points
(each pair twice, once per sign, when a sign is -1) finds the orbits
(see ``_orbits``), without building the constraint stack or a dense
image, and the basis keeps them in orbit form: each entry's basis
element and value. Realizing coefficients is then a gather, and the
dense basis is scattered from the orbits only when read (``basis
--print``, the training step's ``rows``); it is bit for bit the dense
path's. Every other pair goes through the dense
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
    """The signed orbits of the generators on index pairs, by a plain
    union-find over signed pair points: ``(dim, ids, values)``, ``ids``
    and ``values`` flat over the pairs p = i * n_in + j.

    Generator g links pair (i, j) to (t_out[g][i], t_in[g][j]) with
    parity s_out[g][i] * s_in[g][j]: A rho_in(g) = rho_out(g) A says A
    at the linked pair is parity * A[i, j]. When every sign is +1 the
    points are the pairs. Otherwise they are the signed pairs q = 2p + s,
    standing for (-1)^s A[p], and g sends q to 2p' + (s xor flip) for the
    linked pair p', with flip 1 where the parity is -1: the pair-level
    form of ``groups._signed_point_maps``. Each point is labelled with
    its component's largest point (``_component_maxima``).

    Both signed points of a pair share a component exactly when its
    orbit closes an odd sign cycle; that orbit is zeroed, its pairs get
    id -1 and value 0. Any other orbit is the component of 2p for its
    largest pair p, and a pair's label there is 2p plus its sign bit.
    Each such orbit is one basis element, numbered in root order, and its
    pairs get value sign / sqrt(|orbit|), positive at the root. Scattered
    into zeros, that is the dense path's result, whose zeros are +0.0 as
    these are (``_dense_basis``).
    """
    (t_in, s_in), (t_out, s_out) = perm_in, perm_out
    size = t_out.shape[1] * t_in.shape[1]
    copies = 2 if s_in.min() < 0 or s_out.min() < 0 else 1
    labels = _component_maxima(_pair_links(perm_in, perm_out, copies))
    top = labels[::copies]  # each pair's label: its +1 point's
    free = np.flatnonzero(top == np.arange(0, labels.size, copies))
    column = np.full((size, copies), -1)  # each label's basis element
    column[free] = np.arange(free.size)[:, None]
    ids = column.reshape(-1)[top]
    del column
    counts = np.bincount(ids + 1, minlength=free.size + 1)[1:]
    value = np.zeros((size, copies))  # each label's value
    value[free] = np.array([1, -1][:copies]) / np.sqrt(counts)[:, None]
    return free.size, ids, value.reshape(-1)[top]


def _pair_links(perm_in, perm_out, copies):
    """The generators' maps on the pair points of ``_orbits``, one row
    each: the pairs when ``copies`` is 1, the signed pairs 2p + s when
    it is 2."""
    (t_in, s_in), (t_out, s_out) = perm_in, perm_out
    k, n_in = t_in.shape
    n_out = t_out.shape[1]
    links = np.empty((k, n_out, n_in, copies), dtype=np.int64)
    plus = links[..., 0]
    np.add(t_out[:, :, None] * (copies * n_in), t_in[:, None, :] * copies, out=plus)
    if copies == 2:
        plus += s_out[:, :, None] != s_in[:, None, :]
        np.bitwise_xor(plus, 1, out=links[..., 1])
    return links.reshape(k, n_out * n_in * copies)


def _component_maxima(links):
    """Each point's label: the largest point of its component under the
    permutations ``links`` (k rows over the points), by union-find.

    A round takes the largest label among a point's own and its links',
    hooks each root to the largest that its points found, then
    pointer-jumps until the labels stop changing. Rounds repeat until no
    link raises a label. Labels only rise and stay within the component.
    Forward links suffice: each link permutes the points, so a label
    that no link raises is constant along each cycle, and at the end
    every label is its component's largest point.
    """
    labels = np.arange(links.shape[1])
    while True:
        best = labels.copy()
        for link in links:
            np.maximum(best, labels[link], out=best)
        if (best == labels).all():
            return labels
        np.maximum.at(best, labels, best)
        while not ((jumped := best[best]) == best).all():
            best = jumped
        labels = best


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
