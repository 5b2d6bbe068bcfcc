"""Finite matrix groups, stored as their generators' data and their order.

A group is its generators: their (targets, signs) index arrays when they
are signed permutations, else their dense stack. One breadth-first
search, run on the first read of the cayley table, the parent links or
any element's data and then kept, finds the BFS tree: the cayley table
and each element's parent link (parent element, generator). It holds
one level's element data at a time and keeps none. A named group takes
its order from a closed form (``_named_order``), so building it
enumerates nothing, and its search must find exactly that order;
``close`` runs the search at once, since only the search finds a
generator set's order. Callers that read generators only (the solve,
the certificate, the generator sweep of a check, ``generator_ids``)
never enumerate. Those that read elements do: the exhaustive or sampled
element sweep, the character oracle, the replay of user-supplied images
(``perm:`` leaves), and any first read of element data.

Element 0 is always the identity. BFS order (queue order, generators
tried in index order) fixes a canonical element indexing. Every
element's data, a group's and a rep's alike, is walked down the BFS
tree from its generators' data (``_walk``) on first read and kept
(``_ElementData``), and the word that reproduces an element (``words``)
is read off the parent links on demand. The BFS looks up each level's
products in one pass over their keys and runs Python code only for the
products it has not seen.

Every element is a product of generators, so closing a group, walking
element data and checking generator images share one step, per storage
kind: ``_element_steps``, whose only traversals are ``_bfs``,
``generator_ids``, ``_walk`` and ``reps._replay``. Signed permutation
generators (entries -1, 0 or 1, one nonzero per row and column, as the
validator ``_generator_stack`` detects) multiply integer signed codes
(``numerics.sign_flips``) by a gather and an xor and key them on their
exact bytes; their walk splits the codes into each element's (targets,
signs), the targets in the codes' narrow type, from which ``elements``
(and a named group's ``generators``) are scattered on first read. Other
generator sets multiply dense matrices keyed by the rounding key
``_key``; the validator calls ``det`` only for them. On signed
permutations both give the same elements, words, cayley table and
parent links, bit for bit.
"""

from itertools import repeat

import numpy as np

from .numerics import (
    _code_type,
    as_matrix,
    sign_flips,
    signed_permutation_matrices,
    signed_permutations,
    split_signed_codes,
)

DEFAULT_MAX_ORDER = 20000

# A named group or rep spec is refused, before anything is built, when
# the element data it could walk would exceed this (``_check_fits``).
MAX_IMAGE_STACK_BYTES = 2 ** 28

# Dedup per the small-integer / exact-trig entry regime: hash on entries
# rounded to 9 decimals (equal keys put entries within 1e-9 of each
# other); ``index_of`` matches entrywise at 1e-6.
_ROUND_DECIMALS = 9
_MATCH_TOL = 1e-6


def _key(m):
    # +0.0 normalizes -0.0 so it hashes like +0.0
    return (np.round(m, _ROUND_DECIMALS) + 0.0).tobytes()


class ClosureError(RuntimeError):
    """Generator closure did not terminate within the element cap."""


class FiniteGroup:
    """A group given by its generators, with canonical element indexing.

    The group is its generators' data and its order. ``cayley`` and
    ``parents`` come from one BFS enumeration, run on the first read of
    either or of any element's data, and then kept; ``targets``,
    ``signs`` and ``elements`` are walked from the generators' data down
    that tree on first read and then kept, and ``words`` are read off it.

    Attributes:
        dim: matrix size of the defining representation.
        order: the number of elements. A named group takes it from a
            closed form, and its enumeration must find exactly that many;
            ``close`` enumerates at once to find it.
        gen_arrays: the generators' (targets, int8 signs), with
            generators[g] e_j = signs[g, j] e_{targets[g, j]}, or None
            for a group stored dense.
        generators: (gen_count, dim, dim) array of the generators; a
            named group's is scattered from ``gen_arrays`` on first read
            and then kept.
        generator_ids: each generator's element index, found without
            enumerating (see the property).
        elements: (order, dim, dim) array, elements[0] = identity. For
            a signed permutation group it is scattered from ``targets``
            and ``signs``.
        words: per element, the generator-index word replaying it from
            the identity (left-to-right products), derived from
            ``parents`` on first read. BFS gives the shortest word,
            lexicographically smallest among ties.
        cayley: (order, gen_count) int array; cayley[e, g] is the index
            of elements[e] @ generators[g].
        parents: (order, 2) int array of (parent element, generator)
            BFS links; (-1, -1) for the identity.
        spec: the named-group spec string when built by name, else None.
        targets, signs: (order, dim) arrays of the codes' integer type
            (int8 up to degree 128, int16 up to 32768) and int8, with
            elements[e] e_j = signs[e, j] e_{targets[e, j]}, or None
            when the group is stored dense.
    """

    def __init__(self, dim, order=None, spec=None, gen_arrays=None, generators=None):
        self.dim = dim
        self.order = order
        self.spec = spec
        self.gen_arrays = gen_arrays
        self._generators = generators
        self._data = _ElementData(gen_arrays, generators)
        self._cayley = self._parents = self._words = None

    @property
    def gen_count(self):
        return len(self._generators if self.gen_arrays is None else self.gen_arrays[0])

    @property
    def generators(self):
        if self._generators is None:
            self._generators = signed_permutation_matrices(*self.gen_arrays)
        return self._generators

    @property
    def cayley(self):
        return self._enumerate()._cayley

    @property
    def parents(self):
        return self._enumerate()._parents

    targets = property(lambda self: self._data.arrays(self)[0])
    signs = property(lambda self: self._data.arrays(self)[1])
    elements = property(lambda self: self._data.stack(self))

    @property
    def words(self):
        if self._words is None:
            # a parent precedes its children in BFS order
            words = [()]
            for parent, gi in self.parents[1:].tolist():
                words.append(words[parent] + (gi,))
            self._words = words
        return self._words

    @property
    def generator_ids(self):
        """Each generator's element index, without enumerating: the first
        BFS level alone. The identity is 0, each distinct non-identity
        generator takes the next index in generator order, and a repeated
        generator shares the earlier one's, as in ``cayley[0]``."""
        identity, _, times_all, keys, _ = _element_steps(self.gen_arrays, self._generators)
        index = {}
        ids = [index.setdefault(k, len(index))
               for k in keys(identity[None]) + keys(times_all(identity[None]))]
        return np.array(ids[1:], dtype=np.int64)

    def _enumerate(self, max_order=None):
        """Run the BFS, once, and keep its tree; return the group. A
        group of known order enumerates with that order as its cap and
        raises ClosureError unless it finds exactly that many elements;
        otherwise the order is what the BFS finds within ``max_order``."""
        if self._cayley is not None:
            return self
        cap = max_order if self.order is None else self.order
        cayley, parents = _bfs(_element_steps(self.gen_arrays, self._generators),
                               self.gen_count, cap)
        if self.order is None:
            self.order = len(cayley)
        elif len(cayley) != self.order:
            raise ClosureError(f"{self!r} enumerates {len(cayley)} elements")
        self._cayley, self._parents = cayley, parents
        return self

    def index_of(self, m):
        """Index of a matrix in the group, or ValueError if absent.

        The matrix matches an element within ``_MATCH_TOL`` entrywise. A
        signed permutation group rounds it to the nearest signed
        permutation (the largest entry of each column, with its sign)
        and finds that by its exact targets and signs, so it builds no
        dense view of the elements.
        """
        m = as_matrix(m, "element")
        if m.shape != (self.dim, self.dim):
            raise ValueError(
                f"element has shape {m.shape}, expected ({self.dim}, {self.dim})"
            )
        if self.gen_arrays is None:
            hits = np.flatnonzero(np.abs(self.elements - m).max(axis=(1, 2)) <= _MATCH_TOL)
        else:
            cols = np.arange(self.dim)
            targets = np.abs(m).argmax(axis=0)
            signs = np.where(m[targets, cols] < 0.0, -1, 1).astype(np.int8)
            dev = np.abs(m)
            dev[targets, cols] = np.abs(m[targets, cols] - signs)
            hits = self._signed_hits(targets, signs) if dev.max() <= _MATCH_TOL else []
        if len(hits) == 0:
            raise ValueError("matrix is not an element of the group")
        return int(hits[0])

    def _signed_hits(self, targets, signs):
        """Indices of the elements with exactly these targets and signs."""
        return np.flatnonzero((self.targets == targets).all(axis=1)
                              & (self.signs == signs).all(axis=1))

    def contains(self, m):
        try:
            self.index_of(m)
            return True
        except ValueError:
            return False

    def inverse_index(self, i):
        if self.gen_arrays is None:
            return self.index_of(np.linalg.inv(self.elements[i]))
        # e e_j = s_j e_{t_j}, so e^-1 e_{t_j} = s_j e_j
        targets = np.empty_like(self.targets[i])
        targets[self.targets[i]] = np.arange(self.dim)
        signs = np.empty_like(self.signs[i])
        signs[self.targets[i]] = self.signs[i]
        return int(self._signed_hits(targets, signs)[0])

    def __repr__(self):
        name = self.spec or f"<{self.gen_count} generators>"
        return f"FiniteGroup({name}, dim={self.dim}, order={self.order})"


def close(generators, max_order=DEFAULT_MAX_ORDER, spec=None):
    """Close a generator set under multiplication (BFS, right products).

    The closure runs at once, since it alone finds the order. Signed
    permutation generators close on exact integer keys; any other set
    closes on rounded dense keys (see the module docstring). Raises
    ClosureError if more than ``max_order`` elements appear, and
    ValueError for non-square, mismatched, or non-invertible generators.
    """
    gens, perm = _generator_stack(generators, "generator")
    return FiniteGroup(gens.shape[1], spec=spec, gen_arrays=perm,
                       generators=gens)._enumerate(max_order)


def _generator_stack(matrices, name):
    """The (count, n, n) float64 stack of ``matrices`` and its
    ``signed_permutations`` reading, or ValueError naming ``f"{name} {i}"``
    unless they are nonempty, finite, square, of one shape and (tested
    only when not all are signed permutations) invertible."""
    mats = [as_matrix(m, f"{name} {i}") for i, m in enumerate(matrices)]
    if not mats:
        raise ValueError(f"at least one {name} is required")
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"{name} {i} has shape {m.shape}, expected ({n}, {n})")
    stack = np.stack(mats)
    perm = signed_permutations(stack)
    if perm is None:
        for i, m in enumerate(mats):
            if abs(np.linalg.det(m)) <= 1e-9:
                raise ValueError(f"{name} {i} is not invertible")
    return stack, perm


def _close_dense(gens, max_order=DEFAULT_MAX_ORDER, spec=None):
    """``close`` on dense matrices deduplicated by ``_key``, whatever the
    generators: the path of every generator set that is not all signed
    permutations, and the test oracle for the other. On signed
    permutations both give the same elements, words, cayley table and
    parent links, bit for bit: the elements, when scattered into zeros,
    are bitwise the dense products (a matmul sum of +-0.0 terms starts
    from +0.0, so every zero it leaves is +0.0)."""
    gens = np.stack(gens)
    return FiniteGroup(gens.shape[1], spec=spec, generators=gens)._enumerate(max_order)


def _row_bytes(rows):
    """The bytes of each row of a C-contiguous 2-D array, as a list."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _element_steps(gen_arrays=None, generators=None):
    """(identity, times, times_all, keys, residuals): right products by
    generators given as (targets, signs) ``gen_arrays``, on signed codes
    (``numerics.sign_flips``), or else as a dense ``generators`` stack.
    ``times(data, g)`` is each element of ``data`` times generator g, a
    new C-contiguous array; ``times_all(front)`` stacks every product of
    a ``front`` element with a generator in (element, generator) order;
    ``keys`` are equal exactly for equal elements (exact code bytes, or
    ``_key``); ``residuals(lhs, rhs)`` is each element's largest dense
    ``|lhs - rhs|``, overwriting ``lhs``: on codes, 1 where the targets
    differ and 2 where only the sign does."""
    if gen_arrays is None:
        n = generators.shape[1]
        return (np.eye(n), lambda data, g: np.matmul(data, generators[g]),
                lambda front: np.matmul(front[:, None], generators).reshape(-1, n, n),
                lambda products: [_key(m) for m in products],
                lambda lhs, rhs: np.abs(np.subtract(lhs, rhs, out=lhs), out=lhs).max(axis=(1, 2)))
    targets, signs = gen_arrays
    flips = sign_flips(signs)  # in the narrowest code type, as short keys hash fast

    def times(codes, g):
        product = codes.take(targets[g], axis=1)
        product ^= flips[g]
        return product

    def residuals(lhs, rhs):
        if np.array_equal(lhs, rhs):
            return np.zeros(len(lhs))
        return np.where(lhs == rhs, 0.0, np.where(lhs == ~rhs, 2.0, 1.0)).max(axis=1)

    return (np.arange(targets.shape[1], dtype=flips.dtype), times,
            lambda front: (front[:, targets] ^ flips).reshape(-1, targets.shape[1]),
            _row_bytes, residuals)


def _bfs(steps, gen_count, max_order):
    """Level-synchronous breadth-first closure from the identity of the
    element algebra ``steps`` (``_element_steps``).

    Each level's products with every generator come from one
    ``times_all``, and ``keys`` tells equal elements. A level's keys are
    looked up in one ``map``, and Python visits only the products not
    seen before the level. New elements are numbered in (element,
    generator) order, which is the order a one-element-at-a-time queue
    finds them in. Returns only the tree, as the cayley table and the
    parent links: the search holds one level's element data at a time,
    and ``_walk`` gives every element's on demand.
    """
    identity, _, times_all, keys, _ = steps
    level = identity[None]
    parents = [np.array([[-1, -1]], dtype=np.int64)]
    index = {keys(level)[0]: 0}
    cayley_rows = []
    start = 0
    while len(level):
        products = times_all(level)
        product_keys = keys(products)
        row = np.array(list(map(index.get, product_keys, repeat(-1))), dtype=np.int64)
        new = []
        for p in np.flatnonzero(row < 0).tolist():
            size = len(index)
            row[p] = j = index.setdefault(product_keys[p], size)
            if j == size:
                if size >= max_order:
                    raise ClosureError(
                        f"group not closed within cap max_order={max_order}"
                    )
                new.append(p)
        cayley_rows.append(row.reshape(-1, gen_count))
        parent, gi = np.divmod(np.array(new, dtype=np.int64), gen_count)
        parents.append(np.stack([start + parent, gi], axis=1))
        start += len(level)
        level = products[new]
    return np.concatenate(cayley_rows), np.concatenate(parents)


def _walk(group, steps):
    """Every element's data in the element algebra ``steps``
    (``_element_steps``), walked from the identity down ``group``'s BFS
    tree a level (the elements whose parents precede it) at a time: per
    level and generator, one ``times`` of the parents' data."""
    identity, times = steps[:2]
    data = np.empty((group.order,) + identity.shape, dtype=identity.dtype)
    data[0] = identity
    parent_of, gen_of = group.parents[:, 0], group.parents[:, 1]
    lo = 1
    while lo < group.order:
        hi = int(np.searchsorted(parent_of, lo))
        level, parents, gens = data[lo:hi], parent_of[lo:hi], gen_of[lo:hi]
        for gi in range(group.gen_count):
            at = gens == gi
            level[at] = times(data[parents[at]], gi)
        lo = hi
    return data


class _ElementData:
    """Every element's data, walked (``_walk``) from the generators' data
    on first read and then kept: for signed permutation ``gen_arrays``,
    ``arrays`` are the (order, n) targets, in the codes' type, and int8
    signs, and for a dense ``generators`` stack (None, None); ``stack``
    is the dense (order, n, n) stack, scattered from the arrays or walked
    from the dense generators. A group and each rep hold one, and the
    defining rep holds its group's; each read names the group whose tree
    is walked, so a group holds no reference to itself.
    """

    def __init__(self, gen_arrays, generators):
        self.gen_arrays, self.generators = gen_arrays, generators
        self._arrays = self._stack = None

    def arrays(self, group):
        if self._arrays is None:
            self._arrays = (None, None) if self.gen_arrays is None else split_signed_codes(
                _walk(group, _element_steps(self.gen_arrays)))
        return self._arrays

    def stack(self, group):
        if self._stack is None:
            self._stack = (_walk(group, _element_steps(generators=self.generators))
                           if self.gen_arrays is None
                           else signed_permutation_matrices(*self.arrays(group)))
        return self._stack


def _permutation(perm):
    """``perm`` as an array, or ValueError unless each row permutes 0..n-1."""
    perm = np.asarray(perm)
    n = perm.shape[-1]
    if not (np.sort(perm, axis=-1) == np.arange(n)).all():
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm.tolist()}")
    return perm


def permutation_matrix(perm):
    """Matrix P with P e_j = e_perm[j] for a permutation of 0..n-1; a
    (count, n) array of permutations gives the (count, n, n) stack."""
    perm = _permutation(perm)
    rows = perm.reshape(-1, perm.shape[-1]).astype(np.intp)
    stack = signed_permutation_matrices(rows, np.ones(rows.shape))
    return stack.reshape(perm.shape + rows.shape[-1:])


def _grid_permutations(n_grid, kind):
    """Each grid generator as the index map sending pixel j to perm[j];
    pixel (r, c) of the periodic n x n grid sits at index r*n + c."""
    r, c = np.divmod(np.arange(n_grid * n_grid), n_grid)
    maps = [(r + 1, c), (r, c + 1)]
    if kind in ("p4", "p4m"):
        maps.append((-c, r))  # quarter turn about the origin
    if kind == "p4m":
        maps.append((-r, c))  # reflection negating the row coordinate
    return [r2 % n_grid * n_grid + c2 % n_grid for r2, c2 in maps]


def named_group(kind, size, max_order=DEFAULT_MAX_ORDER):
    """Construct one of the named groups, from its generators alone.

    Kinds: ``symmetric(m)`` and ``cyclic(n)`` act on R^m / R^n by
    coordinate permutation; ``torus(N)``, ``p4(N)``, ``p4m(N)`` act as
    permutations of the N x N pixel grid with periodic boundary
    (translations; plus quarter-turn rotations; plus reflections).
    The group keeps its generators' index maps and its closed-form order
    (``_named_order``) and enumerates no element until one is read.
    A size whose group has more than ``max_order`` elements raises
    ClosureError, then one whose element index arrays would exceed
    ``MAX_IMAGE_STACK_BYTES`` ValueError, before any group is built.
    """
    if size < 1:
        raise ValueError(f"group size parameter must be >= 1, got {size}")
    if kind not in ("symmetric", "cyclic", "torus", "p4", "p4m"):
        raise ValueError(f"unknown group kind {kind!r}")
    order = _named_order(kind, size, max_order)
    spec = f"{kind}:{size}"
    if size == 1:
        perms = [[0]]
    elif kind == "symmetric":
        perms = [[1, 0] + list(range(2, size))]
        if size > 2:
            perms.append((np.arange(size) + 1) % size)
    elif kind == "cyclic":
        perms = [(np.arange(size) + 1) % size]
    else:
        perms = _grid_permutations(size, kind)
    _check_fits(f"group {spec}", order, len(perms[0]), True)
    targets = np.array(perms, dtype=np.int64)
    return FiniteGroup(targets.shape[1], order, spec,
                       gen_arrays=(targets, np.ones(targets.shape, np.int8)))


def _check_fits(what, order, degree, signed):
    """Refuse the element data a group or rep could walk above
    ``MAX_IMAGE_STACK_BYTES``: (order, degree) signed codes if ``signed``,
    else an (order, degree, degree) float64 stack."""
    nbytes = order * degree * (_code_type(degree).itemsize if signed else degree * 8)
    if nbytes > MAX_IMAGE_STACK_BYTES:
        raise ValueError(f"{what} has degree {degree}: its {order} elements' data would "
                         f"take {nbytes} bytes, above the cap {MAX_IMAGE_STACK_BYTES=}")


def _named_order(kind, size, max_order):
    """The order of a named group, or ClosureError, before any generator
    is built, when it exceeds ``max_order``: n for cyclic:n, m! for
    symmetric:m, N^2 translations for torus:N, times the point group's
    c rotations (and reflections) for p4:N and p4m:N, where c is 4 (8)
    for N >= 3, 2 for N = 2 (on a 2 x 2 grid the quarter turn is the
    transpose and the reflection is trivial) and 1 for N = 1."""
    if kind == "cyclic":
        order = size
    elif kind == "symmetric":
        order = 1
        for factor in range(2, size + 1):
            if order > max_order:
                break  # a lower bound suffices to refuse
            order *= factor
    else:
        point = {"torus": 1, "p4": 4, "p4m": 8}[kind]
        order = size * size * (point if size >= 3 else min(point, size))
    if order > max_order:
        raise ClosureError(
            f"{kind}:{size} has at least {order} elements, above the cap "
            f"max_order={max_order}"
        )
    return order


def group_from_spec(spec, max_order=DEFAULT_MAX_ORDER):
    """Parse a ``kind:size`` spec string, e.g. ``symmetric:4``."""
    kind, sep, size = spec.partition(":")
    if not sep:
        raise ValueError(f"group spec {spec!r} must look like 'kind:size'")
    try:
        n = int(size)
    except ValueError:
        raise ValueError(f"group spec {spec!r} has non-integer size") from None
    return named_group(kind.strip(), n, max_order=max_order)
