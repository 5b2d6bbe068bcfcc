"""Finite matrix groups, stored as their generators' data, order and BFS tree.

A group is its generators: their (targets, signs) index arrays when they
are signed permutations, else their dense stack. One breadth-first
search, run on the first read of the cayley table or the parent links
and then kept, finds the BFS tree: the cayley table and each element's
parent link (parent element, generator). It holds one level's element
data at a time and keeps none: a group stores no element's data, and a
representation (``reps.Representation``, the defining one included)
walks its own down the tree (``_walk``). A named group takes its order
from a closed form (``_named_order``), so building it enumerates
nothing, and its search must find exactly that order; ``close`` runs
the search at once, since only the search finds a generator set's
order. Callers that read generators only (the solve, the certificate,
the generator sweep of a check, ``generator_ids``) never enumerate, and
neither does the test that user-supplied signed permutation images
(``perm:`` leaves) of a named group define a homomorphism
(``_satisfies_relators``): it evaluates the group's defining relators
(``_named_relators``) on the images. Those that read elements do: the
exhaustive or sampled element sweep, the character oracle, the replay
that names the failing element of images that test rejects or checks
dense images or images of a ``close``-built group (``reps._replay``),
and any first read of a rep's element data.

Each cap sits where what it bounds is allocated (``_check_fits`` counts
bytes against ``MAX_IMAGE_STACK_BYTES``). A name checks only that its
order fits int64, the type of every element index, and its generators'
index maps; a rep spec its generators' data (``reps.parse_rep_spec``).
The enumeration (``FiniteGroup._enumerate``) checks ``MAX_ORDER`` and
its elements' keys before the BFS runs, and ``_walk`` the element data
it walks. So every caller that reads generators only runs on any group
that can be named.

Element 0 is always the identity. BFS order (queue order, generators
tried in index order) fixes a canonical element indexing, and an
element's word, its generator sequence from the identity, is read off
the parent links. The BFS looks up each level's products in one pass
over their keys and runs Python code only for the products it has not
seen.

Every element is a product of generators, so closing a group, walking
element data and checking generator images share one step, per storage
kind: ``_element_steps``, whose only traversals are ``_bfs``,
``generator_ids``, ``_walk`` and ``reps._replay``. Signed permutation
generators (entries -1, 0 or 1, one nonzero per row and column, as the
validator ``_generator_stack`` detects) multiply integer signed codes
(``numerics.sign_flips``) by a gather and an xor and key them on their
exact bytes; a named group's ``generators`` are scattered from their
index arrays on first read. Other generator sets multiply dense
matrices keyed by the rounding key ``_key``; the validator calls
``det`` only for them. On signed permutations both give the same
cayley table and parent links, bit for bit.
"""

from itertools import repeat

import numpy as np

from .numerics import (
    as_matrix,
    sign_flips,
    signed_permutation_matrices,
    signed_permutations,
)

# A group is enumerated (``FiniteGroup._enumerate``) only up to this many
# elements; read at call time.
MAX_ORDER = 20000

# No array of generator data (built from a name or rep spec), element
# codes (enumerated) or element data (walked) is allocated above this
# many bytes (``_check_fits``).
MAX_IMAGE_STACK_BYTES = 2 ** 28

# Dedup per the small-integer / exact-trig entry regime: hash on entries
# rounded to 9 decimals (equal keys put entries within 1e-9 of each
# other).
_ROUND_DECIMALS = 9


def _key(m):
    # +0.0 normalizes -0.0 so it hashes like +0.0
    return (np.round(m, _ROUND_DECIMALS) + 0.0).tobytes()


class ClosureError(RuntimeError):
    """Generator closure did not terminate within the element cap."""


class FiniteGroup:
    """A group given by its generators, with canonical element indexing.

    The group is its generators' data, its order and, once enumerated,
    its BFS tree: ``cayley`` and ``parents`` come from one BFS, run on
    the first read of either, and then kept. It keeps no element's data;
    representations walk theirs down the tree.

    Attributes:
        dim: matrix size of the defining representation.
        order: the number of elements. A named group takes it from a
            closed form, and its enumeration must find exactly that many;
            ``close`` enumerates at once to find it.
        spec: the named-group spec string when built by name, else None.
        gen_arrays: the generators' (targets, int8 signs), with
            generators[g] e_j = signs[g, j] e_{targets[g, j]}, or None
            for a group stored dense.
        generators: (gen_count, dim, dim) array of the generators; a
            named group's is scattered from ``gen_arrays`` on first read
            and then kept.
        cayley: (order, gen_count) int array; cayley[e, g] is the index
            of element e times generator g.
        parents: (order, 2) int array of (parent element, generator)
            BFS links; (-1, -1) for the identity. Element e is
            element parents[e, 0] times generator parents[e, 1], and
            following the links back to the identity reads off e's
            shortest word, lexicographically smallest among ties.
        generator_ids: each generator's element index, found without
            enumerating (see the property).
    """

    def __init__(self, dim, order=None, spec=None, gen_arrays=None, generators=None):
        self.dim = dim
        self.order = order
        self.spec = spec
        self.gen_arrays = gen_arrays
        self._generators = generators
        self._cayley = self._parents = None

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

    def _enumerate(self):
        """Run the BFS, once, and keep its tree; return the group. A
        group of known order above ``MAX_ORDER``, or whose elements' keys
        (their signed codes, or dense matrices) would exceed
        ``MAX_IMAGE_STACK_BYTES``, raises before the BFS runs; otherwise
        it enumerates with its order as the cap and raises ClosureError
        unless it finds exactly that many elements. A group of unknown
        order takes what the BFS finds within ``MAX_ORDER``."""
        if self._cayley is not None:
            return self
        steps = _element_steps(self.gen_arrays, self._generators)
        cap = MAX_ORDER
        if self.order is not None:
            if self.order > MAX_ORDER:
                raise ClosureError(f"{self!r} has more elements than the enumeration cap "
                                   f"{MAX_ORDER=}")
            _check_fits(f"enumerating {self!r}: its elements' keys", self.order,
                        steps[0].nbytes)
            cap = self.order
        cayley, parents = _bfs(steps, self.gen_count, cap)
        if self.order is None:
            self.order = len(cayley)
        elif len(cayley) != self.order:
            raise ClosureError(f"{self!r} enumerates {len(cayley)} elements")
        self._cayley, self._parents = cayley, parents
        return self

    def __repr__(self):
        name = self.spec or f"<{self.gen_count} generators>"
        return f"FiniteGroup({name}, dim={self.dim}, order={self.order})"


def close(generators):
    """Close a generator set under multiplication (BFS, right products).

    The closure runs at once, since it alone finds the order. Signed
    permutation generators close on exact integer keys; any other set
    closes on rounded dense keys (see the module docstring). Raises
    ClosureError if more than ``MAX_ORDER`` elements appear, and
    ValueError for non-square, mismatched, or non-invertible generators.
    The group has no spec, so a model over it cannot be saved.
    """
    gens, perm = _generator_stack(generators, "generator")
    return FiniteGroup(gens.shape[1], gen_arrays=perm, generators=gens)._enumerate()


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


def _close_dense(gens):
    """``close`` on dense matrices deduplicated by ``_key``, whatever the
    generators: the path of every generator set that is not all signed
    permutations, and the test oracle for the other. On signed
    permutations both give the same cayley table and parent links, bit
    for bit, and their defining reps the same images: scattered into
    zeros, they are bitwise the dense products (a matmul sum of +-0.0
    terms starts from +0.0, so every zero it leaves is +0.0)."""
    gens = np.stack(gens)
    return FiniteGroup(gens.shape[1], generators=gens)._enumerate()


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


def _bfs(steps, gen_count, cap):
    """Level-synchronous breadth-first closure from the identity of the
    element algebra ``steps`` (``_element_steps``).

    Each level's products with every generator come from one
    ``times_all``, and ``keys`` tells equal elements. A level's keys are
    looked up in one ``map``, and Python visits only the products not
    seen before the level. New elements are numbered in (element,
    generator) order, which is the order a one-element-at-a-time queue
    finds them in; one past ``cap`` raises ClosureError. Returns only
    the tree, as the cayley table and the parent links: the search holds
    one level's element data at a time, and ``_walk`` gives every
    element's on demand.
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
                if size >= cap:
                    raise ClosureError(f"group not closed within {cap} elements")
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
    level and generator, one ``times`` of the parents' data. The tree is
    read (enumerating the group if nothing has yet) before the data is
    allocated, and data above ``MAX_IMAGE_STACK_BYTES`` raises ValueError."""
    identity, times = steps[:2]
    parent_of, gen_of = group.parents[:, 0], group.parents[:, 1]
    shape = (group.order,) + identity.shape
    _check_fits(f"the element data {shape} over {group!r}", group.order, identity.nbytes)
    data = np.empty(shape, dtype=identity.dtype)
    data[0] = identity
    lo = 1
    while lo < group.order:
        hi = int(np.searchsorted(parent_of, lo))
        level, parents, gens = data[lo:hi], parent_of[lo:hi], gen_of[lo:hi]
        for gi in range(group.gen_count):
            at = gens == gi
            level[at] = times(data[parents[at]], gi)
        lo = hi
    return data


def _signed_point_maps(targets, signs):
    """Signed permutation generators as index maps on their signed
    points: the n points themselves when every sign is +1, else 2n, where
    j stands for +e_j and n + j for -e_j."""
    if (signs == 1).all():
        return targets
    flip = np.where(signs < 0, targets.shape[1], 0)
    return np.concatenate([targets + flip, targets + (targets.shape[1] - flip)], axis=1)


def _satisfies_relators(group, gen_arrays):
    """Whether the signed permutation images ``gen_arrays`` of a named
    group's generators extend to a homomorphism, decided without
    enumerating the group: whether they satisfy every defining relator
    (``_named_relators``) of the group.

    The test is exact by von Dyck's theorem: images extend to a
    homomorphism exactly when they satisfy a set of defining relators.
    The group's own generators satisfy its relators (the test suite
    checks this for every kind), so the group they present maps onto G,
    and it is G itself when it has at most |G| elements. For cyclic:n,
    a^n alone leaves n elements. For the grid kinds, the relators let q
    and f pass a and b (turning them into other translations) and f
    pass q, so they rewrite any word as a^i b^j q^k f^l with 0 <= i, j
    < N and k and l below the orders of q and f: at most |G| words. For
    S_m this is the Coxeter-Moser presentation (Coxeter & Moser,
    Generators and Relations for Discrete Groups, 1957, section 6.2).

    Each relator is evaluated on the images' signed point maps
    (``_signed_point_maps``) by ``take``, with powers by repeated
    squaring, so ``a^N`` costs O(log N) compositions.
    """
    kind, _, size = group.spec.partition(":")
    maps = _signed_point_maps(*gen_arrays)
    identity = np.arange(maps.shape[1], dtype=maps.dtype)
    letters = {}

    def power(m, e):  # m^e for e >= 1, by repeated squaring
        out = None
        while e > 1:
            if e & 1:
                out = m if out is None else m.take(out)
            m, e = m.take(m), e >> 1
        return m if out is None else m.take(out)

    def letter(g, e):
        if (g, e) not in letters:
            m = maps[g]
            if e < 0:
                m = np.empty_like(m)
                m[maps[g]] = identity
            letters[g, e] = power(m, abs(e))
        return letters[g, e]

    for word, times in _named_relators(kind, int(size)):
        product = letter(*word[0])
        for g, e in word[1:]:
            product = letter(g, e).take(product)  # the letter acts after the word so far
        if not (power(product, times) == identity).all():
            return False
    return True


def _named_relators(kind, size):
    """The defining relators of a named group, as (word, power) pairs
    standing for word^power: a word is a tuple of (generator, exponent)
    letters in ``named_group``'s generator order, and applies its maps
    left to right (in "x y", x acts first).

    - size 1, any kind (one identity generator g): g;
    - ``cyclic:n`` (a): a^n;
    - ``symmetric:2`` (s): s^2;
    - ``symmetric:m``, m >= 3 (s = (0 1), c: j -> j+1): s^2, c^m,
      (s c)^(m-1), (s c^-1 s c)^3, and (s c^-j s c^j)^2 for
      2 <= j <= m-2;
    - ``torus:N`` (a, b): a^N, b^N, a b a^-1 b^-1;
    - ``p4:N`` (a, b, q) adds q^4 (q^2 when N = 2, where the quarter turn
      is the transpose), q a q^-1 b and q b q^-1 a^-1;
    - ``p4m:N`` (a, b, q, f) adds f^2 (f when N = 2, where the
      reflection is trivial), (f q)^2, f a f a and f b f b^-1.
    """
    a, b, q, f = (0, 1), (1, 1), (2, 1), (3, 1)  # s, c for symmetric
    if size == 1 or kind == "cyclic":
        return [((a,), size)]
    if kind == "symmetric":
        s, c = a, b
        if size == 2:
            return [((s,), 2)]
        return ([((s,), 2), ((c,), size), ((s, c), size - 1), ((s, (1, -1), s, c), 3)]
                + [((s, (1, -j), s, (1, j)), 2) for j in range(2, size - 1)])
    a_, b_, q_ = (0, -1), (1, -1), (2, -1)
    relators = [((a,), size), ((b,), size), ((a, b, a_, b_), 1)]
    if kind in ("p4", "p4m"):
        relators += [((q,), 2 if size == 2 else 4), ((q, a, q_, b), 1), ((q, b, q_, a_), 1)]
    if kind == "p4m":
        relators += [((f,), 1 if size == 2 else 2), ((f, q), 2), ((f, a, f, a), 1),
                     ((f, b, f, b_), 1)]
    return relators


def _permutation(perm):
    """``perm`` as an array, or ValueError unless each row permutes 0..n-1."""
    perm = np.asarray(perm)
    n = perm.shape[-1]
    if not (np.sort(perm, axis=-1) == np.arange(n)).all():
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm.tolist()}")
    return perm


def _grid_permutations(n_grid, kind):
    """The grid generators' index maps, sending pixel j to maps[g, j], in
    one (count, n * n) int64 array. Pixel (r, c) of the periodic n x n
    grid sits at index r*n + c, so each map is the outer sum of a row
    term and a column term, written straight into its row."""
    i = np.arange(n_grid)
    nxt, neg = (i + 1) % n_grid, -i % n_grid
    terms = [(nxt * n_grid, i), (i * n_grid, nxt),  # (r + 1, c) and (r, c + 1)
             (i, neg * n_grid),  # (-c, r): quarter turn about the origin
             (neg * n_grid, i)]  # (-r, c): reflection negating the row coordinate
    count = {"torus": 2, "p4": 3, "p4m": 4}[kind]
    maps = np.empty((count, n_grid * n_grid), dtype=np.int64)
    for row, (u, v) in zip(maps, terms):
        np.add(u[:, None], v, out=row.reshape(n_grid, n_grid))
    return maps


def named_group(kind, size):
    """Construct one of the named groups, from its generators alone.

    Kinds: ``symmetric(m)`` and ``cyclic(n)`` act on R^m / R^n by
    coordinate permutation; ``torus(N)``, ``p4(N)``, ``p4m(N)`` act as
    permutations of the N x N pixel grid with periodic boundary
    (translations; plus quarter-turn rotations; plus reflections).
    The group keeps its generators' index maps and its closed-form order
    (``_named_order``) and enumerates no element until one is read, so
    naming checks only two bounds, before anything is built: an order
    beyond int64, the type of every element index (from symmetric:21
    on), and generator index maps (int64 targets and int8 signs) above
    ``MAX_IMAGE_STACK_BYTES`` raise ValueError. Enumerating checks its
    own caps (``FiniteGroup._enumerate``), and walking a rep's element
    data its own (``_walk``).
    """
    if size < 1:
        raise ValueError(f"group size parameter must be >= 1, got {size}")
    if kind not in ("symmetric", "cyclic", "torus", "p4", "p4m"):
        raise ValueError(f"unknown group kind {kind!r}")
    spec = f"{kind}:{size}"
    order = _named_order(kind, size)
    if order >= 2 ** 63:
        raise ValueError(f"group {spec} has at least {order} elements, too many for int64 "
                         "element indices")
    count = 1 if size == 1 else {"symmetric": min(size - 1, 2), "cyclic": 1, "torus": 2,
                                 "p4": 3, "p4m": 4}[kind]
    degree = size if kind in ("symmetric", "cyclic") else size * size
    _check_fits(f"group {spec} has degree {degree}: its {count} generators' index maps",
                count, degree * 9)
    # every map is written into the one array the group keeps, so naming
    # allocates about what it checked
    if kind == "symmetric" and size > 2:  # (0 1) and j -> j + 1, m <= 20
        targets = np.array([[1, 0, *range(2, size)], [*range(1, size), 0]], dtype=np.int64)
    elif kind in ("torus", "p4", "p4m") and size > 1:
        targets = _grid_permutations(size, kind)
    else:  # the shift j -> j + 1 (mod n): also symmetric:2's swap
        targets = np.arange(1, size + 1, dtype=np.int64).reshape(1, size)
        targets[0, -1] = 0
    return FiniteGroup(targets.shape[1], order, spec,
                       gen_arrays=(targets, np.ones(targets.shape, np.int8)))


def _check_fits(what, count, item_bytes):
    """Refuse ``count`` items of ``item_bytes`` bytes each (the caller's
    generator data, element keys or element data) above
    ``MAX_IMAGE_STACK_BYTES``, before they are allocated."""
    nbytes = count * item_bytes
    if nbytes > MAX_IMAGE_STACK_BYTES:
        raise ValueError(f"{what} would take {nbytes} bytes, above the cap "
                         f"{MAX_IMAGE_STACK_BYTES=}")


def _named_order(kind, size):
    """The order of a named group, in closed form: n for cyclic:n, m!
    for symmetric:m, N^2 translations for torus:N, times the point
    group's c rotations (and reflections) for p4:N and p4m:N, where c is
    4 (8) for N >= 3, 2 for N = 2 (on a 2 x 2 grid the quarter turn is
    the transpose and the reflection is trivial) and 1 for N = 1. m!
    stops at its first partial product beyond int64, a lower bound that
    suffices to refuse the name."""
    if kind == "cyclic":
        return size
    if kind == "symmetric":
        order = 1
        for factor in range(2, size + 1):
            if order >= 2 ** 63:
                break
            order *= factor
        return order
    point = {"torus": 1, "p4": 4, "p4m": 8}[kind]
    return size * size * (point if size >= 3 else min(point, size))


def group_from_spec(spec):
    """Parse a ``kind:size`` spec string, e.g. ``symmetric:4``."""
    kind, sep, size = spec.partition(":")
    if not sep:
        raise ValueError(f"group spec {spec!r} must look like 'kind:size'")
    try:
        n = int(size)
    except ValueError:
        raise ValueError(f"group spec {spec!r} has non-integer size") from None
    return named_group(kind.strip(), n)
