"""Finite matrix groups built by breadth-first closure of a generator set.

Element 0 is always the identity. BFS order (queue order, generators
tried in index order) fixes a canonical element indexing. Each element
carries the generator word that reproduces it and its BFS parent link
(parent element, generator); representation extension replays the
parent links.

When every generator is exactly a signed permutation matrix (entries
-1, 0 or 1, one nonzero per row and column, as
``numerics.signed_permutations`` detects), the closure runs on integer
(targets, signs) arrays and deduplicates on their exact bytes. Only
other generator sets close on dense matrices deduplicated by the
rounding key ``_key``. On signed permutations both give the same
elements, words, cayley table and parent links, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, signed_permutation_matrices, signed_permutations

DEFAULT_MAX_ORDER = 20000

# Dedup per the small-integer / exact-trig entry regime: hash on entries
# rounded to 9 decimals, resolve collisions entrywise at 1e-6.
_ROUND_DECIMALS = 9
_MATCH_TOL = 1e-6


def _key(m):
    # +0.0 normalizes -0.0 so it hashes like +0.0
    return (np.round(m, _ROUND_DECIMALS) + 0.0).tobytes()


class ClosureError(RuntimeError):
    """Generator closure did not terminate within the element cap."""


@dataclass
class FiniteGroup:
    """Closure of a generator set, with canonical indexing.

    Fields:
        dim: matrix size of the defining representation.
        elements: (order, dim, dim) array, elements[0] = identity.
        generators: (gen_count, dim, dim) array of the input generators.
        words: per element, the generator-index word replaying it from
            the identity (left-to-right products). BFS gives the
            shortest word, lexicographically smallest among ties.
        cayley: (order, gen_count) int array; cayley[e, g] is the index
            of elements[e] @ generators[g].
        parents: (order, 2) int array of (parent element, generator)
            BFS links; (-1, -1) for the identity.
        spec: the named-group spec string when built by name, else None.
    """

    dim: int
    elements: np.ndarray
    generators: np.ndarray
    words: list
    cayley: np.ndarray
    parents: np.ndarray
    spec: str | None = None

    @property
    def order(self):
        return self.elements.shape[0]

    @property
    def gen_count(self):
        return self.generators.shape[0]

    @property
    def identity(self):
        return self.elements[0]

    def index_of(self, m):
        """Index of a matrix in the group, or ValueError if absent."""
        m = as_matrix(m, "element")
        if m.shape != (self.dim, self.dim):
            raise ValueError(
                f"element has shape {m.shape}, expected ({self.dim}, {self.dim})"
            )
        hits = np.flatnonzero(np.abs(self.elements - m).max(axis=(1, 2)) <= _MATCH_TOL)
        if hits.size == 0:
            raise ValueError("matrix is not an element of the group")
        return int(hits[0])

    def contains(self, m):
        try:
            self.index_of(m)
            return True
        except ValueError:
            return False

    def inverse_index(self, i):
        return self.index_of(np.linalg.inv(self.elements[i]))

    def __repr__(self):
        name = self.spec or f"<{self.gen_count} generators>"
        return f"FiniteGroup({name}, dim={self.dim}, order={self.order})"


def close(generators, max_order=DEFAULT_MAX_ORDER, spec=None):
    """Close a generator set under multiplication (BFS, right products).

    Signed permutation generators close on exact integer keys; any
    other set closes on rounded dense keys (see the module docstring).
    Raises ClosureError if more than ``max_order`` elements appear, and
    ValueError for non-square, mismatched, or non-invertible generators.
    """
    gens = [as_matrix(g, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise ValueError("at least one generator is required")
    dim = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (dim, dim):
            raise ValueError(
                f"generator {i} has shape {g.shape}, expected ({dim}, {dim})"
            )
        if abs(np.linalg.det(g)) <= 1e-9:
            raise ValueError(f"generator {i} is not invertible")
    perm = signed_permutations(np.stack(gens))
    if perm is None:
        return _close_dense(gens, max_order, spec)
    return _close_signed(gens, *perm, max_order, spec)


def _close_dense(gens, max_order=DEFAULT_MAX_ORDER, spec=None):
    """BFS over dense matrices, deduplicated on ``_key`` and resolved
    entrywise at ``_MATCH_TOL``: the path of every generator set that is
    not all signed permutations, and the test oracle for the other."""
    dim = gens[0].shape[0]
    elements, words, cayley, parents = _bfs(
        np.eye(dim), len(gens), lambda m, gi: m @ gens[gi], _key,
        lambda a, b: np.abs(a - b).max() <= _MATCH_TOL, max_order)
    return FiniteGroup(dim, np.stack(elements), np.stack(gens), words, cayley,
                       parents, spec)


def _close_signed(gens, targets, signs, max_order, spec):
    """``_close_dense`` for signed permutation generators, on integer arrays.

    Element e maps e_j to s_e[j] e_{t_e[j]}, so e @ g is (t_e[t_g],
    s_g * s_e[t_g]) and two elements are equal exactly when their bytes
    are. The BFS is the dense one, so words, cayley and parents are too,
    and the elements, scattered once into zeros, are bitwise the dense
    products (a matmul sum of +-0.0 terms starts from +0.0, so every
    zero it leaves is +0.0).
    """
    dim = gens[0].shape[0]
    signs = signs.astype(np.int8)

    def product(e, gi):
        t_g = targets[gi]
        return e[0][t_g], signs[gi] * e[1][t_g]

    found, words, cayley, parents = _bfs(
        (np.arange(dim), np.ones(dim, dtype=np.int8)), len(gens), product,
        lambda e: e[0].tobytes() + e[1].tobytes(), lambda a, b: True, max_order)
    elements = signed_permutation_matrices(np.stack([t for t, _ in found]),
                                           np.stack([s for _, s in found]))
    return FiniteGroup(dim, elements, np.stack(gens), words, cayley, parents, spec)


def _bfs(identity, gen_count, product, key, same, max_order):
    """Breadth-first closure from ``identity`` under ``product(element,
    generator index)``; an element is a repeat when an earlier one with
    the same ``key`` is ``same``. Returns the elements in BFS order, their
    words, the cayley table and the (parent, generator) links."""
    elements = [identity]
    words = [()]
    parents = [(-1, -1)]
    index = {key(identity): [0]}
    cayley_rows = []
    pos = 0
    while pos < len(elements):
        row = np.empty(gen_count, dtype=np.int64)
        for gi in range(gen_count):
            prod = product(elements[pos], gi)
            k = key(prod)
            j = next((i for i in index.get(k, ()) if same(elements[i], prod)), None)
            if j is None:
                if len(elements) >= max_order:
                    raise ClosureError(
                        f"group not closed within cap max_order={max_order}"
                    )
                j = len(elements)
                elements.append(prod)
                words.append(words[pos] + (gi,))
                parents.append((pos, gi))
                index.setdefault(k, []).append(j)
            row[gi] = j
        cayley_rows.append(row)
        pos += 1
    return elements, words, np.stack(cayley_rows), np.array(parents, dtype=np.int64)


def permutation_matrix(perm):
    """Matrix P with P e_j = e_perm[j] for a permutation of 0..n-1."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    p = np.zeros((n, n))
    for j, i in enumerate(perm):
        p[i, j] = 1.0
    return p


def _pixel_permutation(n_grid, pixel_map):
    perm = [0] * (n_grid * n_grid)
    for r in range(n_grid):
        for c in range(n_grid):
            r2, c2 = pixel_map(r, c)
            perm[r * n_grid + c] = (r2 % n_grid) * n_grid + (c2 % n_grid)
    return permutation_matrix(perm)


def _grid_generators(n_grid, kind):
    # Pixel (r, c) of the periodic n x n grid sits at index r*n + c.
    gens = [
        _pixel_permutation(n_grid, lambda r, c: (r + 1, c)),
        _pixel_permutation(n_grid, lambda r, c: (r, c + 1)),
    ]
    if kind in ("p4", "p4m"):
        # quarter turn about the origin: (r, c) -> (-c, r)
        gens.append(_pixel_permutation(n_grid, lambda r, c: (-c, r)))
    if kind == "p4m":
        # reflection negating the row coordinate
        gens.append(_pixel_permutation(n_grid, lambda r, c: (-r, c)))
    return gens


def named_group(kind, size, max_order=DEFAULT_MAX_ORDER):
    """Construct one of the named groups.

    Kinds: ``symmetric(m)`` and ``cyclic(n)`` act on R^m / R^n by
    coordinate permutation; ``torus(N)``, ``p4(N)``, ``p4m(N)`` act as
    permutations of the N x N pixel grid with periodic boundary
    (translations; plus quarter-turn rotations; plus reflections).
    A size whose group provably has more than ``max_order`` elements
    raises ClosureError before any generator is built.
    """
    if size < 1:
        raise ValueError(f"group size parameter must be >= 1, got {size}")
    if kind not in ("symmetric", "cyclic", "torus", "p4", "p4m"):
        raise ValueError(f"unknown group kind {kind!r}")
    _check_order_fits(kind, size, max_order)
    spec = f"{kind}:{size}"
    if kind == "symmetric":
        if size == 1:
            gens = [np.eye(1)]
        elif size == 2:
            gens = [permutation_matrix([1, 0])]
        else:
            swap = list(range(size))
            swap[0], swap[1] = 1, 0
            cycle = [(j + 1) % size for j in range(size)]
            gens = [permutation_matrix(swap), permutation_matrix(cycle)]
    elif kind == "cyclic":
        if size == 1:
            gens = [np.eye(1)]
        else:
            gens = [permutation_matrix([(j + 1) % size for j in range(size)])]
    else:
        if size == 1:
            gens = [np.eye(1)]
        else:
            gens = _grid_generators(size, kind)
    return close(gens, max_order=max_order, spec=spec)


def _check_order_fits(kind, size, max_order):
    """Raise ClosureError, before any generator is built, when the named
    group provably has more than ``max_order`` elements: n for cyclic:n,
    m! for symmetric:m, and the N^2 translations of the grid kinds."""
    if kind == "cyclic":
        least = size
    elif kind == "symmetric":
        least = 1
        for factor in range(2, size + 1):
            if least > max_order:
                break
            least *= factor
    else:
        least = size * size
    if least > max_order:
        raise ClosureError(
            f"{kind}:{size} has at least {least} elements, above the cap "
            f"max_order={max_order}"
        )


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
