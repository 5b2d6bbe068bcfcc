"""Finite matrix groups built by breadth-first closure of a generator set.

Element 0 is always the identity. BFS order (queue order, generators
tried in index order) fixes a canonical element indexing. Each element
carries the generator word that reproduces it and its BFS parent link
(parent element, generator); representation extension replays the
parent links.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix

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

    elements = [np.eye(dim)]
    words = [()]
    parents = [(-1, -1)]
    index = {_key(elements[0]): [0]}
    cayley_rows = []

    def lookup(m):
        for i in index.get(_key(m), []):
            if np.abs(elements[i] - m).max() <= _MATCH_TOL:
                return i
        return None

    pos = 0
    while pos < len(elements):
        row = np.empty(len(gens), dtype=np.int64)
        for gi, g in enumerate(gens):
            prod = elements[pos] @ g
            j = lookup(prod)
            if j is None:
                if len(elements) >= max_order:
                    raise ClosureError(
                        f"group not closed within cap max_order={max_order}"
                    )
                j = len(elements)
                elements.append(prod)
                words.append(words[pos] + (gi,))
                parents.append((pos, gi))
                index.setdefault(_key(prod), []).append(j)
            row[gi] = j
        cayley_rows.append(row)
        pos += 1

    return FiniteGroup(
        dim=dim,
        elements=np.stack(elements),
        generators=np.stack(gens),
        words=words,
        cayley=np.stack(cayley_rows),
        parents=np.array(parents, dtype=np.int64),
        spec=spec,
    )


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
