"""Representations of a finite matrix group, defined by generator images.

A representation is stored fully materialized: one matrix per group
element, built by replaying the BFS parent links. Extension verifies
the homomorphism property (images consistent with the cayley table),
which is exactly the well-definedness check for the generator images.

When every generator image is exactly a signed permutation matrix
(``numerics.signed_permutations``), the replay and the check run on
integer (targets, signs) arrays, and the images are filled in once at
the end; residuals, errors and images are bitwise the dense path's.
Only other images are multiplied and compared as dense matrices.
"""

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, permutation_matrix
from .numerics import (
    as_matrix,
    check_tol,
    nullspace,
    signed_permutation_matrices,
    signed_permutations,
)

CONSISTENCY_TOL = 1e-8


class InconsistentImagesError(ValueError):
    """Generator images do not factor through the group.

    Carries the offending (element, generator) pair and the residual.
    """

    def __init__(self, element, generator, residual):
        self.element = element
        self.generator = generator
        self.residual = residual
        super().__init__(
            f"generator images are inconsistent: element {element} * "
            f"generator {generator} deviates by {residual:.3e}"
        )


@dataclass
class Representation:
    """Group representation with per-element images.

    ``images[e] @ gen_images[g]`` matches ``images[cayley[e, g]]`` for
    every element and generator (verified on construction), and
    ``images[0]`` is the identity.
    """

    group: FiniteGroup
    degree: int
    gen_images: np.ndarray  # (gen_count, n, n)
    images: np.ndarray      # (order, n, n)
    spec: str | None = None

    def image(self, i):
        return self.images[i]

    def __repr__(self):
        name = self.spec or "<custom>"
        return f"Representation({name}, degree={self.degree}, |G|={self.group.order})"


def extend(group, gen_images, spec=None, tol=CONSISTENCY_TOL):
    """Build the representation generated by one image per generator.

    Signed permutation images are replayed and checked on integer arrays;
    any other images by dense products (see the module docstring).
    Raises InconsistentImagesError when the images do not define a
    homomorphism (the map fails to factor through the group relations),
    and ValueError for a ``tol`` that is not finite and non-negative.
    """
    check_tol(tol, strict=False)
    imgs = [as_matrix(m, f"generator image {i}") for i, m in enumerate(gen_images)]
    if len(imgs) != group.gen_count:
        raise ValueError(
            f"need {group.gen_count} generator images, got {len(imgs)}"
        )
    degree = imgs[0].shape[0]
    for i, m in enumerate(imgs):
        if m.shape != (degree, degree):
            raise ValueError(f"generator image {i} has shape {m.shape}")
        if abs(np.linalg.det(m)) <= 1e-9:
            raise ValueError(f"generator image {i} is not invertible")
    gen_images = np.stack(imgs)
    perm = signed_permutations(gen_images)
    if perm is None:
        images = _extend_dense(group, gen_images, tol)
    else:
        images = _extend_signed(group, *perm, tol)
    return Representation(group, degree, gen_images, images, spec=spec)


def _extend_dense(group, gen_images, tol):
    """Images by matmul replay of the parent links, checked against the
    cayley table: the path of every image set that is not all signed
    permutations, and the test oracle for the other."""
    degree = gen_images.shape[1]
    images = np.empty((group.order, degree, degree))
    images[0] = np.eye(degree)
    for e in range(1, group.order):
        parent, gi = group.parents[e]
        images[e] = images[parent] @ gen_images[gi]

    for gi in range(group.gen_count):
        dev = images @ gen_images[gi]
        dev -= images[group.cayley[:, gi]]
        np.abs(dev, out=dev)
        _raise_if_inconsistent(dev.max(axis=(1, 2)), gi, tol)
    return images


def _extend_signed(group, targets, signs, tol):
    """``_extend_dense`` for signed permutation images, on integer arrays.

    Element e maps e_j to s[e, j] e_{t[e, j]}. The residual of a column
    is what the dense ``|lhs - rhs|`` gives: 1 where the targets differ,
    2 where only the sign does, else 0. So ``tol`` and the error are the
    dense path's, and the images, scattered once into zeros, are bitwise
    the dense products (whose zeros are all +0.0).
    """
    order, degree = group.order, targets.shape[1]
    signs = signs.astype(np.int8)
    t = np.empty((order, degree), dtype=targets.dtype)
    s = np.empty((order, degree), dtype=np.int8)
    t[0], s[0] = np.arange(degree), 1
    for e in range(1, order):
        parent, gi = group.parents[e]
        t_g = targets[gi]
        t[e], s[e] = t[parent][t_g], signs[gi] * s[parent][t_g]

    for gi in range(group.gen_count):
        t_g, other = targets[gi], group.cayley[:, gi]
        dev = np.where(t[:, t_g] != t[other], 1.0,
                       np.where(signs[gi] * s[:, t_g] != s[other], 2.0, 0.0))
        _raise_if_inconsistent(dev.max(axis=1), gi, tol)

    return signed_permutation_matrices(t, s)


def _raise_if_inconsistent(dev, gi, tol):
    """``dev`` holds each element's residual against generator ``gi``."""
    worst = int(np.argmax(dev))
    if dev[worst] > tol:
        raise InconsistentImagesError(worst, gi, float(dev[worst]))


def defining_rep(group):
    """The group acting by its own matrices."""
    return extend(group, group.generators, spec="defining")


def trivial_rep(group, degree=1):
    """Every element acts as the identity on R^degree."""
    return extend(
        group,
        [np.eye(degree)] * group.gen_count,
        spec=f"trivial:{degree}",
    )


def sign_rep(group):
    """Degree-1 representation by generator determinants."""
    return extend(
        group,
        [np.array([[np.linalg.det(g)]]) for g in group.generators],
        spec="sign",
    )


def permutation_rep(group, perms):
    """Representation from one coordinate permutation per generator."""
    spec = "perm:" + "|".join(",".join(str(i) for i in p) for p in perms)
    return extend(group, [permutation_matrix(p) for p in perms], spec=spec)


def direct_sum(reps):
    """Block-diagonal sum of representations of the same group."""
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    group = reps[0].group
    if any(r.group is not group for r in reps):
        raise ValueError("direct_sum requires representations of the same group")
    gen_images = []
    for gi in range(group.gen_count):
        blocks = [r.gen_images[gi] for r in reps]
        total = sum(b.shape[0] for b in blocks)
        m = np.zeros((total, total))
        at = 0
        for b in blocks:
            m[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        gen_images.append(m)
    spec = None
    if all(r.spec for r in reps):
        spec = "sum(" + ";".join(r.spec for r in reps) + ")"
    return extend(group, gen_images, spec=spec)


def tensor_identity(rep, d):
    """Kronecker lift rho(g) (x) I_d; size-d blocks move together."""
    if d < 1:
        raise ValueError("tensor factor must be >= 1")
    spec = f"tensor:{d}({rep.spec})" if rep.spec else None
    return extend(
        rep.group,
        [np.kron(g, np.eye(d)) for g in rep.gen_images],
        spec=spec,
    )


def is_permutation_rep(rep, tol=1e-9):
    """True iff every element image is a permutation matrix.

    Only the generator images are tested: ``extend`` builds every image
    as a product of generator images (and checks it against the cayley
    table), and products of permutation matrices are permutation
    matrices. ``tol`` must be finite and non-negative.
    """
    check_tol(tol, strict=False)
    imgs = rep.gen_images
    near_one = np.abs(imgs - 1.0) <= tol
    near_zero = np.abs(imgs) <= tol
    if not (near_one | near_zero).all():
        return False
    ones = near_one.sum(axis=2)
    if not (ones == 1).all():
        return False
    return bool((near_one.sum(axis=1) == 1).all())


def fixed_subspace(rep, tol=1e-9):
    """Orthonormal basis of {b : rho(g) b = b for all generators g}.

    Computed as the nullspace of the stacked (rho(g) - I) blocks. The
    columns are fixed by the whole group (generators suffice), and the
    result may legitimately have zero columns.
    """
    eye = np.eye(rep.degree)
    stacked = np.vstack([g - eye for g in rep.gen_images])
    if np.abs(stacked).max() == 0.0:
        return np.eye(rep.degree)
    return nullspace(stacked, tol=tol)


# --- representation spec strings ------------------------------------------
#
# spec := 'defining' | 'sign' | 'trivial:D' | 'perm:p1|p2|...'
#       | 'tensor:D(spec)' | 'sum(spec;spec;...)'


def parse_rep_spec(group, text):
    """Build a representation from its spec string."""
    spec, pos = _parse_spec(group, text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError(f"trailing characters in rep spec {text!r}")
    return spec


def _parse_spec(group, text, pos):
    rest = text[pos:]
    if rest.startswith("defining"):
        return defining_rep(group), pos + len("defining")
    if rest.startswith("sign"):
        return sign_rep(group), pos + len("sign")
    if rest.startswith("trivial:"):
        num, end = _parse_int(text, pos + len("trivial:"))
        return trivial_rep(group, num), end
    if rest.startswith("perm:"):
        return _parse_perm(group, text, pos + len("perm:"))
    if rest.startswith("tensor:"):
        num, end = _parse_int(text, pos + len("tensor:"))
        if end >= len(text) or text[end] != "(":
            raise ValueError(f"expected '(' at position {end} in rep spec {text!r}")
        inner, end = _parse_spec(group, text, end + 1)
        if end >= len(text) or text[end] != ")":
            raise ValueError(f"expected ')' at position {end} in rep spec {text!r}")
        return tensor_identity(inner, num), end + 1
    if rest.startswith("sum("):
        parts = []
        pos += len("sum(")
        while True:
            inner, pos = _parse_spec(group, text, pos)
            parts.append(inner)
            if pos < len(text) and text[pos] == ";":
                pos += 1
                continue
            if pos < len(text) and text[pos] == ")":
                return direct_sum(parts), pos + 1
            raise ValueError(f"expected ';' or ')' at position {pos} in rep spec {text!r}")
    raise ValueError(f"unrecognized rep spec at position {pos} in {text!r}")


def _parse_int(text, pos):
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ValueError(f"expected integer at position {pos} in rep spec {text!r}")
    return int(text[pos:end]), end


def _parse_perm(group, text, pos):
    end = pos
    while end < len(text) and (text[end].isdigit() or text[end] in ",|"):
        end += 1
    perms = []
    for part in text[pos:end].split("|"):
        if not part:
            raise ValueError(f"empty permutation in rep spec {text!r}")
        perms.append([int(i) for i in part.split(",")])
    return permutation_rep(group, perms), end
