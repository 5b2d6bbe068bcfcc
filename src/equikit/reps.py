"""Representations of a finite matrix group, defined by generator images.

A representation is stored per group element, built by one replay of
the group's BFS tree, a level at a time (``_replay``). Extension then
verifies the homomorphism property (images consistent with the cayley
table), which is exactly the well-definedness check for the generator
images. The images pass the group's validator, which calls ``det`` only
when they are not all signed permutations.

When every generator image is exactly a signed permutation matrix
(``numerics.signed_permutations``), the replay and the check run on
integer signed codes (``numerics.sign_flips``), and the representation
stores an integer (targets, signs) pair of index arrays per element;
``images`` is a dense view scattered from them on first read. Residuals,
errors and images are bitwise the dense path's. Only other images are
multiplied, compared and stored as dense matrices.
"""

import numpy as np

from .groups import (
    MAX_IMAGE_STACK_BYTES,
    _check_stack_fits,
    _generator_stack,
    permutation_matrix,
)
from .numerics import (
    check_tol,
    nullspace,
    sign_flips,
    signed_permutation_matrices,
    split_signed_codes,
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


class Representation:
    """Group representation with per-element images.

    ``images[e] @ gen_images[g]`` matches ``images[cayley[e, g]]`` for
    every element and generator (verified by ``extend``), and
    ``images[0]`` is the identity. ``gen_images`` is the
    (gen_count, n, n) stack. A signed permutation representation keeps
    (order, n) ``targets`` and int8 ``signs`` with
    images[e] e_j = signs[e, j] e_{targets[e, j]}, and scatters
    ``images`` from them on first read; any other keeps the dense
    (order, n, n) ``images`` and None for both.
    """

    def __init__(self, group, degree, gen_images, images,
                 spec=None, targets=None, signs=None):
        self.group = group
        self.degree = degree
        self.gen_images = gen_images
        self._images = images
        self.spec = spec
        self.targets = targets
        self.signs = signs

    @property
    def images(self):
        if self._images is None:
            self._images = signed_permutation_matrices(self.targets, self.signs)
        return self._images

    def act(self, indices, vectors):
        """rho(element e) applied to each row of ``vectors``, for each e
        in the index array ``indices``: the (k, batch, n) stack of
        ``vectors @ images[e].T``. Dense images take one stacked matmul;
        a signed permutation moves and signs the coordinates in one
        scatter, without building an image."""
        indices = np.asarray(indices)
        if self.targets is None:
            return np.matmul(vectors, self.images[indices].transpose(0, 2, 1))
        k, (batch, n) = indices.size, vectors.shape
        out = np.empty((k, batch, n))
        at = self.targets[indices][:, None, :] + np.arange(0, out.size, n).reshape(k, batch, 1)
        out.reshape(-1)[at] = vectors * self.signs[indices][:, None, :]
        return out

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
    gen_images, perm = _image_stack(group, gen_images)
    degree = gen_images.shape[1]
    if perm is None:
        images = _extend_dense(group, gen_images, tol)
        return Representation(group, degree, gen_images, images, spec)
    targets, signs = _extend_signed(group, *perm, tol)
    return Representation(group, degree, gen_images, None, spec, targets, signs)


def _image_stack(group, gen_images):
    """``groups._generator_stack`` of one image per generator."""
    if len(gen_images) != group.gen_count:
        raise ValueError(
            f"need {group.gen_count} generator images, got {len(gen_images)}"
        )
    return _generator_stack(gen_images, "generator image")


def _extend_dense(group, gen_images, tol):
    """Images by matmul replay of the parent links, checked against the
    cayley table: the path of every image set that is not all signed
    permutations, and the test oracle for the other. A level's products
    are one stacked ``np.matmul``, bitwise the per-element ``@``."""
    def residuals(images, gi):
        dev = images @ gen_images[gi]
        dev -= images[group.cayley[:, gi]]
        np.abs(dev, out=dev)
        return dev.max(axis=(1, 2))

    return _replay(group, np.eye(gen_images.shape[1]),
                   lambda front, gi: np.matmul(front, gen_images[gi]), residuals, tol)


def _extend_signed(group, targets, signs, tol):
    """``_extend_dense`` for signed permutation images, on signed codes;
    returns the (targets, signs) index arrays of every image.

    A level's products are one gather and one xor. The residual of a
    column is what the dense ``|lhs - rhs|`` gives: 1 where the targets
    differ, 2 where only the sign does, else 0. So ``tol`` and the error
    are the dense path's, and the images, scattered into zeros, are
    bitwise the dense products (whose zeros are all +0.0). The codes are
    compared first, and the float residuals are built only when some
    differ.
    """
    flips = sign_flips(signs)

    def residuals(codes, gi):
        lhs = codes[:, targets[gi]]
        lhs ^= flips[gi]
        rhs = codes[group.cayley[:, gi]]
        if np.array_equal(lhs, rhs):
            return np.zeros(group.order)
        return np.where(lhs == rhs, 0.0, np.where(lhs == ~rhs, 2.0, 1.0)).max(axis=1)

    codes = _replay(
        group, np.arange(targets.shape[1], dtype=flips.dtype),
        lambda front, gi: np.take_along_axis(front, targets[gi], axis=1) ^ flips[gi],
        residuals, tol)
    return split_signed_codes(codes)


def _replay(group, identity, multiply, residuals, tol):
    """Replay the BFS tree from ``identity``, then check the cayley table.

    A level is the run of elements whose parents precede the level's
    start (``parents`` is non-decreasing in BFS order), and
    ``multiply(front, gi)`` stacks front[k] times generator gi[k].
    ``residuals(images, gi)`` gives each element's residual against
    generator ``gi``, and the first generator with one above ``tol``
    raises InconsistentImagesError.
    """
    images = np.empty((group.order,) + identity.shape, dtype=identity.dtype)
    images[0] = identity
    parent_of = group.parents[:, 0]
    lo = 1
    while lo < group.order:
        hi = int(np.searchsorted(parent_of, lo))
        images[lo:hi] = multiply(images[parent_of[lo:hi]], group.parents[lo:hi, 1])
        lo = hi
    for gi in range(group.gen_count):
        dev = residuals(images, gi)
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            raise InconsistentImagesError(worst, gi, float(dev[worst]))
    return images


# --- generator images of the named representations ------------------------
#
# Each builder returns a (gen_count, n, n) stack; the public constructors
# below and ``parse_rep_spec`` extend it to the whole group.


def _trivial_images(group, degree):
    return np.stack([np.eye(degree)] * group.gen_count)


def _sign_images(group):
    return np.stack([np.array([[np.linalg.det(g)]]) for g in group.generators])


def _perm_images(group, perms):
    return _image_stack(group, [permutation_matrix(p) for p in perms])[0]


def _perm_spec(perms):
    return "perm:" + "|".join(",".join(str(i) for i in p) for p in perms)


def _sum_images(parts):
    """Block-diagonal generator images of a direct sum of image stacks."""
    count = parts[0].shape[0]
    total = sum(p.shape[1] for p in parts)
    stack = np.zeros((count, total, total))
    at = 0
    for p in parts:
        n = p.shape[1]
        stack[:, at:at + n, at:at + n] = p
        at += n
    return stack


def _tensor_images(gen_images, d):
    """Generator images of rho (x) I_d; size-d blocks move together."""
    if d < 1:
        raise ValueError("tensor factor must be >= 1")
    return np.stack([np.kron(g, np.eye(d)) for g in gen_images])


def defining_rep(group):
    """The group acting by its own matrices."""
    return extend(group, group.generators, spec="defining")


def trivial_rep(group, degree=1):
    """Every element acts as the identity on R^degree."""
    return extend(group, _trivial_images(group, degree), spec=f"trivial:{degree}")


def sign_rep(group):
    """Degree-1 representation by generator determinants."""
    return extend(group, _sign_images(group), spec="sign")


def permutation_rep(group, perms):
    """Representation from one coordinate permutation per generator."""
    return extend(group, _perm_images(group, perms), spec=_perm_spec(perms))


def direct_sum(reps):
    """Block-diagonal sum of representations of the same group."""
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    group = reps[0].group
    if any(r.group is not group for r in reps):
        raise ValueError("direct_sum requires representations of the same group")
    spec = None
    if all(r.spec for r in reps):
        spec = "sum(" + ";".join(r.spec for r in reps) + ")"
    return extend(group, _sum_images([r.gen_images for r in reps]), spec=spec)


def tensor_identity(rep, d):
    """Kronecker lift rho(g) (x) I_d; size-d blocks move together."""
    spec = f"tensor:{d}({rep.spec})" if rep.spec else None
    return extend(rep.group, _tensor_images(rep.gen_images, d), spec=spec)


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
    """Build a representation from its spec string.

    The spec's degree n is known before any image is built: a spec whose
    dense (gen_count, n, n) float64 generator-image stack would exceed
    ``MAX_IMAGE_STACK_BYTES`` raises ValueError naming the spec and its
    degree, and builds nothing.

    Sub-specs yield only generator images; ``extend`` runs once, on the
    outermost spec, and its check covers every part. So when the images
    of a part do not factor through the group, the
    InconsistentImagesError names the outermost representation's first
    failing pair: the first generator whose check fails, at the first
    element with the largest residual over all parts. With one failing
    part that is the part's own pair.
    """
    degree, images, spec, pos = _parse_spec(group, text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError(f"trailing characters in rep spec {text!r}")
    _check_stack_fits(f"rep spec {spec!r}", group.gen_count, degree, MAX_IMAGE_STACK_BYTES)
    return extend(group, images(), spec=spec)


def _parse_spec(group, text, pos):
    """(degree, generator image stack builder, canonical spec, end
    position) of the spec starting at ``pos``; the builder takes no
    arguments and returns the (gen_count, n, n) stack."""
    rest = text[pos:]
    if rest.startswith("defining"):
        return group.dim, lambda: group.generators, "defining", pos + len("defining")
    if rest.startswith("sign"):
        return 1, lambda: _sign_images(group), "sign", pos + len("sign")
    if rest.startswith("trivial:"):
        num, end = _parse_int(text, pos + len("trivial:"))
        return num, lambda: _trivial_images(group, num), f"trivial:{num}", end
    if rest.startswith("perm:"):
        return _parse_perm(group, text, pos + len("perm:"))
    if rest.startswith("tensor:"):
        num, end = _parse_int(text, pos + len("tensor:"))
        if end >= len(text) or text[end] != "(":
            raise ValueError(f"expected '(' at position {end} in rep spec {text!r}")
        degree, inner, spec, end = _parse_spec(group, text, end + 1)
        if end >= len(text) or text[end] != ")":
            raise ValueError(f"expected ')' at position {end} in rep spec {text!r}")
        return (degree * num, lambda: _tensor_images(inner(), num),
                f"tensor:{num}({spec})", end + 1)
    if rest.startswith("sum("):
        degree, parts, specs = 0, [], []
        pos += len("sum(")
        while True:
            part_degree, inner, spec, pos = _parse_spec(group, text, pos)
            degree += part_degree
            parts.append(inner)
            specs.append(spec)
            if pos < len(text) and text[pos] == ";":
                pos += 1
                continue
            if pos < len(text) and text[pos] == ")":
                return (degree, lambda: _sum_images([p() for p in parts]),
                        "sum(" + ";".join(specs) + ")", pos + 1)
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
    degree = max(len(p) for p in perms)
    return degree, lambda: _perm_images(group, perms), _perm_spec(perms), end
