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

A spec on a signed permutation group is composed from the group's own
index arrays, not extended (``parse_rep_spec``); only its ``perm:``
leaves, whose images the user supplies, are replayed and checked.
``direct_sum`` and ``tensor_identity`` compose signed parts likewise.
"""

from functools import partial

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
    every element and generator (verified by ``extend``, or true by
    construction), and ``images[0]`` is the identity. ``gen_images`` is
    the (gen_count, n, n) stack. A signed permutation representation
    keeps (order, n) ``targets`` and int8 ``signs`` with
    images[e] e_j = signs[e, j] e_{targets[e, j]}, and scatters
    ``images`` from them on first read; any other keeps the dense
    (order, n, n) ``images`` and None for both. ``gen_images`` may also
    be given as a function returning the stack, and ``targets`` as one
    returning (targets, signs); each is called on first read.
    """

    def __init__(self, group, degree, gen_images, images,
                 spec=None, targets=None, signs=None):
        self.group = group
        self.degree = degree
        self._gen_images = gen_images
        self._images = images
        self.spec = spec
        self._targets = targets
        self._signs = signs

    @property
    def gen_images(self):
        if callable(self._gen_images):
            self._gen_images = self._gen_images()
        return self._gen_images

    def _index_arrays(self):
        if callable(self._targets):
            self._targets, self._signs = self._targets()
        return self._targets, self._signs

    targets = property(lambda self: self._index_arrays()[0])
    signs = property(lambda self: self._index_arrays()[1])

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


def _walk(group, identity, multiply):
    """Every element's image, by replaying the BFS tree from ``identity``.

    A level is the run of elements whose parents precede the level's
    start (``parents`` is non-decreasing in BFS order), and
    ``multiply(front, gi)`` stacks front[k] times generator gi[k].
    """
    images = np.empty((group.order,) + identity.shape, dtype=identity.dtype)
    images[0] = identity
    parent_of = group.parents[:, 0]
    lo = 1
    while lo < group.order:
        hi = int(np.searchsorted(parent_of, lo))
        images[lo:hi] = multiply(images[parent_of[lo:hi]], group.parents[lo:hi, 1])
        lo = hi
    return images


def _replay(group, identity, multiply, residuals, tol):
    """``_walk`` the BFS tree from ``identity``, then check the cayley
    table: ``residuals(images, gi)`` gives each element's residual
    against generator ``gi``, and the first generator with one above
    ``tol`` raises InconsistentImagesError.
    """
    images = _walk(group, identity, multiply)
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
    if group.targets is None:
        return np.stack([np.array([[np.linalg.det(g)]]) for g in group.generators])
    # a signed permutation's determinant is the parity of its targets
    # times the product of its signs; least[:, i] becomes the smallest
    # point on i's cycle by doubling the stretch of the cycle it covers
    targets = group.targets[group.cayley[0]]
    least = np.tile(np.arange(group.dim), (group.gen_count, 1))
    for _ in range((group.dim - 1).bit_length()):
        np.minimum(least, np.take_along_axis(least, targets, axis=1), out=least)
        targets = np.take_along_axis(targets, targets, axis=1)
    odd = (group.dim - (least == np.arange(group.dim)).sum(axis=1)) % 2
    dets = (1 - 2 * odd) * group.signs[group.cayley[0]].prod(axis=1)
    return dets.astype(np.float64).reshape(-1, 1, 1)


def _perm_images(group, perms):
    """``_image_stack`` of one permutation per generator."""
    return _image_stack(group, [permutation_matrix(p) for p in perms])


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
    _check_tensor_factor(d)
    return np.stack([np.kron(g, np.eye(d)) for g in gen_images])


def _check_tensor_factor(d):
    if d < 1:
        raise ValueError("tensor factor must be >= 1")


# --- index arrays of composed representations ------------------------------
#
# Each returns the (count, n) targets (int64, as ``extend`` stores them)
# and signs of a stack of signed permutations.


def _sum_arrays(parts):
    """Block-diagonal sum of (targets, signs) pairs: part k's targets
    shift by the degrees of the parts before it."""
    targets = np.empty((len(parts[0][0]), sum(t.shape[1] for t, _ in parts)), dtype=np.int64)
    at = 0
    for t, _ in parts:
        np.add(t, at, out=targets[:, at:at + t.shape[1]])
        at += t.shape[1]
    return targets, np.concatenate([s for _, s in parts], axis=1)


def _tensor_arrays(targets, signs, d):
    """rho (x) I_d: column j*d + a goes to targets[j]*d + a, with sign
    signs[j]."""
    lifted = np.repeat(targets * d, d, axis=1)
    lifted += np.tile(np.arange(d), targets.shape[1])
    return lifted, np.repeat(signs, d, axis=1)


def _determinants(group):
    """Each element's determinant (int8) on a signed permutation group,
    accumulated along the BFS tree from the generators' (``_sign_images``)."""
    gen_dets = _sign_images(group)[:, 0, 0].astype(np.int8)
    return _walk(group, np.ones((), dtype=np.int8), lambda front, gi: front * gen_dets[gi])


def defining_rep(group):
    """The group acting by its own matrices."""
    return parse_rep_spec(group, "defining")


def trivial_rep(group, degree=1):
    """Every element acts as the identity on R^degree."""
    return extend(group, _trivial_images(group, degree), spec=f"trivial:{degree}")


def sign_rep(group):
    """Degree-1 representation by generator determinants."""
    return parse_rep_spec(group, "sign")


def permutation_rep(group, perms):
    """Representation from one coordinate permutation per generator."""
    return extend(group, _perm_images(group, perms)[0], spec=_perm_spec(perms))


def direct_sum(reps):
    """Block-diagonal sum of representations of the same group; signed
    permutation parts are composed, any other is extended."""
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    group = reps[0].group
    if any(r.group is not group for r in reps):
        raise ValueError("direct_sum requires representations of the same group")
    spec = None
    if all(r.spec for r in reps):
        spec = "sum(" + ";".join(r.spec for r in reps) + ")"
    gen_images = _sum_images([r.gen_images for r in reps])
    if any(r.targets is None for r in reps):
        return extend(group, gen_images, spec=spec)
    return Representation(group, gen_images.shape[1], gen_images, None, spec,
                          *_sum_arrays([(r.targets, r.signs) for r in reps]))


def tensor_identity(rep, d):
    """Kronecker lift rho(g) (x) I_d; size-d blocks move together. A
    signed permutation rep is composed, any other is extended."""
    spec = f"tensor:{d}({rep.spec})" if rep.spec else None
    gen_images = _tensor_images(rep.gen_images, d)
    if rep.targets is None:
        return extend(rep.group, gen_images, spec=spec)
    return Representation(rep.group, rep.degree * d, gen_images, None, spec,
                          *_tensor_arrays(rep.targets, rep.signs, d))


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

    On a signed permutation group the representation is composed (see
    the module docstring); its generator images and index arrays are
    built on first read, so a solve, which reads only generator images,
    composes nothing per element. The ``perm:`` leaves are validated as
    their image builders validate them, then replayed and checked once,
    together, as one block-diagonal representation. On any other group
    ``extend`` runs once, on the outermost spec's images. Either way one
    check covers every part, so when the images of a part do not factor
    through the group, the InconsistentImagesError names the outermost
    representation's first failing pair: the first generator whose
    check fails, at the first element with the largest residual over
    all parts. With one failing part that is the part's own pair.
    """
    degree, node, spec, pos = _parse_spec(group, text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError(f"trailing characters in rep spec {text!r}")
    _check_stack_fits(f"rep spec {spec!r}", group.gen_count, degree, MAX_IMAGE_STACK_BYTES)
    if group.targets is None:
        return extend(group, _spec_images(group, node), spec=spec)
    leaves = []
    compose = _composer(group, node, leaves)
    if degree == 0:  # the image validator's message for a (gen_count, 0, 0) stack
        raise ValueError("generator image 0 must be nonempty")
    # one replay and cayley check of the perm: leaves' block-diagonal sum
    block = _extend_signed(group, *_sum_arrays(leaves), CONSISTENCY_TOL) if leaves else None
    return Representation(group, degree, partial(_spec_images, group, node), None,
                          spec, partial(compose, block))


def parse_rep_chain(group, specs):
    """``parse_rep_spec`` of each spec string in turn, parsing each
    distinct string once: equal specs in a chain share one
    Representation, whose index arrays are then composed once."""
    parsed = {}
    chain = []
    for spec in specs:
        if spec not in parsed:
            parsed[spec] = parse_rep_spec(group, spec)
        chain.append(parsed[spec])
    return chain


# A parsed spec is a (kind, argument) node: ("defining", None),
# ("sign", None), ("trivial", D), ("perm", perms), ("tensor", (D, node))
# or ("sum", [node, ...]).


def _spec_images(group, node):
    """The (gen_count, n, n) generator-image stack of a parsed spec."""
    kind, arg = node
    if kind == "tensor":
        return _tensor_images(_spec_images(group, arg[1]), arg[0])
    if kind == "sum":
        return _sum_images([_spec_images(group, part) for part in arg])
    if kind == "perm":
        return _perm_images(group, arg)[0]
    if kind == "trivial":
        return _trivial_images(group, arg)
    return group.generators if kind == "defining" else _sign_images(group)


def _composer(group, node, leaves):
    """Raise what ``_spec_images`` would raise, in its order, append each
    ``perm:`` leaf's generator (targets, signs) to ``leaves``, and return
    the function that maps the leaves' replayed block-diagonal sum to
    every element's (targets, signs) under the spec."""
    kind, arg = node
    if kind == "tensor":
        inner = _composer(group, arg[1], leaves)
        _check_tensor_factor(arg[0])
        return lambda block: _tensor_arrays(*inner(block), arg[0])
    if kind == "sum":
        parts = [_composer(group, part, leaves) for part in arg]
        return lambda block: _sum_arrays([part(block) for part in parts])
    if kind == "perm":
        at = sum(t.shape[1] for t, _ in leaves)
        leaves.append(_perm_images(group, arg)[1])
        end = at + leaves[-1][0].shape[1]
        return lambda block: (block[0][:, at:end] - at, np.ascontiguousarray(block[1][:, at:end]))
    if kind == "trivial":
        return lambda block: (np.tile(np.arange(arg, dtype=np.int64), (group.order, 1)),
                              np.ones((group.order, arg), dtype=np.int8))
    if kind == "defining":
        return lambda block: (group.targets, group.signs)
    return lambda block: (np.zeros((group.order, 1), dtype=np.int64),
                          _determinants(group)[:, None])


def _parse_spec(group, text, pos):
    """(degree, parsed node, canonical spec, end position) of the spec
    starting at ``pos``."""
    rest = text[pos:]
    if rest.startswith("defining"):
        return group.dim, ("defining", None), "defining", pos + len("defining")
    if rest.startswith("sign"):
        return 1, ("sign", None), "sign", pos + len("sign")
    if rest.startswith("trivial:"):
        num, end = _parse_int(text, pos + len("trivial:"))
        return num, ("trivial", num), f"trivial:{num}", end
    if rest.startswith("perm:"):
        return _parse_perm(text, pos + len("perm:"))
    if rest.startswith("tensor:"):
        num, end = _parse_int(text, pos + len("tensor:"))
        if end >= len(text) or text[end] != "(":
            raise ValueError(f"expected '(' at position {end} in rep spec {text!r}")
        degree, inner, spec, end = _parse_spec(group, text, end + 1)
        if end >= len(text) or text[end] != ")":
            raise ValueError(f"expected ')' at position {end} in rep spec {text!r}")
        spec = f"tensor:{num}({spec})"
        # the node's own stack, kron(g, I_num), holds I_num too; the cap on
        # the spec's total degree bounds it unless the inner rep has width 0
        if degree == 0 and num * num * 8 > MAX_IMAGE_STACK_BYTES:
            raise ValueError(
                f"rep spec {spec!r} has degree 0 but tensor factor {num}: its identity "
                f"I_{num} would take {num * num * 8} bytes, above the cap "
                f"MAX_IMAGE_STACK_BYTES={MAX_IMAGE_STACK_BYTES}"
            )
        return degree * num, ("tensor", (num, inner)), spec, end + 1
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
                return degree, ("sum", parts), "sum(" + ";".join(specs) + ")", pos + 1
            raise ValueError(f"expected ';' or ')' at position {pos} in rep spec {text!r}")
    raise ValueError(f"unrecognized rep spec at position {pos} in {text!r}")


def _parse_int(text, pos):
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ValueError(f"expected integer at position {pos} in rep spec {text!r}")
    return int(text[pos:end]), end


def _parse_perm(text, pos):
    end = pos
    while end < len(text) and (text[end].isdigit() or text[end] in ",|"):
        end += 1
    perms = []
    for part in text[pos:end].split("|"):
        if not part:
            raise ValueError(f"empty permutation in rep spec {text!r}")
        perms.append([int(i) for i in part.split(",")])
    degree = max(len(p) for p in perms)
    return degree, ("perm", perms), _perm_spec(perms), end
