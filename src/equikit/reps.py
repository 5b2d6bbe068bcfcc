"""Representations of a finite matrix group, stored as their generators' data.

A representation is fixed by its generators' images: a dense
(gen_count, n, n) stack, or the integer (targets, signs) index arrays of
a signed permutation rep, the one source every consumer reads. Every
element's data is walked from them down the group's BFS tree on first
read (``_walk``) and kept, unless the caller already holds it:
``extend``'s replay, ``defining_rep``'s group, ``trivial_rep``'s
constants. Index arrays walk as signed codes (``numerics.sign_flips``)
of the narrowest integer type, then split; dense images walk by stacked
matmuls, and a signed rep's are scattered from its arrays.

Only images the user supplies (``extend``, hence ``permutation_rep`` and
``perm:`` spec leaves) are replayed: the walk, then a check against the
cayley table, which is exactly the well-definedness check for the
generator images. Their validator calls ``det`` only when they are not
all signed permutations (``numerics.signed_permutations``), which replay
and check on codes. Every other constructor builds a homomorphism
(``sign_rep`` from the generators' determinants, ``direct_sum`` and
``tensor_identity`` from their parts' generator data), so its walk is
bitwise the replay. ``parse_rep_spec`` builds through the constructors.
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
    nullspace,  # unused here; perfbench/selftest.py checks the tracer rebinds it in reps
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
    """Group representation, stored as its generators' data (see the
    module docstring): the dense ``gen_images`` (``gen_arrays`` None), or
    a signed permutation rep's ``gen_arrays``, the generators' (targets,
    int8 signs) with gen_images[g] e_j = signs[g, j] e_{targets[g, j]}.
    Every element's ``images``, or (order, n) ``targets`` and ``signs``
    (``arrays`` when passed), is walked from them on first read unless
    passed; ``images[e] @ gen_images[g]`` matches ``images[cayley[e, g]]``.
    """

    def __init__(self, group, degree, gen_images=None, images=None, spec=None,
                 gen_arrays=None, arrays=None):
        self.group = group
        self.degree = degree
        self._gen_images = gen_images
        self._images = images
        self.spec = spec
        self.gen_arrays = gen_arrays
        self._arrays = arrays

    @property
    def gen_images(self):
        if self._gen_images is None:
            self._gen_images = signed_permutation_matrices(*self.gen_arrays)
        return self._gen_images

    def _element_arrays(self):
        if self._arrays is None:
            self._arrays = (None, None) if self.gen_arrays is None else (
                split_signed_codes(_walk_codes(self.group, *self.gen_arrays)))
        return self._arrays

    targets = property(lambda self: self._element_arrays()[0])
    signs = property(lambda self: self._element_arrays()[1])

    @property
    def images(self):
        if self._images is None:
            self._images = (_walk_dense(self.group, self.gen_images) if self.gen_arrays is None
                            else signed_permutation_matrices(self.targets, self.signs))
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
    rows = group.cayley[0]
    return Representation(group, degree, spec=spec, gen_arrays=(targets[rows], signs[rows]),
                          arrays=(targets, signs))


def _image_stack(group, gen_images):
    """``groups._generator_stack`` of one image per generator."""
    if len(gen_images) != group.gen_count:
        raise ValueError(
            f"need {group.gen_count} generator images, got {len(gen_images)}"
        )
    return _generator_stack(gen_images, "generator image")


def _extend_dense(group, gen_images, tol):
    """Images by the matmul walk, checked against the cayley table: the
    path of every image set that is not all signed permutations, and the
    test oracle for the other."""
    def residuals(images, gi):
        dev = images @ gen_images[gi]
        dev -= images[group.cayley[:, gi]]
        np.abs(dev, out=dev)
        return dev.max(axis=(1, 2))

    return _replay(group, _walk_dense(group, gen_images), residuals, tol)


def _extend_signed(group, targets, signs, tol):
    """``_extend_dense`` on signed codes; returns every image's (targets,
    signs). A column's residual is the dense ``|lhs - rhs|``: 1 where the
    targets differ, 2 where only the sign does, else 0, so ``tol`` and the
    error are the dense path's. Floats are built only when codes differ."""
    flips = sign_flips(signs)

    def residuals(codes, gi):
        lhs = codes[:, targets[gi]]
        lhs ^= flips[gi]
        rhs = codes[group.cayley[:, gi]]
        if np.array_equal(lhs, rhs):
            return np.zeros(group.order)
        return np.where(lhs == rhs, 0.0, np.where(lhs == ~rhs, 2.0, 1.0)).max(axis=1)

    return split_signed_codes(_replay(group, _walk_codes(group, targets, signs), residuals, tol))


def _walk(group, identity, multiply):
    """Every element's data, walked from ``identity`` down the BFS tree a
    level (the elements whose parents precede it) at a time; ``multiply``
    fills ``out`` with data[parents[k]] times generator gens[k]."""
    data = np.empty((group.order,) + identity.shape, dtype=identity.dtype)
    data[0] = identity
    parent_of, gen_of = group.parents[:, 0], group.parents[:, 1]
    lo = 1
    while lo < group.order:
        hi = int(np.searchsorted(parent_of, lo))
        multiply(data, parent_of[lo:hi], gen_of[lo:hi], data[lo:hi])
        lo = hi
    return data


def _walk_dense(group, gen_images):
    """``_walk`` of dense images, a level's products in one stacked
    ``np.matmul``, bitwise the per-element ``@``."""
    return _walk(group, np.eye(gen_images.shape[1]), lambda images, parents, gens, out:
                 np.matmul(images[parents], gen_images[gens], out=out))


def _walk_codes(group, targets, signs):
    """``_walk`` of every element's signed codes from the generators'
    (targets, signs): per level and generator, one gather of the
    parents' codes at the generator's targets, and one xor."""
    flips = sign_flips(signs)

    def multiply(codes, parents, gens, out):
        for gi in range(len(targets)):
            at = gens == gi
            product = codes[parents[at]].take(targets[gi], axis=1)
            product ^= flips[gi]
            out[at] = product

    return _walk(group, np.arange(targets.shape[1], dtype=flips.dtype), multiply)


def _replay(group, walked, residuals, tol):
    """Check the ``walked`` data against the cayley table and return it:
    ``residuals(walked, gi)`` gives each element's residual against
    generator ``gi``, and the first one above ``tol`` raises
    InconsistentImagesError."""
    for gi in range(group.gen_count):
        dev = residuals(walked, gi)
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            raise InconsistentImagesError(worst, gi, float(dev[worst]))
    return walked


# --- the constructors build generator data; only extend replays -----------


def _perm_spec(perms):
    return "perm:" + "|".join(",".join(str(i) for i in p) for p in perms)


def _sum_images(parts):
    """Block-diagonal sum of (count, n, n) image stacks, scattered into
    zeros (so every zero off the blocks is +0.0)."""
    count = parts[0].shape[0]
    total = sum(p.shape[1] for p in parts)
    stack = np.zeros((count, total, total))
    at = 0
    for p in parts:
        n = p.shape[1]
        stack[:, at:at + n, at:at + n] = p
        at += n
    return stack


def _tensor_images(stack, d):
    """rho (x) I_d of a (count, n, n) image stack, scattered into zeros
    (``np.kron`` would leave -0.0 beside each negative entry); size-d
    blocks move together."""
    count, n = stack.shape[:2]
    lifted = np.zeros((count, n, d, n, d))
    at = np.arange(d)
    lifted[:, :, at, :, at] = stack
    return lifted.reshape(count, n * d, n * d)


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
    """The generators' determinants (int8) on a signed permutation
    group: each is the parity of its targets times the product of its
    signs."""
    rows = group.cayley[0]
    signs = group.signs[rows]
    k, n = signs.shape
    targets = (group.targets[rows] + np.arange(0, k * n, n)[:, None]).ravel()
    # least[i] becomes the least (flat) point on i's cycle by doubling its stretch
    least = np.arange(k * n)
    for _ in range((n - 1).bit_length()):
        np.minimum(least, least[targets], out=least)
        targets = targets[targets]
    odd = (n - (least == np.arange(k * n)).reshape(k, n).sum(axis=1)) % 2
    return ((1 - 2 * odd) * signs.prod(axis=1)).astype(np.int8)


def defining_rep(group):
    """The group acting by its own matrices (or index arrays), which it
    passes as every element's data."""
    if group.targets is None:
        return Representation(group, group.dim, group.generators, group.elements, "defining")
    rows = group.cayley[0]
    return Representation(group, group.dim, spec="defining",
                          gen_arrays=(group.targets[rows], group.signs[rows]),
                          arrays=(group.targets, group.signs))


def trivial_rep(group, degree=1):
    """Every element acts as the identity on R^degree (degree may be 0).
    Its index arrays are constant broadcast views, which take no memory."""
    identity = np.arange(degree, dtype=np.int64), np.ones(degree, dtype=np.int8)
    gen_arrays, arrays = [tuple(np.broadcast_to(a, (count, degree)) for a in identity)
                          for count in (group.gen_count, group.order)]
    return Representation(group, degree, spec=f"trivial:{degree}",
                          gen_arrays=gen_arrays, arrays=arrays)


def sign_rep(group):
    """Degree-1 representation by element determinants: on a signed
    permutation group walked from the generators' (``_determinants``),
    on any other extended from the generators' LAPACK determinants."""
    if group.targets is None:
        return extend(group, [np.array([[np.linalg.det(g)]]) for g in group.generators],
                      spec="sign")
    return Representation(group, 1, spec="sign", gen_arrays=(
        np.zeros((group.gen_count, 1), dtype=np.int64), _determinants(group)[:, None]))


def permutation_rep(group, perms):
    """Representation from one coordinate permutation per generator,
    extended (replayed and checked), since the user supplies it."""
    return extend(group, [permutation_matrix(p) for p in perms], spec=_perm_spec(perms))


def direct_sum(reps):
    """Block-diagonal sum of representations of the same group, from
    the parts' generator index arrays, or, if one part is dense, their
    generator images; a hand-built dense part's ``images`` go unread."""
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    group = reps[0].group
    if any(r.group is not group for r in reps):
        raise ValueError("direct_sum requires representations of the same group")
    degree = sum(r.degree for r in reps)
    spec = None
    if all(r.spec for r in reps):
        spec = "sum(" + ";".join(r.spec for r in reps) + ")"
    if any(r.gen_arrays is None for r in reps):
        return Representation(group, degree, _sum_images([r.gen_images for r in reps]), spec=spec)
    return Representation(group, degree, spec=spec,
                          gen_arrays=_sum_arrays([r.gen_arrays for r in reps]))


def tensor_identity(rep, d):
    """Kronecker lift rho(g) (x) I_d; size-d blocks move together. Built
    from the generator data, as ``direct_sum`` is."""
    if d < 1:
        raise ValueError("tensor factor must be >= 1")
    spec = f"tensor:{d}({rep.spec})" if rep.spec else None
    if rep.gen_arrays is None:
        return Representation(rep.group, rep.degree * d, _tensor_images(rep.gen_images, d),
                              spec=spec)
    return Representation(rep.group, rep.degree * d, spec=spec,
                          gen_arrays=_tensor_arrays(*rep.gen_arrays, d))


def is_permutation_rep(rep, tol=1e-9):
    """True iff every element image is a permutation matrix.

    Only the generators are tested: every image is a product of
    generator images (see the module docstring), and products of
    permutation matrices are permutation matrices. A signed permutation
    rep is one iff every generator sign is +1, read off ``gen_arrays``;
    a dense rep's generator images are tested entrywise within ``tol``,
    which must be finite and non-negative.
    """
    check_tol(tol, strict=False)
    if rep.gen_arrays is not None:
        return bool((rep.gen_arrays[1] == 1).all())
    imgs = rep.gen_images
    near_one = np.abs(imgs - 1.0) <= tol
    return bool((near_one | (np.abs(imgs) <= tol)).all()
                and (near_one.sum(axis=2) == 1).all() and (near_one.sum(axis=1) == 1).all())


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

    The parsed spec is then built through the public constructors (see
    the module docstring), so only its ``perm:`` leaves, whose images the
    user supplies, are replayed and checked, each on its own. Errors come
    in spec order, from the first failing term (inner terms first); an
    inconsistent leaf names its own (element, generator) pair.
    """
    degree, node, spec, pos = _parse_spec(group, text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError(f"trailing characters in rep spec {text!r}")
    _check_stack_fits(f"rep spec {spec!r}", group.gen_count, degree, MAX_IMAGE_STACK_BYTES)
    rep = _build(group, node)
    if degree == 0:  # the image validator's message for a (gen_count, 0, 0) stack
        raise ValueError("generator image 0 must be nonempty")
    return rep


def parse_rep_chain(group, specs):
    """``parse_rep_spec`` of each spec string in turn, parsing each
    distinct string once: equal specs in a chain share one
    Representation, whose element data is then walked once."""
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


def _build(group, node):
    """The representation of a parsed spec, through the constructors."""
    kind, arg = node
    if kind == "tensor":
        return tensor_identity(_build(group, arg[1]), arg[0])
    if kind == "sum":
        return direct_sum([_build(group, part) for part in arg])
    if kind == "perm":
        return permutation_rep(group, arg)
    if kind == "trivial":
        return trivial_rep(group, arg)
    return defining_rep(group) if kind == "defining" else sign_rep(group)


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
        perms.append([])
        for entry in part.split(","):
            if not entry:
                raise ValueError(f"expected integer at position {pos} in rep spec {text!r}")
            perms[-1].append(int(entry))
            pos += len(entry) + 1  # past the entry and its ',' or '|'
    degree = max(len(p) for p in perms)
    return degree, ("perm", perms), _perm_spec(perms), end
