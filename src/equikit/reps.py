"""Representations of a finite matrix group, stored as their generators' data.

A representation is fixed by its generators' images: a dense
(gen_count, n, n) stack, or the integer (targets, signs) index arrays of
a signed permutation rep, the one source every consumer reads. Every
element's data is walked from them down the group's BFS tree on first
read and kept (``groups._ElementData``), as the group's own is; the
defining rep shares its group's. The walk (``groups._walk``, which
enumerates the group if nothing has yet) takes the group's products
(``groups._element_steps``) of either storage kind: index arrays walk
as signed codes (``numerics.sign_flips``), then split into targets of
the codes' type and int8 signs; dense images walk by matmuls, and a
signed rep's are scattered from its arrays. Only what the user supplies
is replayed (``_replay``: the walk, then the cayley-table check that is
exactly the well-definedness check), and so enumerates the group:
``extend``'s images, and ``permutation_rep``'s index maps (hence
``perm:`` spec leaves), which go straight into index arrays, never into
dense images. ``extend``'s validator calls ``det`` only when the images
are not all signed permutations (``numerics.signed_permutations``),
which replay on codes. Every other constructor builds a homomorphism
(``sign_rep`` from the generators' determinants, ``direct_sum`` and
``tensor_identity`` from their parts' generator data), so its walk is
bitwise the replay; ``parse_rep_spec`` builds through the constructors.
A rep is built from generator data, and the solve, the certificate and
``act`` at the generators read nothing else, so a ``check`` that
certifies never enumerates the group.
"""

import numpy as np

from .groups import (
    _check_fits,
    _element_steps,
    _ElementData,
    _generator_stack,
    _permutation,
    _walk,
)
from .numerics import (
    check_tol,
    nullspace,  # unused here; perfbench/selftest.py checks the tracer rebinds it in reps
    signed_permutation_matrices,
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
    Every element's ``images``, or (order, n) ``targets`` and ``signs``,
    is walked from them on first read and kept;
    ``images[e] @ gen_images[g]`` matches ``images[cayley[e, g]]``.
    Element targets keep the signed codes' type; generator targets are int64.
    """

    def __init__(self, group, degree, gen_images=None, spec=None, gen_arrays=None):
        self.group = group
        self.degree = degree
        self._gen_images = gen_images
        self.spec = spec
        self.gen_arrays = gen_arrays
        self._data = _ElementData(gen_arrays, gen_images)

    @property
    def gen_images(self):
        if self._gen_images is None:
            self._gen_images = signed_permutation_matrices(*self.gen_arrays)
        return self._gen_images

    targets = property(lambda self: self._data.arrays(self.group)[0])
    signs = property(lambda self: self._data.arrays(self.group)[1])
    images = property(lambda self: self._data.stack(self.group))

    def act(self, indices, vectors, generators=False):
        """rho(e) applied to each row of ``vectors``, for each e in the
        index array ``indices`` of elements, or of generators when
        ``generators`` (read from the generator data, so no element's is
        walked): the (k, batch, n) stack of ``vectors @ rho(e).T``. Dense
        images take one stacked matmul; a signed permutation moves and
        signs the coordinates in one scatter, without building an image."""
        indices = np.asarray(indices)
        if self.gen_arrays is None:
            images = self.gen_images if generators else self.images
            return np.matmul(vectors, images[indices].transpose(0, 2, 1))
        targets, signs = self.gen_arrays if generators else self._data.arrays(self.group)
        k, (batch, n) = indices.size, vectors.shape
        out = np.empty((k, batch, n))
        at = targets[indices][:, None, :] + np.arange(0, out.size, n).reshape(k, batch, 1)
        out.reshape(-1)[at] = vectors * signs[indices][:, None, :]
        return out

    def __repr__(self):
        name = self.spec or "<custom>"
        return f"Representation({name}, degree={self.degree}, |G|={self.group.order})"


def extend(group, gen_images, spec=None, tol=CONSISTENCY_TOL):
    """Build the representation generated by one image per generator.

    The images are replayed (``_replay``) on signed codes when they are
    all signed permutations, else on dense matrices (see the module
    docstring). Raises InconsistentImagesError when the images do not
    define a homomorphism (the map fails to factor through the group
    relations), and ValueError for a ``tol`` that is not finite and
    non-negative.
    """
    check_tol(tol, strict=False)
    gen_images, perm = _generator_stack(_one_per_generator(group, gen_images), "generator image")
    _replay(group, _element_steps(perm, gen_images), tol)
    return Representation(group, gen_images.shape[1], gen_images if perm is None else None,
                          spec, perm)


def _one_per_generator(group, images):
    """``images``, or ValueError unless there is one per generator."""
    if len(images) != group.gen_count:
        raise ValueError(f"need {group.gen_count} generator images, got {len(images)}")
    return images


def _extend_dense(group, gen_images, tol):
    """``extend`` on dense matrices, whatever the images: the test oracle."""
    return _replay(group, _element_steps(generators=gen_images), tol)


def _replay(group, steps, tol):
    """``_walk`` the element data of ``steps`` and check it against the
    cayley table: the first element whose product with generator ``gi``
    deviates from element ``cayley[e, gi]`` by more than ``tol`` raises
    InconsistentImagesError. One product per generator is held at once."""
    data = _walk(group, steps)
    times, residuals = steps[1], steps[4]
    for gi in range(group.gen_count):
        dev = residuals(times(data, gi), data[group.cayley[:, gi]])
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            raise InconsistentImagesError(worst, gi, float(dev[worst]))
    return data


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
    targets, signs = group.gen_arrays
    k, n = signs.shape
    targets = (targets + np.arange(0, k * n, n)[:, None]).ravel()
    # least[i] becomes the least (flat) point on i's cycle by doubling its stretch
    least = np.arange(k * n)
    for _ in range((n - 1).bit_length()):
        np.minimum(least, least[targets], out=least)
        targets = targets[targets]
    odd = (n - (least == np.arange(k * n)).reshape(k, n).sum(axis=1)) % 2
    return ((1 - 2 * odd) * signs.prod(axis=1)).astype(np.int8)


def defining_rep(group):
    """The group acting by its own matrices (or index arrays): its
    generator data is the group's, and so is its element data, which the
    two share and walk once, on the first read of either."""
    dense = group.gen_arrays is None
    rep = Representation(group, group.dim, group.generators if dense else None, "defining",
                         group.gen_arrays)
    rep._data = group._data
    return rep


def trivial_rep(group, degree=1):
    """Every element acts as the identity on R^degree (degree may be 0)."""
    targets = np.broadcast_to(np.arange(degree, dtype=np.int64), (group.gen_count, degree))
    return Representation(group, degree, spec=f"trivial:{degree}",
                          gen_arrays=(targets, np.ones(targets.shape, dtype=np.int8)))


def sign_rep(group):
    """Degree-1 representation by element determinants: on a signed
    permutation group walked from the generators' (``_determinants``),
    on any other extended from the generators' LAPACK determinants."""
    if group.gen_arrays is None:
        return extend(group, [np.array([[np.linalg.det(g)]]) for g in group.generators],
                      spec="sign")
    return Representation(group, 1, spec="sign", gen_arrays=(
        np.zeros((group.gen_count, 1), dtype=np.int64), _determinants(group)[:, None]))


def permutation_rep(group, perms):
    """Representation from one coordinate permutation per generator, built
    straight into index arrays; since the user supplies them, they are
    validated with ``extend``'s messages and replayed as ``extend`` replays."""
    maps = _one_per_generator(group, [_permutation(p) for p in perms])
    n = len(maps[0])
    for i, m in enumerate(maps):
        if m.shape != (n,):
            raise ValueError(f"generator image {i} has shape {m.shape * 2}, expected ({n}, {n})")
    arrays = (np.array(maps, dtype=np.int64), np.ones((len(maps), n), dtype=np.int8))
    _replay(group, _element_steps(arrays), CONSISTENCY_TOL)
    return Representation(group, n, spec=_perm_spec(perms), gen_arrays=arrays)


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
    lift = d if rep.degree else 1  # zero width: build nothing of size d
    if rep.gen_arrays is None:
        return Representation(rep.group, rep.degree * d, _tensor_images(rep.gen_images, lift),
                              spec=spec)
    return Representation(rep.group, rep.degree * d, spec=spec,
                          gen_arrays=_tensor_arrays(*rep.gen_arrays, lift))


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

    The spec's degree n is known before anything is built: a spec whose
    element data (``groups._check_fits``) would exceed
    ``MAX_IMAGE_STACK_BYTES`` raises ValueError naming the spec and its
    degree, and builds nothing.

    The parsed spec is then built through the public constructors (see
    the module docstring), so only its ``perm:`` leaves, whose images the
    user supplies, are replayed and checked, each on its own. Errors come
    in spec order, from the first failing term (inner terms first); an
    inconsistent leaf names its own (element, generator) pair. A spec
    nested too deeply for Python's recursion limit to parse or build
    (about a thousand levels) raises ValueError naming the spec, cut
    after 60 characters.
    """
    try:
        degree, node, spec, pos = _parse_spec(group, text.strip(), 0)
        if pos != len(text.strip()):
            raise ValueError(f"trailing characters in rep spec {text!r}")
        _check_fits(f"rep spec {spec!r}", group.order, degree, group.gen_arrays is not None)
        rep = _build(group, node)
    except RecursionError:
        shown = text if len(text) <= 60 else text[:60] + "..."
        raise ValueError(f"rep spec {shown!r} is nested too deeply") from None
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
        return degree * num, ("tensor", (num, inner)), f"tensor:{num}({spec})", end + 1
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
