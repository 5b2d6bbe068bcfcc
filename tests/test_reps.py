import tracemalloc

import numpy as np
import pytest
from helpers import (
    element_index,
    first_failing_relator,
    permutation_matrix,
    spec_images,
    stacked_fixed_subspace,
    words,
)

from equikit import groups, numerics, reps
from equikit.groups import close, group_from_spec, named_group
from equikit.intertwiners import fixed_subspace
from equikit.numerics import signed_permutations
from equikit.reps import (
    InconsistentImagesError,
    Representation,
    defining_rep,
    direct_sum,
    extend,
    is_permutation_rep,
    parse_rep_spec,
    permutation_rep,
    sign_rep,
    tensor_identity,
    trivial_rep,
)


@pytest.fixture(scope="module")
def s3():
    return named_group("symmetric", 3)


@pytest.fixture(scope="module")
def s3_copy(s3):
    """symmetric:3 built by ``close``: no relators, so its images replay."""
    return close(list(s3.generators))


@pytest.fixture(scope="module")
def c4():
    return named_group("cyclic", 4)


def test_defining_rep_images_are_elements(s3):
    # each image is its element's word product of the generators
    rep = defining_rep(s3)
    for image, word in zip(rep.images, words(s3)):
        product = np.eye(3)
        for gi in word:
            product = product @ s3.generators[gi]
        assert np.abs(image - product).max() < 1e-12


def test_trivial_rep_all_identity(s3):
    rep = trivial_rep(s3, 1)
    assert np.abs(rep.images - 1.0).max() < 1e-12


def test_sign_rep_matches_element_parity(s3):
    rep = sign_rep(s3)
    elements = defining_rep(s3).images
    for i in range(s3.order):
        det = np.linalg.det(elements[i])
        assert abs(rep.images[i][0, 0] - det) < 1e-9
    values = sorted(np.round(rep.images[:, 0, 0]).astype(int).tolist())
    assert values == [-1, -1, -1, 1, 1, 1]  # three transpositions odd, id + two 3-cycles even


def negated_signed_group():
    # -1.0 * 0.0 leaves -0.0 in the zero entries of the negated columns
    return close([permutation_matrix([1, 2, 0, 3]) * np.array([1.0, -1.0, 1.0, -1.0]),
                  -permutation_matrix([0, 1, 3, 2])])


@pytest.mark.parametrize("build", [
    lambda: group_from_spec("symmetric:5"), lambda: group_from_spec("cyclic:6"),
    lambda: group_from_spec("p4m:5"), negated_signed_group,
])
def test_signed_generator_determinants_are_lapack_det(build):
    # _determinants reads parity times signs off the generators' rows, and
    # sign_rep walks them to every element's determinant
    group = build()
    assert group.gen_arrays is not None
    det = np.array([np.linalg.det(m) for m in group.generators])
    assert reps._determinants(group).astype(np.float64).tobytes() == det.tobytes()
    every = sign_rep(group).signs
    assert every.dtype == np.int8 and every.shape == (group.order, 1)
    det = np.array([np.linalg.det(m) for m in defining_rep(group).images])
    assert every[:, 0].astype(np.float64).tobytes() == det.tobytes()


def test_sign_images_on_transposition_generators():
    g = close([permutation_matrix([1, 0, 2]), permutation_matrix([0, 2, 1])])
    assert g.order == 6
    rep = extend(g, [np.array([[-1.0]]), np.array([[-1.0]])])
    elements = defining_rep(g).images
    for i in range(g.order):
        assert abs(rep.images[i][0, 0] - np.linalg.det(elements[i])) < 1e-12


def test_extend_rejects_inconsistent_images(s3, s3_copy):
    # sending both the swap and the 3-cycle generator to -1 cannot factor
    # through the group: the cycle has order 3 but (-1)^3 != 1. The named
    # group's relators say which fails; the replay on a close-built copy
    # names the residual
    images = [np.array([[-1.0]]), np.array([[-1.0]])]
    with pytest.raises(ValueError, match=r"^generator images are inconsistent: they fail the "
                                         r"defining relator g1\^3 of symmetric:3$"):
        extend(s3, images)
    with pytest.raises(InconsistentImagesError) as info:
        extend(s3_copy, images)
    assert info.value.residual > 0.5


def test_extend_checks_image_count_and_shape(s3):
    with pytest.raises(ValueError, match="generator images"):
        extend(s3, [np.eye(2)])
    with pytest.raises(ValueError):
        extend(s3, [np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="not invertible"):
        extend(s3, [np.zeros((2, 2)), np.eye(2)])


def test_direct_sum_trivial_pair(s3):
    rep = direct_sum([trivial_rep(s3, 1), trivial_rep(s3, 1)])
    assert rep.degree == 2
    assert np.abs(rep.images - np.eye(2)).max() < 1e-12


def test_direct_sum_block_structure(s3):
    rep = direct_sum([defining_rep(s3), sign_rep(s3)])
    assert rep.degree == 4
    elements = defining_rep(s3).images
    for i in range(s3.order):
        assert np.abs(rep.images[i][:3, :3] - elements[i]).max() < 1e-12
        assert np.abs(rep.images[i][3:, :3]).max() == 0.0
        assert np.abs(rep.images[i][:3, 3:]).max() == 0.0


def test_direct_sum_three_copies(c4):
    rep = direct_sum([defining_rep(c4)] * 3)
    assert rep.degree == 12


def test_direct_sum_rejects_mismatched_groups(s3, c4):
    with pytest.raises(ValueError, match="same group"):
        direct_sum([defining_rep(s3), defining_rep(c4)])


def test_tensor_identity_one_is_identity(s3):
    rep = defining_rep(s3)
    lifted = tensor_identity(rep, 1)
    assert np.abs(lifted.images - rep.images).max() < 1e-12


def test_tensor_identity_block_swap():
    s2 = named_group("symmetric", 2)
    lifted = tensor_identity(defining_rep(s2), 3)
    swap = lifted.gen_images[0]
    expected = np.zeros((6, 6))
    expected[:3, 3:] = np.eye(3)
    expected[3:, :3] = np.eye(3)
    assert np.array_equal(swap, expected)


def test_tensor_identity_block_cycle(c4):
    lifted = tensor_identity(defining_rep(c4), 2)
    assert lifted.degree == 8
    assert is_permutation_rep(lifted)


@pytest.mark.parametrize("maker", [
    lambda g: defining_rep(g),
    lambda g: tensor_identity(defining_rep(g), 3),
    lambda g: direct_sum([defining_rep(g), trivial_rep(g, 2)]),
])
def test_tensor_identity_preserves_permutation_property(s3, maker):
    rep = maker(s3)
    assert is_permutation_rep(rep)
    assert is_permutation_rep(tensor_identity(rep, 2))


def test_is_permutation_rep_negative_cases(s3):
    assert not is_permutation_rep(sign_rep(s3))
    rot = close([np.array([[0.0, -1.0], [1.0, 0.0]])])
    assert not is_permutation_rep(defining_rep(rot))


def test_fixed_subspace_symmetric_defining():
    for m in (3, 4, 5):
        g = named_group("symmetric", m)
        basis = fixed_subspace(defining_rep(g))
        assert basis.shape == (m, 1)
        ones = np.ones(m) / np.sqrt(m)
        assert abs(abs(basis[:, 0] @ ones) - 1.0) < 1e-10


def test_fixed_subspace_trivial_rep_is_everything(s3):
    basis = fixed_subspace(trivial_rep(s3, 4))
    assert basis.shape == (4, 4)


def test_fixed_subspace_torus_pixels():
    g = named_group("torus", 3)
    basis = fixed_subspace(defining_rep(g))
    assert basis.shape == (9, 1)


def generator_perm_spec(group):
    """A ``perm:`` spec giving each generator its own point permutation."""
    targets = defining_rep(group).targets[group.cayley[0]]
    return "perm:" + "|".join(",".join(map(str, t)) for t in targets)


FIXED_SPECS = ["defining", "sign", "trivial:2", "tensor:2(defining)", "sum(defining;sign)",
               "tensor:2(sum(sign;trivial:1))", "PERM"]


@pytest.mark.parametrize("group_spec", ["symmetric:4", "cyclic:5", "torus:3", "p4:3", "p4m:3"])
@pytest.mark.parametrize("spec", FIXED_SPECS)
def test_fixed_subspace_is_bitwise_the_stacked_nullspace(group_spec, spec):
    group = group_from_spec(group_spec)
    rep = parse_rep_spec(group, spec.replace("PERM", generator_perm_spec(group)))
    basis, expected = fixed_subspace(rep), stacked_fixed_subspace(rep)
    assert basis.flags.c_contiguous
    assert (basis.shape, basis.tobytes()) == (expected.shape, expected.tobytes())


@pytest.mark.parametrize("generator", [
    [[0.5, -np.sqrt(0.75)], [np.sqrt(0.75), 0.5]],  # a sixth turn of the plane
    [[0.5, -np.sqrt(0.75), 0.0], [np.sqrt(0.75), 0.5, 0.0], [0.0, 0.0, 1.0]],  # about z
])
@pytest.mark.parametrize("spec", FIXED_SPECS[:-1])
def test_dense_fixed_subspace_is_bitwise_the_stacked_nullspace(generator, spec):
    rep = parse_rep_spec(close([np.array(generator)]), spec)
    assert rep.group.gen_arrays is None
    basis, expected = fixed_subspace(rep), stacked_fixed_subspace(rep)
    assert (basis.shape, basis.tobytes()) == (expected.shape, expected.tobytes())


@pytest.mark.parametrize("kind,size,spec", [
    ("symmetric", 4, "tensor:3(defining)"),
    ("p4", 2, "defining"),
    ("cyclic", 4, "sum(defining;trivial:2)"),
])
def test_fixed_subspace_residual_over_all_elements(kind, size, spec):
    g = named_group(kind, size)
    rep = parse_rep_spec(g, spec)
    basis = fixed_subspace(rep)
    for col in basis.T:
        residual = np.abs(rep.images @ col - col).max()
        assert residual < 1e-9


@pytest.mark.parametrize("kind,size,spec", [
    ("symmetric", 3, "defining"),
    ("symmetric", 3, "sign"),
    ("cyclic", 4, "tensor:2(defining)"),
    ("p4", 2, "defining"),
])
def test_inverse_images_match_cayley_inverses(kind, size, spec):
    g = named_group(kind, size)
    rep = parse_rep_spec(g, spec)
    elements = defining_rep(g).images
    for i in range(g.order):
        j = element_index(elements, np.linalg.inv(elements[i]))
        assert np.abs(np.linalg.inv(rep.images[i]) - rep.images[j]).max() < 1e-8


def test_permutation_rep_from_lists(s3):
    # mirror the defining action through explicit permutation lists
    perms = []
    for gen in s3.generators:
        perms.append([int(np.argmax(gen[:, j])) for j in range(3)])
    rep = permutation_rep(s3, perms)
    assert np.abs(rep.images - defining_rep(s3).images).max() < 1e-12
    assert rep.spec.startswith("perm:")


def test_parse_rep_spec_shapes(s3):
    assert parse_rep_spec(s3, "defining").degree == 3
    assert parse_rep_spec(s3, "trivial:5").degree == 5
    assert parse_rep_spec(s3, "sign").degree == 1
    assert parse_rep_spec(s3, "tensor:3(defining)").degree == 9
    assert parse_rep_spec(s3, "sum(defining;sign)").degree == 4
    nested = parse_rep_spec(s3, "sum(tensor:2(defining);trivial:1)")
    assert nested.degree == 7


def test_parse_rep_spec_round_trips_spec_string(s3):
    rep = parse_rep_spec(s3, "tensor:3(sum(defining;trivial:1))")
    again = parse_rep_spec(s3, rep.spec)
    assert np.abs(rep.images - again.images).max() == 0.0


@pytest.mark.parametrize("bad", [
    "definingx",
    "trivial:",
    "tensor:3",
    "tensor:3(defining",
    "sum(defining",
    "sum()",
    "perm:",
    "unknown",
])
def test_parse_rep_spec_rejects_malformed(s3, bad):
    with pytest.raises(ValueError):
        parse_rep_spec(s3, bad)


@pytest.mark.parametrize("bad", [
    "perm:1,0,2",  # one permutation for two generators
    "perm:1,0,2|1,0",  # two sizes
    "perm:0,0,1|1,0,2",  # not a permutation
])
def test_nested_bad_perm_raises_its_own_error(s3, bad):
    with pytest.raises(ValueError) as alone:
        parse_rep_spec(s3, bad)
    for nested in (f"sum({bad};sign)", f"tensor:2({bad})"):
        with pytest.raises(ValueError) as inner:
            parse_rep_spec(s3, nested)
        assert str(inner.value) == str(alone.value)


# --- signed-permutation fast path against the dense extension -------------

NAMED_SPECS = [f"symmetric:{m}" for m in range(1, 6)] + [
    f"{kind}:{n}" for kind in ("cyclic", "torus", "p4", "p4m") for n in range(1, 5)
]

# the spec shapes that tests/test_properties.py draws; PERM is replaced
# by the generators' underlying permutations with the points relabelled
SPEC_SHAPES = [
    "defining", "sign", "trivial:1", "trivial:2", "PERM",
    "tensor:2(defining)", "tensor:2(sign)", "tensor:2(PERM)",
    "sum(defining;sign)", "sum(PERM;trivial:2)", "sum(sign;sign)",
]


def relabelled_perm_spec(group):
    n = group.dim
    flip = np.arange(n)[::-1]
    perms = []
    for g in group.generators:
        q = np.empty(n, dtype=np.int64)
        q[flip] = flip[np.argmax(g, axis=0)]
        perms.append(",".join(str(i) for i in q))
    return "perm:" + "|".join(perms)


@pytest.mark.parametrize("group_spec", NAMED_SPECS)
def test_signed_extension_is_bitwise_the_dense_extension(group_spec):
    group = group_from_spec(group_spec)
    perm = relabelled_perm_spec(group)
    for shape in SPEC_SHAPES:
        rep = parse_rep_spec(group, shape.replace("PERM", perm))
        dense = reps._extend_dense(group, rep.gen_images)
        assert rep.images.tobytes() == dense.tobytes(), shape


def test_signed_extension_with_negative_zeros_is_bitwise_the_dense_extension(c4):
    # -1.0 * 0.0 leaves -0.0 in the zero entries of the negated columns
    image = permutation_matrix([1, 2, 3, 0]) * np.array([-1.0, 1.0, -1.0, 1.0])
    assert np.signbit(image[0, 0])
    rep = extend(c4, [image])
    assert rep.images.tobytes() == reps._extend_dense(c4, rep.gen_images).tobytes()


def _outcome(build):
    try:
        images = build()
    except InconsistentImagesError as err:
        return err.element, err.generator, err.residual
    return images.tobytes()


# (group spec, generator images, residual the dense path raises). The
# "-at-" cases name a tolerance of 1 or 1.5, which a replay of a target
# mismatch (residual 1) passes and of a sign flip (residual 2) does not;
# extend takes no tolerance, so each raises at CONSISTENCY_TOL.
INCONSISTENT = {
    "sign-flip": ("cyclic:3", [np.diag([1.0, -1.0, 1.0])], 2.0),
    "sign-flip-at-1.5": ("cyclic:3", [np.diag([1.0, -1.0, 1.0])], 2.0),
    "target-mismatch": ("cyclic:3", [permutation_matrix([1, 0, 2])], 1.0),
    "target-mismatch-at-1": ("cyclic:3", [permutation_matrix([1, 0, 2])], 1.0),
    "target-mismatch-at-1.5": ("cyclic:3", [permutation_matrix([1, 0, 2])], 1.0),
    "second-generator": ("symmetric:3", [permutation_matrix([1, 0, 2]),
                                         permutation_matrix([1, 0, 2])], 1.0),
    "mismatch-and-flip": ("cyclic:3", [permutation_matrix([1, 0, 2]) * np.array(
        [1.0, 1.0, -1.0])], 2.0),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_inconsistent_images_report_the_dense_residual(case):
    # a close-built copy of the group replays the images, and names the
    # dense replay's pair and residual; the named group rejects them by
    # the first relator that the dense matmul of its words finds
    group_spec, images, residual = INCONSISTENT[case]
    named = group_from_spec(group_spec)
    group = close(list(named.generators))
    fast = _outcome(lambda: extend(group, images).images)
    assert fast == _outcome(lambda: reps._extend_dense(group, np.stack(images)))
    assert fast[2] == residual
    relator = first_failing_relator(named, np.stack(images))
    with pytest.raises(ValueError) as info:
        extend(named, images)
    assert type(info.value) is ValueError and relator is not None
    assert str(info.value) == ("generator images are inconsistent: they fail the defining "
                               f"relator {relator} of {group_spec}")


def test_dense_extension_keeps_two_image_sized_temporaries():
    # a C_4 rotation block through cos/sin: its zeros are 6e-17, so the
    # images are not signed permutations and take the dense path
    group = named_group("cyclic", 4)
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    image = np.kron(np.array([[c, -s], [s, c]]), np.eye(32))
    assert signed_permutations(image[None]) is None
    tracemalloc.start()
    try:
        rep = extend(group, [image])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result itself plus the consistency loop's two temporaries
    # (the loop once held four)
    assert peak - rep.images.nbytes < 3 * rep.images.nbytes


def test_signed_act_is_bitwise_the_image_matmul():
    group = group_from_spec("p4m:3")
    signed = parse_rep_spec(group, "sum(tensor:2(defining);sign)")
    assert signed.targets is not None
    # a C_4 rotation block (cos/sin residues keep it off the signed path), lifted
    quarter = np.array([[np.cos(np.pi / 2), -np.sin(np.pi / 2)],
                        [np.sin(np.pi / 2), np.cos(np.pi / 2)]])
    dense = extend(close([quarter]), [np.kron(quarter, np.eye(3))])
    assert dense.targets is None
    rng = np.random.default_rng(0)
    for rep in (signed, dense):
        vectors = rng.uniform(-1.0, 1.0, size=(5, rep.degree))
        order = rep.group.order
        want = np.stack([vectors @ rep.images[i].T for i in range(order)])
        assert rep.act(np.arange(order), vectors).tobytes() == want.tobytes()
        picks = np.array([order - 1, 0, order - 1])
        assert rep.act(picks, vectors).tobytes() == want[picks].tobytes()


def test_signed_closure_and_extension_build_no_dense_stack_until_read():
    tracemalloc.start()
    try:
        rep = defining_rep(named_group("p4m", 8))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rep.images
        _, peak_read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = rep.group.order * rep.group.dim ** 2 * 8  # 16.8 MB
    # closure plus extension stay below one dense (|G|, n, n) stack ...
    assert peak < dense_bytes
    # ... which reading the dense view then builds, once
    assert peak_read >= dense_bytes
    assert rep.images is rep.images


def test_p4m_32_tensor_walk_keeps_the_code_type():
    group = group_from_spec("p4m:32")
    group.parents  # enumerated before the trace
    rep = parse_rep_spec(group, "tensor:2(defining)")
    tracemalloc.start()
    try:
        targets = rep.targets
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8192 x 2048 codes: 32 MiB of int16 that become the targets in
    # place, 16 MiB of signs and one 16 MiB mask; no 128 MiB int64 copy
    assert targets.dtype == np.int16 and targets.shape == (8192, 2048)
    assert peak < 96 * 2 ** 20


def _no_dense_stack(*args):
    raise AssertionError("a perm: leaf built or read a dense stack")


def test_perm_leaves_build_no_dense_stack(s3, s3_copy, monkeypatch):
    # a perm: leaf is checked on its index maps alone, by the relators of
    # a named group or the replay of a close-built one, with the messages
    # of the dense validator
    for module in (groups, numerics, reps):
        for name in ("signed_permutation_matrices", "_generator_stack", "signed_permutations"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _no_dense_stack)
    rep = parse_rep_spec(s3, "sum(perm:1,0,2|1,2,0;tensor:2(perm:1,0|0,1))")
    assert (rep.degree, rep.gen_arrays[0].dtype, rep.gen_arrays[1].dtype) == (7, np.int64, np.int8)
    assert parse_rep_spec(named_group("p4m", 3), "perm:0,1|0,1|1,0|1,0").degree == 2
    for spec, message in [
        ("perm:0,0,1|1,0,2", r"not a permutation of 0..2: \[0, 0, 1\]"),
        ("perm:0,1|1,0,2", r"generator image 1 has shape \(3, 3\), expected \(2, 2\)"),
        ("perm:1,0,2", "need 2 generator images, got 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_rep_spec(s3, spec)
    with pytest.raises(ValueError, match=r"they fail the defining relator g0\^2 of symmetric:3$"):
        parse_rep_spec(s3, "perm:1,2,0|0,1,2")
    with pytest.raises(InconsistentImagesError):
        parse_rep_spec(s3_copy, "perm:1,2,0|0,1,2")


def _scanned_perm_leaf(text, pos):
    """A perm: leaf read one character at a time: the oracle for the
    sliced ``reps._parse_perm``. Returns (perms, end) or the error text."""
    end = pos
    while end < len(text) and (text[end].isdecimal() or text[end] in ",|"):
        end += 1
    perms = []
    try:
        for part in text[pos:end].split("|"):
            if not part:
                raise ValueError(f"empty permutation in rep spec {text!r}")
            perms.append([])
            for entry in part.split(","):
                if not entry:
                    raise ValueError(f"expected integer at position {pos} in rep spec {text!r}")
                perms[-1].append(int(entry))
                pos += len(entry) + 1
    except ValueError as exc:
        return str(exc)
    return perms, end


def test_perm_leaf_slicing_matches_the_character_scan():
    # the same leaves, ends and messages on seeded strings over digits
    # (ASCII and Arabic-Indic), the separators and characters that end a
    # leaf, a superscript two among them: a digit, but not a decimal one
    rng = np.random.default_rng(26)
    alphabet = list("0123456789,,,|||;)x") + ["\u0663", "\u00b2"]
    for _ in range(3000):
        text = "perm:" + "".join(rng.choice(alphabet, size=rng.integers(0, 14)))
        try:
            _, (_, (perms, _)), _, end = reps._parse_perm(text, len("perm:"))
            got = perms, end
        except ValueError as exc:
            got = str(exc)
        assert got == _scanned_perm_leaf(text, len("perm:")), text


def test_perm_leaf_spec_is_the_join_of_its_integers(s3):
    # a leaf's canonical spec, whether its text is kept (ASCII, no leading
    # zero) or rewritten, is the join of its integers' str on seeded
    # multi-part leaves with leading zeros and Arabic-Indic digits
    rng = np.random.default_rng(27)
    arabic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

    def render(i):
        entry = "0" * int(rng.integers(0, 3) == 0) * int(rng.integers(1, 3)) + str(i)
        return entry.translate(arabic) if rng.random() < 0.15 else entry

    for _ in range(500):
        perms = [rng.permutation(int(rng.integers(1, 13))).tolist()
                 for _ in range(int(rng.integers(1, 4)))]
        text = "perm:" + "|".join(",".join(map(render, p)) for p in perms) + ";"
        _, (_, (parsed, spec)), canonical, end = reps._parse_perm(text, len("perm:"))
        assert (parsed, end) == (perms, len(text) - 1)
        assert spec == canonical == "perm:" + "|".join(",".join(str(i) for i in p)
                                                       for p in perms), text
    for text in ("perm:01,00,2|1,2,000", "perm:\u0661,0,2|1,2,0", "perm:1,0,2|1,2,0"):
        assert parse_rep_spec(s3, text).spec == "perm:1,0,2|1,2,0"


def test_p4m_32_perm_leaf_parse_peak():
    # the group's own generator maps: the parse checks the leaf against
    # the group's relators, enumerating nothing; no dense image is built
    group = group_from_spec("p4m:32")
    spec = "perm:" + "|".join(",".join(map(str, m)) for m in group.gen_arrays[0].tolist())
    tracemalloc.start()
    try:
        rep = parse_rep_spec(group, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.degree == 1024
    assert peak < 70 * 2 ** 20


def test_zero_width_tensor_builds_nothing_of_its_factor(s3):
    tracemalloc.start()
    try:
        rep = parse_rep_spec(s3, "sum(defining;tensor:1000000000000(trivial:0))")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.degree == 3
    assert peak < 2 ** 20


# --- dense composition against the extension of the spec's images --------

def rotation_group(n, flip):
    """C_n rotating R^2, or D_n (the rotation about z plus a mirror) on R^3;
    cos/sin residues keep both off the signed path."""
    c, s = np.cos(2 * np.pi / n), np.sin(2 * np.pi / n)
    if not flip:
        return close([np.array([[c, -s], [s, c]])])
    return close([np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                  np.diag([1.0, -1.0, 1.0])])


DENSE_SPECS = ["defining", "sign", "sum(defining;sign)", "tensor:3(defining)",
               "tensor:2(sum(defining;sign;trivial:2))", "sum(tensor:2(defining);defining)"]


def _constructed(group, node):
    """A parsed spec's rep, built by calling the constructors directly."""
    kind, arg = node
    if kind == "tensor":
        return tensor_identity(_constructed(group, arg[1]), arg[0])
    if kind == "sum":
        return direct_sum([_constructed(group, part) for part in arg])
    if kind == "trivial":
        return trivial_rep(group, arg)
    return defining_rep(group) if kind == "defining" else sign_rep(group)


@pytest.mark.parametrize("n", [5, 6, 12])
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_dense_composition_is_bitwise_the_extension(n, flip, spec):
    # sums and Kronecker lifts of dense reps are composed, not replayed;
    # their images match the replay's to the bit, zeros all +0.0
    group = rotation_group(n, flip)
    assert group.gen_arrays is None and group.order == (2 * n if flip else n)
    node = reps._parse_spec(group, spec, 0)[1]
    want = extend(group, spec_images(group, node), spec=spec)
    for rep in (parse_rep_spec(group, spec), _constructed(group, node)):
        assert (rep.spec, rep.degree) == (spec, want.degree)
        assert rep.gen_images.tobytes() == want.gen_images.tobytes()
        assert rep.images.tobytes() == want.images.tobytes()


@pytest.mark.parametrize("build", [lambda: rotation_group(5, True),
                                   lambda: named_group("symmetric", 3)])
def test_sum_of_a_hand_built_dense_part_walks_its_generators(build):
    # a sum or lift keeps only its parts' generator images and walks its
    # own element images, so a hand-built part's corrupted images are
    # never read; on a signed group the sum of a dense part stays dense
    group = build()
    rep = defining_rep(group)
    corrupted = Representation(group, rep.degree, rep.gen_images.copy())
    corrupted.images[2] += 0.37
    for built in (direct_sum([corrupted, sign_rep(group)]), tensor_identity(corrupted, 2)):
        assert built.gen_arrays is None
        assert built.images.tobytes() == extend(group, built.gen_images).images.tobytes()


# --- nested specs check only their perm: leaves, once ---------------------

def _record_checks(monkeypatch):
    """The degrees of the images ``_failing_relator`` checks and of
    those ``_replay`` replays, and the specs ``extend`` and
    ``permutation_rep`` build."""
    checked, replayed, extended = [], [], []
    real_check, real_replay = reps._failing_relator, reps._replay
    real_extend, real_perm = reps.extend, reps.permutation_rep
    monkeypatch.setattr(reps, "_failing_relator", lambda group, arrays:
                        checked.append(arrays[0].shape[1]) or real_check(group, arrays))
    monkeypatch.setattr(reps, "_replay", lambda group, steps:
                        replayed.append(len(steps[0])) or real_replay(group, steps))
    monkeypatch.setattr(reps, "extend", lambda group, images, spec=None:
                        extended.append(spec) or real_extend(group, images, spec))
    monkeypatch.setattr(reps, "permutation_rep", lambda group, perms, spec=None:
                        extended.append(reps._perm_spec(perms)) or real_perm(group, perms, spec))
    return checked, replayed, extended


def test_nested_spec_replays_only_its_perm_leaves_once(s3, s3_copy, monkeypatch):
    # a spec on a signed group is composed: only its perm: leaves are
    # checked (recorded by their degree), each once, alone: against a
    # named group's relators, which decide even the leaf they reject, or
    # by the replay on a close-built copy of the group, which has none
    checked, replayed, extended = _record_checks(monkeypatch)
    for spec, leaves, rejected in [
        ("tensor:3(sum(perm:1,0,2|1,2,0;sign))", [3], False),
        ("sum(perm:1,0,2|1,2,0;tensor:2(perm:1,0|0,1))", [3, 2], False),
        ("tensor:3(sum(defining;sign;trivial:2))", [], False),
        ("sum(perm:1,0,2|1,2,0;tensor:2(perm:1,0|1,0))", [3, 2], True),
    ]:
        for group, by_relators, by_replay, error in [
                (s3, leaves, [], ValueError), (s3_copy, [], leaves, InconsistentImagesError)]:
            if rejected:
                with pytest.raises(error) as info:
                    parse_rep_spec(group, spec)
                assert type(info.value) is error
            else:
                assert parse_rep_spec(group, spec).spec == spec
            assert (checked, replayed) == (by_relators, by_replay)
            assert len(extended) == len(leaves)
            assert all(leaf.startswith("perm:") for leaf in extended)
            checked.clear()
            replayed.clear()
            extended.clear()


def test_constructors_replay_nothing(monkeypatch):
    # every constructor but permutation_rep builds a homomorphism by
    # construction, so none checks or replays its images
    recorded = _record_checks(monkeypatch)
    group = group_from_spec("p4m:4")
    defining, sign = defining_rep(group), sign_rep(group)
    for rep in (defining, sign, trivial_rep(group, 2), trivial_rep(group, 0),
                direct_sum([defining, sign, trivial_rep(group, 2)]),
                tensor_identity(direct_sum([sign, defining]), 3)):
        rep.targets, rep.images
    rotation = np.array([[0.5, -np.sqrt(0.75)], [np.sqrt(0.75), 0.5]])
    dense = defining_rep(close([rotation]))
    assert dense.targets is None
    assert dense.images is dense.images
    assert recorded == ([], [], [])


def test_trivial_rep_of_degree_zero_is_the_composed_one(s3):
    rep = trivial_rep(s3, 0)
    assert (rep.degree, rep.spec, rep.images.shape) == (0, "trivial:0", (6, 0, 0))
    summed = parse_rep_spec(s3, "sum(trivial:0;defining)")
    assert direct_sum([rep, defining_rep(s3)]).images.tobytes() == summed.images.tobytes()


BAD_A = "perm:1,0,2|1,0,2"  # both S_3 generators to one transposition
BAD_B = "perm:1,2,0|0,1,2"


def _error(group, spec):
    """What parsing ``spec`` raises: the replay's (element, generator,
    residual) on a close-built group, else the relators' message."""
    with pytest.raises(ValueError) as info:
        parse_rep_spec(group, spec)
    err = info.value
    if isinstance(err, InconsistentImagesError):
        return err.element, err.generator, err.residual
    return str(err)


@pytest.mark.parametrize("nested", ["sum(BAD;defining)", "tensor:2(BAD)",
                                    "sum(sign;tensor:3(BAD))"])
def test_nested_inconsistent_part_reports_its_own_pair(s3, s3_copy, nested):
    for group in (s3, s3_copy):
        assert _error(group, nested.replace("BAD", BAD_A)) == _error(group, BAD_A)


def test_two_inconsistent_parts_report_the_first_parts_pair(s3, s3_copy):
    # each part alone fails at generator 0, at elements 3 and 1 of the
    # close-built copy, and fails c^3 and s^2 of the named group; the
    # parts are built and checked in spec order, so the first one's
    # error is raised
    failing = "generator images are inconsistent: they fail the defining relator {} of symmetric:3"
    for group, error_a, error_b in [(s3_copy, (3, 0, 1.0), (1, 0, 1.0)),
                                    (s3, failing.format("g1^3"), failing.format("g0^2"))]:
        assert _error(group, BAD_A) == error_a
        assert _error(group, BAD_B) == error_b
        assert _error(group, f"sum({BAD_A};{BAD_B})") == error_a
        assert _error(group, f"sum({BAD_B};{BAD_A})") == error_b


# --- oversized specs are refused before any image is built ------------------

@pytest.mark.parametrize("spec,degree", [
    ("trivial:8", 8),
    ("sum(tensor:2(defining);trivial:2)", 8),
    ("tensor:2(sum(defining;sign))", 8),
    ("perm:0,1,2,3,4,5,6,7|1,0,2,3,4,5,6,7", 8),
])
def test_rep_spec_above_the_image_cap_builds_nothing(s3, monkeypatch, spec, degree):
    # s3 has two generators: a cap of their int64 targets and int8 signs
    # at degree 7 admits degree 7
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 2 * 7 * 9)
    assert parse_rep_spec(s3, "sum(tensor:2(defining);sign)").degree == 7
    for builder in ("defining_rep", "sign_rep", "trivial_rep", "permutation_rep",
                    "direct_sum", "tensor_identity", "_sum_images", "_tensor_images"):
        monkeypatch.setattr(reps, builder, lambda *args: pytest.fail("image built"))
    with pytest.raises(ValueError, match=rf"has degree {degree}: .* above the cap"):
        parse_rep_spec(s3, spec)


def test_walk_refuses_element_data_above_the_cap(monkeypatch):
    # a spec's generator data passes at parse time; its element data is
    # bounded where it is walked, after the tree is read and before any
    # of it is allocated. symmetric:3's six elements at degree 8 take 48
    # bytes of int8 codes
    group = named_group("symmetric", 3)
    rep = parse_rep_spec(group, "tensor:2(sum(defining;trivial:1))")
    assert rep.degree == 8
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 6 * 8 - 1)
    with pytest.raises(ValueError, match=r"^the element data \(6, 8\) over "
                                         r"FiniteGroup\(symmetric:3, .* would take 48 bytes, "
                                         r"above the cap MAX_IMAGE_STACK_BYTES=47$"):
        rep.targets
    assert group._cayley is not None  # the tree was read first
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 6 * 8)
    assert rep.targets.shape == (6, 8)


def test_relator_rejected_leaf_above_the_enumeration_cap_names_the_relators(monkeypatch):
    # s -> identity and c -> (0 1) fail (s c)^3. The relators decide the
    # leaf at every size, neither enumerating nor replaying: at the cap
    # and above it, the message names that relator, the first that the
    # dense matmul of the words finds
    leaf = "perm:0,1,2,3|1,0,2,3"
    assert first_failing_relator(named_group("symmetric", 4),
                                 permutation_matrix(np.array([[0, 1, 2, 3], [1, 0, 2, 3]]))
                                 ) == "(g0 g1)^3"
    monkeypatch.setattr(groups, "_bfs", lambda *args: pytest.fail("enumerated"))
    monkeypatch.setattr(reps, "_replay", lambda *args: pytest.fail("replayed"))
    for cap in (24, 23):
        monkeypatch.setattr(groups, "MAX_ORDER", cap)
        assert _error(named_group("symmetric", 4), leaf) == (
            "generator images are inconsistent: they fail the defining relator (g0 g1)^3 of "
            "symmetric:4")
