import tracemalloc

import numpy as np
import pytest

from equikit import groups, numerics, reps
from equikit.groups import (
    ClosureError,
    close,
    group_from_spec,
    named_group,
    permutation_matrix,
)


def cyclic_shift(n):
    return permutation_matrix([(j + 1) % n for j in range(n)])


def test_close_cyclic_shift_order_3():
    g = close([cyclic_shift(3)])
    assert g.order == 3
    assert np.array_equal(g.elements[0], np.eye(3))


def test_close_s3_from_adjacent_swaps():
    g = close([permutation_matrix([1, 0, 2]), permutation_matrix([0, 2, 1])])
    assert g.order == 6


def test_close_quarter_turn_order_4():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = close([rot])
    assert g.order == 4


def test_closed_under_generator_products():
    g = named_group("symmetric", 4)
    for e in range(g.order):
        for gi in range(g.gen_count):
            prod = g.elements[e] @ g.generators[gi]
            assert g.index_of(prod) == g.cayley[e, gi]


def test_no_duplicate_elements():
    g = named_group("p4", 3)
    for i in range(g.order):
        diffs = np.abs(g.elements - g.elements[i]).max(axis=(1, 2))
        diffs[i] = np.inf
        assert diffs.min() > 1e-6


def test_words_replay_elements():
    g = named_group("p4m", 2)
    for i, word in enumerate(g.words):
        m = np.eye(g.dim)
        for gi in word:
            m = m @ g.generators[gi]
        assert np.abs(m - g.elements[i]).max() < 1e-9


def test_words_are_shortest_first():
    g = named_group("symmetric", 4)
    lengths = [len(w) for w in g.words]
    assert lengths == sorted(lengths)
    assert g.words[0] == ()


def test_cayley_associativity():
    g = named_group("symmetric", 3)
    for a in range(g.order):
        for g1 in range(g.gen_count):
            for g2 in range(g.gen_count):
                left = g.cayley[g.cayley[a, g1], g2]
                direct = g.index_of(g.elements[a] @ g.generators[g1] @ g.generators[g2])
                assert left == direct


def test_cayley_columns_are_permutations():
    g = named_group("p4", 2)
    for gi in range(g.gen_count):
        col = sorted(g.cayley[:, gi].tolist())
        assert col == list(range(g.order))


def test_every_element_has_inverse():
    g = named_group("p4m", 2)
    for i in range(g.order):
        j = g.inverse_index(i)
        assert np.abs(g.elements[i] @ g.elements[j] - np.eye(g.dim)).max() < 1e-9


@pytest.mark.parametrize("kind,size,order", [
    ("symmetric", 1, 1),
    ("symmetric", 2, 2),
    ("symmetric", 3, 6),
    ("symmetric", 4, 24),
    ("symmetric", 5, 120),
    ("cyclic", 1, 1),
    ("cyclic", 4, 4),
    ("cyclic", 7, 7),
    ("torus", 1, 1),
    ("torus", 2, 4),
    ("torus", 3, 9),
    ("torus", 4, 16),
    ("p4", 3, 36),
    ("p4", 4, 64),
    ("p4m", 3, 72),
])
def test_named_group_orders(kind, size, order):
    assert named_group(kind, size).order == order


def test_square_groups_collapse_on_two_pixel_grid():
    # On the 2 x 2 periodic grid the quarter turn squares to the trivial
    # pixel map and the row reflection is trivial, so both square groups
    # realize as the same order-8 permutation group.
    assert named_group("p4", 2).order == 8
    assert named_group("p4m", 2).order == 8


@pytest.mark.parametrize("n", [2, 3])
def test_grid_group_nesting(n):
    torus = named_group("torus", n)
    p4 = named_group("p4", n)
    p4m = named_group("p4m", n)
    for e in torus.elements:
        assert p4.contains(e)
    for e in p4.elements:
        assert p4m.contains(e)


def test_closure_cap_error_names_cap():
    with pytest.raises(ClosureError, match="max_order=10"):
        close([cyclic_shift(16)], max_order=10)


def test_non_invertible_generator_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        close([np.zeros((2, 2))])


def test_mismatched_generator_shapes_rejected():
    with pytest.raises(ValueError):
        close([np.eye(2), np.eye(3)])


def test_index_of_missing_element():
    g = named_group("cyclic", 3)
    with pytest.raises(ValueError, match="not an element"):
        g.index_of(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="shape"):
        g.index_of(np.eye(2))
    assert not g.contains(np.eye(4))


def test_index_of_every_element():
    g = named_group("p4m", 3)
    for i, e in enumerate(g.elements):
        assert g.index_of(e + 1e-9) == i


def test_signed_lookup_keeps_the_match_tolerance():
    g = named_group("p4m", 3)
    assert g.targets is not None
    e = g.generators[2]
    assert g.index_of(e + 9e-7) == g.index_of(e - 9e-7) == 3
    assert not g.contains(e + 2e-6)
    assert not g.contains(np.zeros((9, 9)))
    assert not g.contains(np.ones((9, 9)))
    assert not g.contains(-e)  # a signed permutation outside the group


def test_signed_lookup_builds_no_dense_stack():
    g = named_group("p4m", 12)  # one dense (|G|, n, n) stack is 191 MB
    tracemalloc.start()
    try:
        found = g.index_of(g.generators[2])
        inverses = [g.inverse_index(i) for i in range(g.order)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == 3
    assert peak < 5e6
    # element i times element inverses[i] maps e_k to +e_k for every k
    after = g.targets[inverses]
    assert np.array_equal(np.take_along_axis(g.targets, after, axis=1),
                          np.broadcast_to(np.arange(g.dim), after.shape))
    assert (np.take_along_axis(g.signs, after, axis=1) * g.signs[inverses] == 1).all()


def test_group_from_spec():
    g = group_from_spec("symmetric:4")
    assert g.order == 24
    assert g.spec == "symmetric:4"
    with pytest.raises(ValueError):
        group_from_spec("symmetric")
    with pytest.raises(ValueError):
        group_from_spec("symmetric:x")
    with pytest.raises(ValueError):
        group_from_spec("frieze:3")


def test_permutation_matrix_validates():
    with pytest.raises(ValueError):
        permutation_matrix([0, 0, 1])


def _must_not_enumerate(*args, **kwargs):
    raise AssertionError("the group's elements were enumerated")


def _must_not_build(*args, **kwargs):
    raise AssertionError("a group was built above its cap")


@pytest.mark.parametrize("kind,size,cap", [
    ("cyclic", 21, 20),
    ("symmetric", 5, 119),
    ("torus", 5, 24),
    ("p4", 5, 24),
    ("p4m", 5, 24),
    ("p4", 71, 20000),
    ("p4m", 51, 20000),
])
def test_named_group_refuses_oversize_before_closing(kind, size, cap, monkeypatch):
    monkeypatch.setattr(groups, "_grid_permutations", _must_not_build)
    monkeypatch.setattr(groups, "FiniteGroup", _must_not_build)
    with pytest.raises(ClosureError, match=f"max_order={cap}"):
        named_group(kind, size, max_order=cap)


def test_named_group_at_the_cap_still_closes():
    assert named_group("cyclic", 20, max_order=20).order == 20
    assert named_group("symmetric", 5, max_order=120).order == 120
    assert named_group("torus", 5, max_order=25).order == 25
    assert named_group("p4m", 50).order == 20000
    for group in (named_group("cyclic", 20, max_order=20), named_group("torus", 5, max_order=25)):
        assert len(group.cayley) == group.order


# a named group whose elements' (order, n) int16 index arrays would take
# above 256 MiB is refused: cyclic n > 11585, torus N > 107 (p4 and p4m
# are held to N <= 70 and N <= 50 by the order cap). The enumeration is
# patched: an admitted size returns a group of its closed-form order with
# nothing enumerated, and a refused one raises before any group is built
@pytest.mark.parametrize("kind,size,refused", [
    ("cyclic", 5792, False), ("cyclic", 11585, False), ("cyclic", 11586, True),
    ("torus", 64, False), ("torus", 107, False), ("torus", 108, True),
    ("p4", 57, False), ("p4", 70, False),
])
def test_named_group_refuses_an_oversized_generator_stack(kind, size, refused, monkeypatch):
    monkeypatch.setattr(groups, "_bfs", _must_not_enumerate)
    if refused:
        monkeypatch.setattr(groups, "FiniteGroup", _must_not_build)
        with pytest.raises(ValueError, match=rf"group {kind}:{size} has degree \d+: .* "
                                             r"above the cap MAX_IMAGE_STACK_BYTES"):
            named_group(kind, size)
    else:
        group = named_group(kind, size)
        assert group.order == {"cyclic": size, "torus": size ** 2, "p4": 4 * size ** 2}[kind]
        assert group.gen_count == {"cyclic": 1, "torus": 2, "p4": 3}[kind]
        with pytest.raises(AssertionError, match="enumerated"):
            group.cayley


def test_named_group_stack_cap_reads_the_constant(monkeypatch):
    # cyclic:4's elements are four int8 index rows of degree 4
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 4 * 4 - 1)
    with pytest.raises(ValueError, match="group cyclic:4 has degree 4"):
        named_group("cyclic", 4)
    assert named_group("cyclic", 3).order == 3


def _no_det(*args):
    raise AssertionError("det called on signed permutations")


def test_signed_permutation_builds_call_no_det(monkeypatch):
    monkeypatch.setattr(np.linalg, "det", _no_det)
    g = named_group("p4m", 4)
    assert reps.defining_rep(g).targets is not None
    rep = reps.parse_rep_spec(g, "tensor:2(sum(defining;sign;trivial:1))")
    assert rep.degree == 36 and rep.targets is not None
    assert rep.gen_images.shape == (4, 36, 36)


# --- signed-permutation fast path against the dense closure --------------

NAMED_SPECS = [f"symmetric:{m}" for m in range(1, 6)] + [
    f"{kind}:{n}" for kind in ("cyclic", "torus", "p4", "p4m") for n in range(1, 5)
]


def assert_same_group(fast, dense):
    assert fast.elements.tobytes() == dense.elements.tobytes()
    assert fast.generators.tobytes() == dense.generators.tobytes()
    assert fast.words == dense.words
    assert fast.cayley.tobytes() == dense.cayley.tobytes()
    assert fast.parents.tobytes() == dense.parents.tobytes()


@pytest.mark.parametrize("spec", NAMED_SPECS)
def test_signed_closure_is_bitwise_the_dense_closure(spec):
    fast = group_from_spec(spec)
    assert_same_group(fast, groups._close_dense(list(fast.generators), spec=spec))


def test_signed_closure_with_negative_zeros_is_bitwise_the_dense_closure():
    # -1.0 * 0.0 leaves -0.0 in the zero entries of the negated columns
    gens = [permutation_matrix([1, 2, 0, 3]) * np.array([1.0, -1.0, 1.0, -1.0]),
            -permutation_matrix([0, 1, 3, 2])]
    assert np.signbit(gens[1][0, 1])
    assert_same_group(close(gens), groups._close_dense(gens))


def test_signed_closure_cap_matches_dense():
    gens = [cyclic_shift(7)]
    for closer in (close, groups._close_dense):
        with pytest.raises(ClosureError, match="max_order=5"):
            closer(gens, max_order=5)


def _key_must_not_run(m):
    raise AssertionError("rounding key used on signed permutation generators")


@pytest.mark.parametrize("spec", ["symmetric:4", "p4m:3", "cyclic:5"])
def test_named_closure_never_rounds(spec, monkeypatch):
    monkeypatch.setattr(groups, "_key", _key_must_not_run)
    assert group_from_spec(spec).spec == spec


def test_rotation_matrix_group_closes_on_the_rounding_key(monkeypatch):
    calls = []
    real_key = groups._key
    monkeypatch.setattr(groups, "_key", lambda m: calls.append(1) or real_key(m))
    angle = 2 * np.pi / 6
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    assert close([rot]).order == 6
    assert calls


# --- words from parent links, one generator stack, closure memory ----------

def queue_words(gens):
    """Each element's word from a one-element-at-a-time BFS queue over
    dense products: the construction ``words`` had before it was derived
    from ``parents``."""
    words = [()]
    elements = [np.eye(gens[0].shape[0])]
    seen = {groups._key(elements[0])}
    e = 0
    while e < len(elements):
        for gi, g in enumerate(gens):
            product = elements[e] @ g
            if groups._key(product) not in seen:
                seen.add(groups._key(product))
                elements.append(product)
                words.append(words[e] + (gi,))
        e += 1
    return words


@pytest.mark.parametrize("spec", ["symmetric:4", "cyclic:5", "p4:3", "p4m:4"])
def test_words_match_the_one_element_queue(spec):
    group = group_from_spec(spec)
    assert group.words == queue_words(list(group.generators))
    assert group.words is group.words


def test_signed_group_words_match_the_one_element_queue():
    gens = [permutation_matrix([1, 2, 0, 3]) * np.array([1.0, -1.0, 1.0, -1.0]),
            -permutation_matrix([0, 1, 3, 2])]
    assert close(gens).words == queue_words(gens)


def test_permutation_matrix_stacks_rows():
    perms = [[1, 2, 0], [0, 2, 1]]
    stack = permutation_matrix(np.array(perms))
    assert stack.tobytes() == np.stack([permutation_matrix(p) for p in perms]).tobytes()
    with pytest.raises(ValueError, match=r"not a permutation of 0..2: \[\[1, 2, 0\], \[0, 0, 1\]\]"):
        permutation_matrix([[1, 2, 0], [0, 0, 1]])


def _no_dense_stack(*args):
    raise AssertionError("a named group built a dense generator stack")


def test_named_group_closes_from_its_index_maps(monkeypatch):
    # no dense stack is built or read back; generators is scattered on
    # first read, bitwise the permutation matrices of the index maps
    want = permutation_matrix(groups._grid_permutations(3, "p4m"))
    monkeypatch.setattr(groups, "permutation_matrix", _no_dense_stack)
    monkeypatch.setattr(groups, "signed_permutations", _no_dense_stack)
    monkeypatch.setattr(numerics, "signed_permutations", _no_dense_stack)
    group = named_group("p4m", 3)
    assert group.gen_count == 4
    assert group.generators.tobytes() == want.tobytes()
    assert group.generators is group.generators


def _closure_mib(spec):
    """The group of ``spec`` and the MiB traced at the peak of its
    enumeration and held once it is done."""
    tracemalloc.start()
    try:
        group = group_from_spec(spec)
        assert len(group.cayley) == group.order  # a named group encloses on first read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return group, peak / 2 ** 20, held / 2 ** 20


def test_cyclic_2000_closure_peak():
    # a 30.5 MiB dense generator is never built, and the BFS holds one
    # level's int16 codes and the keys of the elements it has seen; the
    # int16 targets are walked on their first read
    group, peak, _ = _closure_mib("cyclic:2000")
    assert group.order == 2000
    assert peak < 16
    assert group.targets.dtype == np.int16


def test_p4m_32_closure_peak():
    # 8192 elements of degree 1024: no 32 MiB dense generator stack, no
    # int64 widening, and no element data kept past the BFS, which the
    # targets' (16 MiB of int16) and signs' (8 MiB) first read walks
    group, peak, held = _closure_mib("p4m:32")
    assert group.order == 8192
    assert peak < 40
    assert held < 2
    assert group.targets.dtype == np.int16


# --- a named group is its generators plus a closed-form order --------------

CLOSED_FORM_SPECS = [f"symmetric:{m}" for m in range(1, 8)] + [
    f"{kind}:{n}" for kind in ("cyclic", "torus", "p4", "p4m") for n in range(1, 13)
]


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_closed_form_order_and_generator_ids_are_the_bfs(spec, monkeypatch):
    group = group_from_spec(spec)
    order, ids = group.order, group.generator_ids
    runs = []
    bfs = groups._bfs
    monkeypatch.setattr(groups, "_bfs", lambda *args: runs.append(spec) or bfs(*args))
    assert group.cayley.shape == (order, group.gen_count)
    assert np.array_equal(ids, group.cayley[0])
    assert group.parents.shape == (order, 2) and group.targets.shape == (order, group.dim)
    assert group.elements.shape == (order, group.dim, group.dim)
    assert runs == [spec]  # forced twice and more, enumerated once
    # the order a closure finds with no closed form to meet
    assert close(list(group.generators)).order == order


@pytest.mark.parametrize("wrong", [-1, 1])
def test_an_enumeration_off_the_closed_form_order_raises(wrong, monkeypatch):
    real = groups._named_order
    monkeypatch.setattr(groups, "_named_order", lambda *args: real(*args) + wrong)
    group = named_group("p4m", 3)
    # 72 elements: short of a closed form of 73, or past a cap of 71
    with pytest.raises(ClosureError, match="enumerates 72 elements|max_order=71"):
        group.cayley


def test_generator_ids_share_a_repeated_generator_and_the_identity():
    # generators: a shift, the identity, the shift again, its square
    shift = cyclic_shift(5)
    group = close([shift, np.eye(5), shift, shift @ shift])
    assert group.generator_ids.tolist() == group.cayley[0].tolist() == [1, 0, 1, 2]
    fresh = groups.FiniteGroup(5, 5, gen_arrays=group.gen_arrays)
    assert fresh.generator_ids.tolist() == [1, 0, 1, 2]
    assert fresh._cayley is None


def test_named_group_construction_enumerates_nothing(monkeypatch):
    monkeypatch.setattr(groups, "_bfs", _must_not_enumerate)
    tracemalloc.start()
    try:
        group = group_from_spec("p4m:32")
        rep = reps.defining_rep(group)
        ids = group.generator_ids
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (group.order, group.gen_count, ids.tolist()) == (8192, 4, [1, 2, 3, 4])
    assert rep.gen_arrays is group.gen_arrays
    assert peak < 2 ** 20
