import math
import tracemalloc

import numpy as np
import pytest

from equikit import groups, numerics, reps
from equikit.groups import ClosureError, close, group_from_spec, named_group
from helpers import element_index, permutation_matrix, words


def cyclic_shift(n):
    return permutation_matrix([(j + 1) % n for j in range(n)])


def test_close_cyclic_shift_order_3():
    g = close([cyclic_shift(3)])
    assert g.order == 3
    assert np.array_equal(reps.defining_rep(g).images[0], np.eye(3))


def test_close_s3_from_adjacent_swaps():
    g = close([permutation_matrix([1, 0, 2]), permutation_matrix([0, 2, 1])])
    assert g.order == 6


def test_close_quarter_turn_order_4():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = close([rot])
    assert g.order == 4


def test_closed_under_generator_products():
    g = named_group("symmetric", 4)
    elements = reps.defining_rep(g).images
    for e in range(g.order):
        for gi in range(g.gen_count):
            prod = elements[e] @ g.generators[gi]
            assert element_index(elements, prod) == g.cayley[e, gi]


def test_no_duplicate_elements():
    g = named_group("p4", 3)
    elements = reps.defining_rep(g).images
    for i in range(g.order):
        diffs = np.abs(elements - elements[i]).max(axis=(1, 2))
        diffs[i] = np.inf
        assert diffs.min() > 1e-6


def test_words_replay_elements():
    g = named_group("p4m", 2)
    elements = reps.defining_rep(g).images
    for i, word in enumerate(words(g)):
        m = np.eye(g.dim)
        for gi in word:
            m = m @ g.generators[gi]
        assert np.abs(m - elements[i]).max() < 1e-9


def test_words_are_shortest_first():
    g = named_group("symmetric", 4)
    lengths = [len(w) for w in words(g)]
    assert lengths == sorted(lengths)
    assert words(g)[0] == ()


def test_cayley_associativity():
    g = named_group("symmetric", 3)
    elements = reps.defining_rep(g).images
    for a in range(g.order):
        for g1 in range(g.gen_count):
            for g2 in range(g.gen_count):
                left = g.cayley[g.cayley[a, g1], g2]
                direct = element_index(elements, elements[a] @ g.generators[g1] @ g.generators[g2])
                assert left == direct


def test_cayley_columns_are_permutations():
    g = named_group("p4", 2)
    for gi in range(g.gen_count):
        col = sorted(g.cayley[:, gi].tolist())
        assert col == list(range(g.order))


def test_every_element_has_inverse():
    g = named_group("p4m", 2)
    elements = reps.defining_rep(g).images
    for i in range(g.order):
        j = element_index(elements, np.linalg.inv(elements[i]))
        assert j is not None
        assert np.abs(elements[i] @ elements[j] - np.eye(g.dim)).max() < 1e-9


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
    torus, p4, p4m = (reps.defining_rep(named_group(kind, n)).images
                      for kind in ("torus", "p4", "p4m"))
    for e in torus:
        assert element_index(p4, e) is not None
    for e in p4:
        assert element_index(p4m, e) is not None


def test_closure_cap_error_names_cap(monkeypatch):
    # the cap is read when the closure runs
    monkeypatch.setattr(groups, "MAX_ORDER", 10)
    with pytest.raises(ClosureError, match="not closed within 10 elements"):
        close([cyclic_shift(16)])
    assert close([cyclic_shift(10)]).order == 10


def test_non_invertible_generator_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        close([np.zeros((2, 2))])


def test_mismatched_generator_shapes_rejected():
    with pytest.raises(ValueError):
        close([np.eye(2), np.eye(3)])


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


# the enumeration cap fires where elements are enumerated: naming a
# group above it builds the group, and its first read of the tree raises
# before the BFS runs
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
    monkeypatch.setattr(groups, "MAX_ORDER", cap)
    monkeypatch.setattr(groups, "_bfs", _must_not_enumerate)
    group = named_group(kind, size)
    assert group.order > cap and group.spec == f"{kind}:{size}"
    for read in ("cayley", "parents"):
        with pytest.raises(ClosureError, match=rf"{kind}:{size}.* has more elements than the "
                                               rf"enumeration cap MAX_ORDER={cap}$"):
            getattr(group, read)
    with pytest.raises(ClosureError, match=f"MAX_ORDER={cap}"):
        reps.defining_rep(group).targets


def test_named_group_at_the_cap_still_closes(monkeypatch):
    assert named_group("p4m", 50).order == groups.MAX_ORDER == 20000
    for kind, size, cap in [("cyclic", 20, 20), ("symmetric", 5, 120), ("torus", 5, 25)]:
        monkeypatch.setattr(groups, "MAX_ORDER", cap)
        group = named_group(kind, size)
        assert len(group.cayley) == group.order == cap


# a named group whose elements' (order, n) int16 keys would take above
# 256 MiB is refused when enumerated: cyclic n > 11585, torus N > 107 (p4
# and p4m are held to N <= 70 and N <= 50 by the order cap). Naming
# enumerates nothing at either size, and a refused size raises before
# the BFS runs
@pytest.mark.parametrize("kind,size,refused", [
    ("cyclic", 5792, False), ("cyclic", 11585, False), ("cyclic", 11586, True),
    ("torus", 64, False), ("torus", 107, False), ("torus", 108, True),
    ("p4", 57, False), ("p4", 70, False),
])
def test_named_group_refuses_an_oversized_generator_stack(kind, size, refused, monkeypatch):
    monkeypatch.setattr(groups, "_bfs", _must_not_enumerate)
    group = named_group(kind, size)
    assert group.order == {"cyclic": size, "torus": size ** 2, "p4": 4 * size ** 2}[kind]
    assert group.gen_count == {"cyclic": 1, "torus": 2, "p4": 3}[kind]
    if refused:
        with pytest.raises(ValueError, match=rf"enumerating FiniteGroup\({kind}:{size}, .*: its "
                                             r"elements' keys would take \d+ bytes, above "
                                             r"the cap MAX_IMAGE_STACK_BYTES"):
            group.cayley
    else:
        with pytest.raises(AssertionError, match="enumerated"):
            group.cayley


# a name builds only its generators' index maps, int64 targets and int8
# signs (9 bytes a point a generator), and refuses them above the cap
# before building any: cyclic n > 29826161, torus N > 3861, p4 N > 3153,
# p4m N > 2730. The admitted side of each boundary is built under a cap
# patched to its exact size
@pytest.mark.parametrize("kind,size,count", [
    ("cyclic", 29826161, 1), ("torus", 3861, 2), ("p4", 3153, 3), ("p4m", 2730, 4),
])
def test_named_group_refuses_oversized_generator_maps(kind, size, count, monkeypatch):
    degree = size if kind == "cyclic" else size * size
    assert count * degree * 9 <= groups.MAX_IMAGE_STACK_BYTES
    big = size + 1
    big_degree = big if kind == "cyclic" else big * big
    assert count * big_degree * 9 > groups.MAX_IMAGE_STACK_BYTES
    monkeypatch.setattr(groups, "_grid_permutations", _must_not_build)
    monkeypatch.setattr(groups, "FiniteGroup", _must_not_build)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^group {kind}:{big} has degree {big_degree}: "
                                             rf"its {count} generators' index maps would take "
                                             rf"{count * big_degree * 9} bytes, above the cap "
                                             r"MAX_IMAGE_STACK_BYTES=268435456$"):
            named_group(kind, big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    # the same boundary at size 10, under a cap patched to admit exactly it
    monkeypatch.undo()
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES",
                        count * (10 if kind == "cyclic" else 100) * 9)
    assert named_group(kind, 10).gen_count == count
    with pytest.raises(ValueError, match=f"group {kind}:11 has degree"):
        named_group(kind, 11)


@pytest.mark.parametrize("spec", ["cyclic:10000000", "p4m:1000"])
def test_naming_a_group_allocates_about_the_maps_it_keeps(spec):
    # each generator's map is written into the one array the group keeps,
    # so naming peaks near the bytes the cap checks, not twice them
    tracemalloc.start()
    try:
        group = group_from_spec(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    targets, signs = group.gen_arrays
    assert peak <= targets.nbytes + signs.nbytes + 2 ** 20


def test_named_group_stack_cap_reads_the_constant(monkeypatch):
    # cyclic:4 is one generator of degree 4 (36 bytes); symmetric:4's
    # elements are 24 int8 code rows of degree 4 (96 bytes)
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 4 * 9 - 1)
    with pytest.raises(ValueError, match="group cyclic:4 has degree 4: its 1 generators'"):
        named_group("cyclic", 4)
    assert named_group("cyclic", 3).order == 3
    monkeypatch.undo()
    group = named_group("symmetric", 4)
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 24 * 4 - 1)
    with pytest.raises(ValueError, match="its elements' keys would take 96 bytes"):
        group.cayley
    monkeypatch.setattr(groups, "MAX_IMAGE_STACK_BYTES", 24 * 4)
    assert len(group.cayley) == 24


# the one bound at a name: the order must fit int64, the type of every
# element index. 20! fits and 21! does not; m! is computed only up to its
# first partial product past int64
@pytest.mark.parametrize("kind,size,admitted", [
    ("symmetric", 20, True), ("symmetric", 21, False), ("symmetric", 10 ** 6, False),
    ("cyclic", 2 ** 63 - 1, None), ("cyclic", 2 ** 63, False), ("p4m", 2 ** 40, False),
])
def test_named_group_order_must_fit_int64(kind, size, admitted, monkeypatch):
    monkeypatch.setattr(groups, "_bfs", _must_not_enumerate)
    if admitted is None:  # the order fits, the generator maps do not
        with pytest.raises(ValueError, match="generators' index maps would take"):
            named_group(kind, size)
    elif admitted:
        group = named_group(kind, size)
        assert group.order == math.factorial(20) and group.gen_count == 2
    else:
        with pytest.raises(ValueError, match=rf"^group {kind}:{size} has at least \d+ "
                                             "elements, too many for int64 element indices$"):
            named_group(kind, size)


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
    assert (reps.defining_rep(fast).images.tobytes()
            == reps.defining_rep(dense).images.tobytes())
    assert fast.generators.tobytes() == dense.generators.tobytes()
    assert words(fast) == words(dense)
    assert fast.cayley.tobytes() == dense.cayley.tobytes()
    assert fast.parents.tobytes() == dense.parents.tobytes()


@pytest.mark.parametrize("spec", NAMED_SPECS)
def test_signed_closure_is_bitwise_the_dense_closure(spec):
    fast = group_from_spec(spec)
    assert_same_group(fast, groups._close_dense(list(fast.generators)))


def test_signed_closure_with_negative_zeros_is_bitwise_the_dense_closure():
    # -1.0 * 0.0 leaves -0.0 in the zero entries of the negated columns
    gens = [permutation_matrix([1, 2, 0, 3]) * np.array([1.0, -1.0, 1.0, -1.0]),
            -permutation_matrix([0, 1, 3, 2])]
    assert np.signbit(gens[1][0, 1])
    assert_same_group(close(gens), groups._close_dense(gens))


def test_signed_closure_cap_matches_dense(monkeypatch):
    monkeypatch.setattr(groups, "MAX_ORDER", 5)
    gens = [cyclic_shift(7)]
    for closer in (close, groups._close_dense):
        with pytest.raises(ClosureError, match="not closed within 5 elements"):
            closer(gens)


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
    dense products: the oracle for the words read off ``parents``."""
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
    assert words(group) == queue_words(list(group.generators))


def test_signed_group_words_match_the_one_element_queue():
    gens = [permutation_matrix([1, 2, 0, 3]) * np.array([1.0, -1.0, 1.0, -1.0]),
            -permutation_matrix([0, 1, 3, 2])]
    assert words(close(gens)) == queue_words(gens)


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
    monkeypatch.setattr(groups, "signed_permutations", _no_dense_stack)
    monkeypatch.setattr(numerics, "signed_permutations", _no_dense_stack)
    group = named_group("p4m", 3)
    assert group.gen_count == 4
    assert group.generators.tobytes() == want.tobytes()
    assert group.generators is group.generators


def _pointwise_maps(kind, n):
    """A named group's generator index maps, one point at a time: the
    transposition (0 1) and the shift j -> j + 1 (mod n) on a line, and
    on the n x n grid, pixel (r, c) at index r*n + c, the moves (r + 1, c),
    (r, c + 1), (-c, r) and (-r, c) (mod n)."""
    shift = [(j + 1) % n for j in range(n)]
    if kind in ("symmetric", "cyclic") or n == 1:
        return [[1, 0, *range(2, n)], shift] if kind == "symmetric" and n > 2 else [shift]
    moves = [lambda r, c: (r + 1, c), lambda r, c: (r, c + 1),
             lambda r, c: (-c, r), lambda r, c: (-r, c)]
    count = {"torus": 2, "p4": 3, "p4m": 4}[kind]
    return [[r2 % n * n + c2 % n for r, c in np.ndindex(n, n) for r2, c2 in [move(r, c)]]
            for move in moves[:count]]


@pytest.mark.parametrize("kind", ["symmetric", "cyclic", "torus", "p4", "p4m"])
def test_named_group_maps_match_the_pointwise_maps(kind):
    for n in (1, 2, 3, 4, 7, 8):
        targets, signs = named_group(kind, n).gen_arrays
        assert targets.dtype == np.int64 and signs.dtype == np.int8
        assert targets.tolist() == _pointwise_maps(kind, n)
        assert (signs == 1).all() and signs.shape == targets.shape


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
    # defining rep walks its int16 targets on their first read
    group, peak, _ = _closure_mib("cyclic:2000")
    assert group.order == 2000
    assert peak < 16
    assert reps.defining_rep(group).targets.dtype == np.int16


def test_p4m_32_closure_peak():
    # 8192 elements of degree 1024: no 32 MiB dense generator stack, no
    # int64 widening, and no element data kept past the BFS; the defining
    # rep's first read walks its targets (16 MiB of int16) and signs (8 MiB)
    group, peak, held = _closure_mib("p4m:32")
    assert group.order == 8192
    assert peak < 40
    assert held < 2
    assert reps.defining_rep(group).targets.dtype == np.int16


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
    rep = reps.defining_rep(group)
    assert group.parents.shape == (order, 2) and rep.targets.shape == (order, group.dim)
    assert rep.images.shape == (order, group.dim, group.dim)
    assert runs == [spec]  # forced twice and more, enumerated once
    # the order a closure finds with no closed form to meet, and the
    # group's own generators satisfy its defining relators
    assert close(list(group.generators)).order == order
    assert groups._satisfies_relators(group, group.gen_arrays)


@pytest.mark.parametrize("wrong", [-1, 1])
def test_an_enumeration_off_the_closed_form_order_raises(wrong, monkeypatch):
    real = groups._named_order
    monkeypatch.setattr(groups, "_named_order", lambda *args: real(*args) + wrong)
    group = named_group("p4m", 3)
    # 72 elements: short of a closed form of 73, or past a cap of 71
    with pytest.raises(ClosureError, match="enumerates 72 elements|not closed within 71 "):
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


def test_a_group_holds_only_its_tree(monkeypatch):
    # p4m:16: 2048 elements of degree 256, whose defining rep's targets
    # and signs take 1.5 MiB and the tree (cayley and parents) 96 KiB. A
    # first walk warms numpy's caches; 4 KiB covers the arrays' headers
    assert reps.defining_rep(group_from_spec("p4m:16")).targets is not None
    group = group_from_spec("p4m:16")
    tracemalloc.start()
    try:
        rep = reps.defining_rep(group)
        assert rep.targets.dtype == np.int16
        del rep
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= group.cayley.nbytes + group.parents.nbytes + 4096
    assert [k for k, v in vars(group).items() if isinstance(v, np.ndarray)] == [
        "_cayley", "_parents"]

    walks = []
    walk = reps._walk
    monkeypatch.setattr(reps, "_walk", lambda *args: walks.append(1) or walk(*args))
    before = dict(vars(group))
    first, second = reps.defining_rep(group), reps.defining_rep(group)
    assert first.targets is not second.targets
    assert np.array_equal(first.targets, second.targets)
    assert np.array_equal(first.signs, second.signs)
    assert len(walks) == 2
    assert vars(group).keys() == before.keys()
    assert all(vars(group)[k] is v for k, v in before.items())
