import tracemalloc

import numpy as np
import pytest
from helpers import project

from equikit import intertwiners, kernels
from equikit.groups import close, named_group
from equikit.intertwiners import fixed_subspace, hom_dim_oracle, solve_basis
from equikit.numerics import nullspace
from equikit.reps import (
    Representation,
    defining_rep,
    direct_sum,
    extend,
    parse_rep_spec,
    sign_rep,
    tensor_identity,
    trivial_rep,
)


def trivial_group():
    return close([np.eye(1)])


def all_elements_nullspace(rep_in, rep_out):
    """Independent route: constrain over every element, not just generators."""
    n_in, n_out = rep_in.degree, rep_out.degree
    blocks = []
    for e in range(rep_in.group.order):
        blocks.append(
            np.kron(np.eye(n_out), rep_in.images[e].T)
            - np.kron(rep_out.images[e], np.eye(n_in))
        )
    return nullspace(np.vstack(blocks))


def max_commutation_residual(basis, rep_in, rep_out):
    worst = 0.0
    for b in basis.basis:
        lhs = b @ rep_in.images  # broadcasts over elements
        rhs = rep_out.images @ b
        worst = max(worst, np.abs(lhs - rhs).max())
    return worst


def test_trivial_group_unconstrained():
    g = trivial_group()
    rep = trivial_rep(g, 4)
    basis = solve_basis(rep, rep)
    assert basis.dim == 16
    assert hom_dim_oracle(rep, rep) == 16


def test_s3_defining_pair_dimension_and_span():
    g = named_group("symmetric", 3)
    rep = defining_rep(g)
    basis = solve_basis(rep, rep)
    assert basis.dim == 2
    assert hom_dim_oracle(rep, rep) == 2
    # the span is {identity, all-ones}: both project back exactly
    for target in (np.eye(3), np.ones((3, 3))):
        coeffs = project(basis, target)
        assert np.abs(basis.realize(coeffs) - target).max() < 1e-8


def test_c4_shift_pair_is_circulant_space():
    g = named_group("cyclic", 4)
    rep = defining_rep(g)
    basis = solve_basis(rep, rep)
    assert basis.dim == 4
    assert hom_dim_oracle(rep, rep) == 4


def test_deep_sets_dimensions():
    g = named_group("symmetric", 4)
    lifted = tensor_identity(defining_rep(g), 3)
    assert solve_basis(lifted, lifted).dim == 18
    assert hom_dim_oracle(lifted, lifted) == 18
    triv3 = trivial_rep(g, 3)
    assert solve_basis(lifted, triv3).dim == 9
    assert hom_dim_oracle(lifted, triv3) == 9


def test_s3_defining_to_trivial():
    g = named_group("symmetric", 3)
    assert hom_dim_oracle(defining_rep(g), trivial_rep(g, 1)) == 1
    assert solve_basis(defining_rep(g), trivial_rep(g, 1)).dim == 1


def test_real_rotation_rep_has_two_dim_commutant():
    # C3 acting by 120-degree planar rotation: real-irreducible of complex
    # type, so the real commutant has dimension 2, not 1
    c = np.cos(2.0 * np.pi / 3.0)
    s = np.sin(2.0 * np.pi / 3.0)
    g = close([np.array([[c, -s], [s, c]])])
    assert g.order == 3
    rep = defining_rep(g)
    basis = solve_basis(rep, rep)
    assert basis.dim == 2
    assert hom_dim_oracle(rep, rep) == 2


@pytest.mark.parametrize("rotation", [False, True])
def test_degree_zero_solves_to_the_zero_space(rotation):
    # a signed group's trivial reps take the orbit path; beside a dense
    # rotation rep, the dense one
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    g = close([np.array([[c, -s], [s, c]])]) if rotation else named_group("symmetric", 3)
    zero, one, defining = trivial_rep(g, 0), trivial_rep(g, 1), defining_rep(g)
    for rep_in, rep_out in [(zero, one), (one, zero), (zero, zero),
                            (zero, defining), (defining, zero)]:
        basis = solve_basis(rep_in, rep_out)
        assert basis.dim == hom_dim_oracle(rep_in, rep_out) == 0
        assert basis.basis.shape == (0, rep_out.degree, rep_in.degree)
        assert basis.realize(np.zeros(0)).shape == (rep_out.degree, rep_in.degree)
    assert fixed_subspace(zero).shape == (0, 0)


CASES = [
    ("symmetric", 3, "defining", "defining"),
    ("symmetric", 3, "defining", "trivial:1"),
    ("symmetric", 3, "sign", "defining"),
    ("symmetric", 4, "tensor:3(defining)", "tensor:3(defining)"),
    ("symmetric", 4, "tensor:3(defining)", "trivial:3"),
    ("cyclic", 4, "defining", "defining"),
    ("cyclic", 6, "defining", "tensor:2(defining)"),
    ("torus", 3, "defining", "defining"),
    ("p4", 2, "defining", "defining"),
    ("p4m", 2, "defining", "sum(defining;trivial:1)"),
]


@pytest.mark.parametrize("kind,size,spec_in,spec_out", CASES)
def test_solver_matches_character_oracle(kind, size, spec_in, spec_out):
    g = named_group(kind, size)
    rep_in = parse_rep_spec(g, spec_in)
    rep_out = parse_rep_spec(g, spec_out)
    basis = solve_basis(rep_in, rep_out)
    assert basis.dim == hom_dim_oracle(rep_in, rep_out)


@pytest.mark.parametrize("kind,size,spec_in,spec_out", CASES[:6])
def test_solver_matches_all_elements_route(kind, size, spec_in, spec_out):
    g = named_group(kind, size)
    rep_in = parse_rep_spec(g, spec_in)
    rep_out = parse_rep_spec(g, spec_out)
    basis = solve_basis(rep_in, rep_out)
    full = all_elements_nullspace(rep_in, rep_out)
    assert basis.dim == full.shape[1]
    if basis.dim:
        flat = basis.basis.reshape(basis.dim, -1).T
        p1 = flat @ flat.T
        p2 = full @ full.T
        assert np.abs(p1 - p2).max() < 1e-9


@pytest.mark.parametrize("kind,size,spec_in,spec_out", CASES)
def test_basis_commutes_with_every_element(kind, size, spec_in, spec_out):
    g = named_group(kind, size)
    rep_in = parse_rep_spec(g, spec_in)
    rep_out = parse_rep_spec(g, spec_out)
    basis = solve_basis(rep_in, rep_out)
    assert max_commutation_residual(basis, rep_in, rep_out) < 1e-8


@pytest.mark.parametrize("kind,size,spec", [
    ("symmetric", 4, "defining"),
    ("cyclic", 5, "defining"),
    ("symmetric", 3, "tensor:2(defining)"),
])
def test_frobenius_orthonormal(kind, size, spec):
    g = named_group(kind, size)
    rep = parse_rep_spec(g, spec)
    basis = solve_basis(rep, rep)
    flat = basis.basis.reshape(basis.dim, -1)
    gram = flat @ flat.T
    assert np.abs(gram - np.eye(basis.dim)).max() < 1e-10


@pytest.mark.parametrize("kind,size,spec", [
    ("symmetric", 3, "defining"),
    ("cyclic", 4, "defining"),
    ("symmetric", 4, "tensor:3(defining)"),
])
def test_endomorphism_space_closed_under_product(kind, size, spec):
    g = named_group(kind, size)
    rep = parse_rep_spec(g, spec)
    basis = solve_basis(rep, rep)
    for bi in basis.basis:
        for bj in basis.basis:
            prod = bi @ bj
            back = basis.realize(project(basis, prod))
            assert np.abs(back - prod).max() < 1e-8


def test_mismatched_groups_rejected():
    g1 = named_group("symmetric", 3)
    g2 = named_group("cyclic", 3)
    with pytest.raises(ValueError, match="same group"):
        solve_basis(defining_rep(g1), defining_rep(g2))
    with pytest.raises(ValueError, match="same group"):
        hom_dim_oracle(defining_rep(g1), defining_rep(g2))


@pytest.mark.parametrize("spec", ["defining", "sign", "tensor:2(sum(defining;sign))",
                                  "sum(trivial:2;defining)"])
def test_signed_character_is_the_dense_trace(spec):
    rep = parse_rep_spec(named_group("p4m", 3), spec)
    assert rep.targets is not None
    dense = np.trace(rep.images, axis1=1, axis2=2)
    assert np.array_equal(intertwiners._character(rep), dense)


def test_oracle_rejects_non_integer_average():
    g = named_group("symmetric", 3)
    rep = defining_rep(g)
    corrupted = Representation(g, 3, rep.gen_images.copy())
    corrupted.images[2] = corrupted.images[2] + 0.37
    with pytest.raises(ValueError, match="not an integer"):
        hom_dim_oracle(corrupted, corrupted)


def dense_basis(rep_in, rep_out):
    """The dense path's basis, whose zeros are all +0.0; the union-find
    orbit path must reproduce it bitwise."""
    ns = nullspace(intertwiners._constraint_stack(rep_in, rep_out))
    assert not np.signbit(ns[ns == 0.0]).any()
    return ns.T.reshape(ns.shape[1], rep_out.degree, rep_in.degree)


def assert_same_array(a, b):
    assert a.shape == b.shape
    assert a.strides == b.strides
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from +0.0


SIGNED_CASES = CASES + [
    ("symmetric", 3, "defining", "sign"),
    ("symmetric", 4, "sum(defining;sign)", "tensor:2(sum(defining;sign))"),
    ("cyclic", 5, "tensor:2(defining)", "sum(sign;defining)"),
    ("p4m", 3, "defining", "sum(defining;sign)"),
    # the benchmark's grid-solve and signed-solve boundaries
    ("p4m", 4, "defining", "defining"),
    ("symmetric", 6, "tensor:3(sum(defining;sign))", "tensor:3(sum(defining;sign))"),
    ("cyclic", 6, "sum(defining;sign)", "sum(defining;sign)"),
    # odd sign cycles zero whole orbits
    ("symmetric", 3, "sign", "trivial:1"),
    ("symmetric", 3, "sum(defining;sign)", "defining"),
]


@pytest.mark.parametrize("kind,size,spec_in,spec_out", SIGNED_CASES)
def test_orbit_path_is_bitwise_the_dense_path(kind, size, spec_in, spec_out, monkeypatch):
    g = named_group(kind, size)
    rep_in = parse_rep_spec(g, spec_in)
    rep_out = parse_rep_spec(g, spec_out)
    expected = dense_basis(rep_in, rep_out)

    def no_elimination(*args):
        raise AssertionError("signed permutation reps must not reach row_echelon")

    monkeypatch.setattr(kernels, "row_echelon", no_elimination)
    basis = solve_basis(rep_in, rep_out)
    assert basis.dim == hom_dim_oracle(rep_in, rep_out)
    assert_same_array(basis.basis, expected)


@pytest.mark.parametrize("kind,size,spec_in,spec_out", SIGNED_CASES[len(CASES):])
def test_hand_built_dense_rep_solves_to_the_orbit_basis(kind, size, spec_in, spec_out):
    # a Representation built from dense stacks carries no index arrays, so
    # it takes the dense solve, even when its images are signed permutations
    g = named_group(kind, size)
    rep_in, rep_out = parse_rep_spec(g, spec_in), parse_rep_spec(g, spec_out)
    dense_in = Representation(g, rep_in.degree, rep_in.gen_images.copy())
    assert dense_in.gen_arrays is None and dense_in.targets is None
    calls = []
    original = kernels.row_echelon

    def counting(*args):
        calls.append(args[0].shape)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "row_echelon", counting)
        basis = solve_basis(dense_in, rep_out)
    assert len(calls) == 1
    assert_same_array(basis.basis, solve_basis(rep_in, rep_out).basis)


@pytest.mark.parametrize("kind,size,spec_in,spec_out", SIGNED_CASES[len(CASES):])
def test_sum_of_a_hand_built_dense_rep_stays_dense(kind, size, spec_in, spec_out):
    # direct_sum and tensor_identity take a hand-built part as given, with no
    # replay: its dense images are composed, and the solve is the orbit one's
    g = named_group(kind, size)
    rep_in, rep_out = parse_rep_spec(g, spec_in), parse_rep_spec(g, spec_out)
    dense_in = Representation(g, rep_in.degree, rep_in.gen_images.copy())
    for compose in (lambda r: direct_sum([r, sign_rep(g)]), lambda r: tensor_identity(r, 2)):
        dense, signed = compose(dense_in), compose(rep_in)
        assert dense.gen_arrays is None and signed.gen_arrays is not None
        assert_same_array(dense.gen_images, signed.gen_images)
        assert_same_array(dense.images, signed.images)
        assert_same_array(solve_basis(dense, rep_out).basis, solve_basis(signed, rep_out).basis)


def test_p4m32_signed_solve_reads_no_dense_stack():
    # the orbit solve reads the generators' index arrays; scattering the
    # tensor:2(defining) generator stack alone would take 128 MiB
    g = named_group("p4m", 32)
    rep_in, rep_out = parse_rep_spec(g, "tensor:2(defining)"), parse_rep_spec(g, "trivial:1")
    tracemalloc.start()
    try:
        basis = solve_basis(rep_in, rep_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim == 2
    assert peak < 8 * 2 ** 20


def test_orbit_solve_peaks_at_a_few_pair_sized_arrays():
    # the union-find holds the generators' links on the pairs (4 here),
    # each pair's label and a round's labels, then the orbit form; one
    # unit is an int64 array over the n_out * n_in pairs
    g = named_group("p4m", 16)
    rep = parse_rep_spec(g, "defining")
    tracemalloc.start()
    try:
        basis = solve_basis(rep, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim == 45
    assert peak < 16 * 8 * rep.degree ** 2


def test_orbit_path_entries_are_signed_orbit_indicators():
    g = named_group("symmetric", 3)
    rep = parse_rep_spec(g, "sum(defining;sign)")
    basis = solve_basis(rep, rep).basis
    assert basis.shape[0] == hom_dim_oracle(rep, rep)
    for b in basis:
        flat = b.ravel()
        orbit = np.flatnonzero(flat)
        assert np.array_equal(np.abs(flat[orbit]), np.full(orbit.size, 1 / np.sqrt(orbit.size)))
        assert flat[orbit[-1]] > 0  # positive at the orbit's largest index


def test_sign_conflict_forces_zero():
    g = named_group("symmetric", 3)
    basis = solve_basis(defining_rep(g), parse_rep_spec(g, "sign"))
    assert basis.dim == 0
    assert basis.basis.shape == (0, 1, 3)
    assert np.array_equal(basis.realize(np.zeros(0)), np.zeros((1, 3)))


@pytest.mark.parametrize("spec_in,spec_out,dim", [
    ("sign", "trivial:1", 0),
    ("sum(defining;sign)", "defining", 2),
])
def test_odd_sign_cycle_zeroes_its_orbit(spec_in, spec_out, dim):
    # a transposition links each pair in the last input column (the sign)
    # to a pair in that column with parity -1, closing an odd sign cycle
    # on every orbit there
    g = named_group("symmetric", 3)
    rep_in, rep_out = parse_rep_spec(g, spec_in), parse_rep_spec(g, spec_out)
    basis = solve_basis(rep_in, rep_out)
    assert basis.dim == dim == hom_dim_oracle(rep_in, rep_out)
    assert basis.basis.shape == (dim, rep_out.degree, rep_in.degree)
    assert np.array_equal(basis.basis[:, :, -1], np.zeros((dim, rep_out.degree)))


def max_commutation_residual_at_generators(basis, rep_in, rep_out):
    return max(np.abs(b @ g_in - g_out @ b).max()
               for b in basis.basis
               for g_in, g_out in zip(rep_in.gen_images, rep_out.gen_images))


def test_p4m12_defining_pair_has_the_oracle_dimension():
    # 20736 unknowns: far beyond the dense solve, a few rounds of union-find
    rep = defining_rep(named_group("p4m", 12))
    basis = solve_basis(rep, rep)
    assert basis.dim == hom_dim_oracle(rep, rep) == 28
    assert basis.basis.shape == (28, 144, 144)
    assert max_commutation_residual_at_generators(basis, rep, rep) == 0.0


def test_perturbed_rep_falls_back_to_dense(monkeypatch):
    g = named_group("cyclic", 4)
    rep = defining_rep(g)
    nudged = extend(g, [rep.gen_images[0] + 1e-12], spec="nudged")
    calls = []
    original = kernels.row_echelon

    def counting(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(kernels, "row_echelon", counting)
    basis = solve_basis(nudged, rep)
    assert calls == [(16, 16)]
    assert basis.dim == 4
    solve_basis(rep, rep)
    assert len(calls) == 1
