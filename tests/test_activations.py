import numpy as np
import pytest
from helpers import element_index

from equikit.activations import (
    ActivationSpec,
    apply_pointwise,
    check_pointwise_equivariance,
    parse_activation,
)
from equikit.groups import group_from_spec, named_group
from equikit.intertwiners import fixed_subspace
from equikit.reps import (
    Representation,
    defining_rep,
    direct_sum,
    is_permutation_rep,
    parse_rep_spec,
    sign_rep,
)

SIGN3 = ActivationSpec("sign_threshold", 3.0)


def test_sign_threshold_worked_vectors():
    out = apply_pointwise(SIGN3, np.zeros(3), np.array([3.4, 0.2, 2.1]))
    assert np.array_equal(out, [1.0, -1.0, -1.0])


def test_sign_threshold_with_bias_vectors():
    out = apply_pointwise(SIGN3, np.array([-1.0, 0.0, 0.0]), np.array([3.4, 0.2, 2.1]))
    assert np.array_equal(out, [-1.0, -1.0, -1.0])
    out_v = apply_pointwise(SIGN3, np.array([-1.0, 0.0, 0.0]), np.array([2.1, 3.4, 0.2]))
    assert np.array_equal(out_v, [-1.0, 1.0, -1.0])


def test_relu_and_threshold_scalars():
    relu = ActivationSpec("relu")
    assert np.array_equal(apply_pointwise(relu, np.zeros(2), np.array([-1.0, 2.0])), [0.0, 2.0])
    thr = ActivationSpec("threshold", 1.5)
    assert np.array_equal(thr.scalar(np.array([1.0, 1.5, 3.0])), [0.0, 0.0, 1.5])
    # threshold is a shifted relu
    t = np.linspace(-2, 4, 13)
    assert np.array_equal(thr.scalar(t), relu.scalar(t - 1.5))
    assert np.allclose(ActivationSpec("tanh").scalar(np.array([0.0, 1.0])), [0.0, np.tanh(1.0)])


def test_derivatives_at_kinks_are_zero():
    def slope_at(spec, t):
        return spec.slope(spec.scalar(np.array([t])), out=np.empty(1))[0]

    assert slope_at(ActivationSpec("relu"), 0.0) == 0.0
    assert slope_at(ActivationSpec("threshold", 2.0), 2.0) == 0.0
    assert slope_at(ActivationSpec("sign_threshold", 1.0), 5.0) == 0.0


@pytest.mark.parametrize("spec", [
    ActivationSpec("relu"), ActivationSpec("tanh"),
    ActivationSpec("threshold", 0.5), ActivationSpec("sign_threshold", 0.5),
])
def test_slope_from_output_is_the_derivative(spec):
    edges = [0.5, 0.0, -0.0, 1e-320, np.inf, -np.inf, np.nan]
    t = np.concatenate([np.linspace(-3.0, 3.0, 61), edges])
    expected = {
        "relu": (t > 0.0).astype(np.float64),
        "tanh": 1.0 - np.tanh(t) ** 2,
        "threshold": (t > 0.5).astype(np.float64),
        "sign_threshold": np.zeros_like(t),
    }[spec.kind]
    h = t.copy()
    assert spec.scalar(h, out=h) is h
    np.testing.assert_array_equal(h, spec.scalar(t))
    np.testing.assert_array_equal(spec.slope(h, out=np.empty_like(h)), expected)
    assert spec.slope(h, out=h) is h
    np.testing.assert_array_equal(h, expected)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        apply_pointwise(SIGN3, np.zeros(2), np.zeros(3))


def test_cyclic_shift_equivariance_passes_without_bias():
    g = named_group("cyclic", 3)
    rep = defining_rep(g)
    report = check_pointwise_equivariance(SIGN3, np.zeros(3), rep, trials=20, seed=0)
    assert report.passed
    assert report.max_residual == 0.0


def test_biased_map_fails_with_witness():
    g = named_group("cyclic", 3)
    rep = defining_rep(g)
    b = np.array([-1.0, 0.0, 0.0])
    report = check_pointwise_equivariance(SIGN3, b, rep, trials=20, seed=0)
    assert not report.passed
    assert report.max_residual >= 2.0
    g_idx, v = report.witness
    img = rep.images[g_idx]
    lhs = apply_pointwise(SIGN3, b, img @ v)
    rhs = img @ apply_pointwise(SIGN3, b, v)
    assert np.abs(lhs - rhs).max() == report.max_residual


def test_documented_counterexample_vector():
    # the displayed failure: v = (2.1, 3.4, 0.2) against the 3-cycle
    g = named_group("cyclic", 3)
    rep = defining_rep(g)
    b = np.array([-1.0, 0.0, 0.0])
    x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert element_index(rep.images, x) is not None
    v = np.array([2.1, 3.4, 0.2])
    lhs = x.T @ apply_pointwise(SIGN3, b, x @ v)
    assert np.array_equal(lhs, [-1.0, -1.0, -1.0])
    assert np.array_equal(apply_pointwise(SIGN3, b, v), [-1.0, 1.0, -1.0])


@pytest.mark.parametrize("kind", ["relu", "tanh", "sign_threshold"])
def test_fixed_bias_on_permutation_rep_is_exact(kind):
    spec = ActivationSpec(kind, 1.0)
    g = named_group("symmetric", 4)
    rep = defining_rep(g)
    b = np.full(4, 0.75)
    report = check_pointwise_equivariance(spec, b, rep, trials=15, seed=2)
    assert report.passed
    assert report.max_residual == 0.0  # permutations commute bit-exactly


def test_orbitwise_constant_bias_is_exact_on_block_rep():
    g = named_group("symmetric", 3)
    rep = direct_sum([defining_rep(g), defining_rep(g)])
    b = np.array([0.5, 0.5, 0.5, -1.25, -1.25, -1.25])
    basis = fixed_subspace(rep)
    # b lies in the fixed subspace of the block action
    assert np.abs(basis @ (basis.T @ b) - b).max() < 1e-12
    report = check_pointwise_equivariance(ActivationSpec("relu"), b, rep, seed=5)
    assert report.passed and report.max_residual == 0.0


@pytest.mark.parametrize("group_spec,spec", [
    ("symmetric:3", "defining"), ("symmetric:3", "sign"), ("symmetric:4", "sum(defining;sign)"),
    ("cyclic:4", "sum(trivial:2;defining)"), ("p4m:3", "tensor:2(defining)"),
])
def test_index_array_reads_are_the_dense_ones(group_spec, spec):
    # is_permutation_rep reads a signed rep's gen_arrays; the same images
    # as a hand-built dense rep take the entrywise test
    rep = parse_rep_spec(group_from_spec(group_spec), spec)
    dense = Representation(rep.group, rep.degree, rep.gen_images)
    assert rep.gen_arrays is not None and dense.gen_arrays is None
    assert is_permutation_rep(rep) is is_permutation_rep(dense)


def test_pass_is_monotone_in_tol():
    g = named_group("symmetric", 3)
    rep = defining_rep(g)
    b = np.full(3, 1.0) + np.array([0.0, 1e-10, 0.0])  # slightly off the fixed line
    spec = ActivationSpec("relu")
    r_small = check_pointwise_equivariance(spec, b, rep, seed=1, tol=1e-12)
    r_large = check_pointwise_equivariance(spec, b, rep, seed=1, tol=1e-6)
    assert r_small.max_residual == r_large.max_residual
    if r_small.passed:
        assert r_large.passed


def test_parse_activation():
    assert parse_activation("relu") == ActivationSpec("relu")
    assert parse_activation("tanh") == ActivationSpec("tanh")
    assert parse_activation("threshold:3.0") == ActivationSpec("threshold", 3.0)
    assert parse_activation("sign_threshold:3.0") == ActivationSpec("sign_threshold", 3.0)
    with pytest.raises(ValueError):
        parse_activation("gelu")
    with pytest.raises(ValueError):
        parse_activation("relu:2.0")
    with pytest.raises(ValueError):
        parse_activation("threshold")
    with pytest.raises(ValueError):
        ActivationSpec("swish")


def test_activation_str_round_trips():
    for text in ("relu", "tanh", "threshold:3", "sign_threshold:3"):
        assert str(parse_activation(text)) == text
