import io
import itertools

import numpy as np
import pytest
from helpers import center_of_mass

from equikit import groups, reps
from equikit.activations import ActivationSpec
from equikit.groups import group_from_spec, named_group
from equikit.network import build, check_map_equivariance
from equikit.reps import parse_rep_spec
from equikit.tasks import (
    GridImage,
    check_antisymmetry,
    com_dataset,
    decolor,
    flip,
    monomial_features,
    random_image,
    read_image,
    slater_det,
    slater_wavefunction,
    write_image,
)


# --- center of mass --------------------------------------------------


def test_com_of_identical_points():
    y = np.array([0.2, -1.0, 3.0])
    pc = np.tile(y, (4, 1))
    assert np.array_equal(center_of_mass(pc), y)


def test_com_midpoint():
    pc = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
    assert np.array_equal(center_of_mass(pc), [1.0, 2.0, 3.0])


def test_com_rejects_empty_or_misshaped():
    with pytest.raises(ValueError):
        center_of_mass(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        center_of_mass(np.zeros((3, 2)))


def test_com_linear_and_permutation_equivariance():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pc = rng.uniform(-1, 1, size=(6, 3))
        while True:
            x = rng.standard_normal((3, 3))
            if np.linalg.cond(x) < 100:
                break
        lhs = center_of_mass(pc @ x.T)
        rhs = x @ center_of_mass(pc)
        assert np.abs(lhs - rhs).max() / (1.0 + np.abs(rhs).max()) < 1e-12
        perm = rng.permutation(6)
        assert np.array_equal(center_of_mass(pc[perm]), center_of_mass(pc))


def test_com_dataset_targets_and_determinism():
    data = com_dataset(4, 25, seed=3)
    assert data.inputs.shape == (25, 12)
    assert data.targets.shape == (25, 3)
    for i in range(25):
        expected = center_of_mass(data.inputs[i].reshape(4, 3))
        assert np.array_equal(data.targets[i], expected)
    again = com_dataset(4, 25, seed=3)
    assert np.array_equal(data.inputs, again.inputs)
    other = com_dataset(4, 25, seed=4)
    assert not np.array_equal(data.inputs, other.inputs)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 16, 100])
def test_com_dataset_targets_are_bitwise_center_of_mass(m):
    # the dataset's split sums give the bytes of one math.fsum per row
    # and coordinate
    for seed in range(40):
        data = com_dataset(m, 50, seed=seed)
        expected = np.stack([center_of_mass(row.reshape(m, 3)) for row in data.inputs])
        assert data.targets.tobytes() == expected.tobytes(), seed


def test_trained_deep_sets_net_is_permutation_invariant():
    m = 4
    g = named_group("symmetric", m)
    reps = [
        parse_rep_spec(g, "tensor:3(defining)"),
        parse_rep_spec(g, "tensor:3(defining)"),
        parse_rep_spec(g, "trivial:3"),
    ]
    net = build(g, reps, ActivationSpec("tanh"), seed=0)
    trained, _ = net.train(com_dataset(m, 300, seed=0), steps=300, learning_rate=0.5)
    rng = np.random.default_rng(7)
    pc = rng.uniform(-1, 1, size=(m, 3))
    base = trained.forward(pc.ravel())
    for perm in itertools.permutations(range(m)):
        out = trained.forward(pc[list(perm)].ravel())
        assert np.abs(out - base).max() < 1e-10


# --- images ----------------------------------------------------------


def test_decolor_black_stays_black():
    img = GridImage(2, np.zeros((2, 2, 3)))
    assert np.array_equal(decolor(img).values, np.zeros((2, 2, 3)))


def test_decolor_any_nonzero_channel_goes_white():
    values = np.zeros((1, 1, 3))
    values[0, 0] = [1.0, 0.0, 0.0]
    out = decolor(GridImage(1, values))
    assert np.array_equal(out.values[0, 0], [255.0, 255.0, 255.0])


def test_decolor_idempotent():
    img = random_image(6, seed=1)
    once = decolor(img)
    twice = decolor(once)
    assert np.array_equal(once.values, twice.values)


def test_flip_is_involution():
    img = random_image(5, seed=2)
    for axis in ("top_bottom", "left_right"):
        assert np.array_equal(flip(flip(img, axis), axis).values, img.values)


def test_flip_single_pixel_fixed():
    img = random_image(1, seed=3)
    assert np.array_equal(flip(img, "top_bottom").values, img.values)
    assert np.array_equal(flip(img, "left_right").values, img.values)


def test_flip_moves_rows():
    img = random_image(4, seed=4)
    flipped = flip(img, "top_bottom")
    assert np.array_equal(flipped.values[0], img.values[3])
    cols = flip(img, "left_right")
    assert np.array_equal(cols.values[:, 0], img.values[:, 3])


def test_flip_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        flip(random_image(2), "diagonal")


@pytest.mark.parametrize("axis", ["top_bottom", "left_right"])
def test_decolor_flip_commute_bit_exact(axis):
    for seed in range(25):
        img = random_image(8, seed=seed)
        a = decolor(flip(img, axis)).values
        b = flip(decolor(img), axis).values
        assert np.array_equal(a, b)


def test_image_text_round_trip():
    img = random_image(3, seed=9)
    buf = io.StringIO()
    write_image(img, buf)
    buf.seek(0)
    back = read_image(buf)
    assert back.n == 3
    assert np.array_equal(back.values, img.values)


@pytest.mark.parametrize("text,message", [
    (header + "\n0 0 0\n", "header must be 'N 3' with N a positive integer")
    for header in ("3 4", "x 3", "0 3", "-2 3", "3", "")
] + [
    # a header naming 10^16 pixels fails at the first missing pixel line
    ("100000000 3\n0 0 0\n", r"pixel \(0, 1\): expected three values"),
    # a channel that is not a number is named with its pixel
    ("2 3\n0 0 0\n0 x 0\n", r"pixel \(0, 1\): 'x' is not a number"),
])
def test_read_image_rejects_bad_header(text, message):
    with pytest.raises(ValueError, match=message):
        read_image(io.StringIO(text))


# --- antisymmetry ----------------------------------------------------


def test_slater_det_m1_is_feature_value():
    assert slater_det(np.array([[3.25]])) == 3.25


def test_slater_det_swap_negates():
    f = slater_wavefunction(seed=0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(2, 3))
    a = f(pts)
    b = f(pts[[1, 0]])
    assert abs(a + b) < 1e-10 * (1.0 + abs(a))


def test_slater_det_coincident_points_vanish():
    f = slater_wavefunction(seed=0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(3, 3))
    pts[1] = pts[0]
    assert abs(f(pts)) < 1e-10


def test_monomial_feature_matrix_shape():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(4, 3))
    feats = monomial_features(pts, np.array([1.0, 0.0, 0.0]))
    assert feats.shape == (4, 4)
    assert np.array_equal(feats[:, 0], np.ones(4))
    assert np.array_equal(feats[:, 1], pts[:, 0])


def test_slater_antisymmetry_exhaustive_m3():
    f = slater_wavefunction(seed=0)
    report = check_antisymmetry(f, 3, trials=10, seed=5, tol=1e-10)
    assert report.passed
    assert report.max_residual <= 1e-10


def test_symmetric_function_fails_antisymmetry():
    def f(points):
        return float(points.sum())

    report = check_antisymmetry(f, 2, trials=5, seed=1, tol=1e-10)
    assert not report.passed
    assert report.witness is not None


def _lopsided(points):
    return float(3.0 * points[0, 0] + points[1, 0] ** 2 + points[2, 1])


def test_antisymmetry_witness_reads_no_dense_group(monkeypatch):
    # the witness as the dense matrices give it: row i of element g has its
    # 1 in column perm[i]
    group = group_from_spec("symmetric:4")
    report = check_map_equivariance(
        lambda batch: np.array([[_lopsided(v.reshape(4, 3))] for v in batch]),
        parse_rep_spec(group, "tensor:3(defining)"), parse_rep_spec(group, "sign"),
        trials=5, seed=3, tol=1e-10)
    g, v = report.witness
    perm = tuple(int(i) for i in np.argmax(reps.defining_rep(group).images[g], axis=1))
    assert perm != tuple(int(i) for i in np.argsort(perm))  # not an involution

    def no_dense(targets, signs):
        raise AssertionError("a dense signed-permutation stack was built")

    monkeypatch.setattr(groups, "signed_permutation_matrices", no_dense)
    monkeypatch.setattr(reps, "signed_permutation_matrices", no_dense)
    witness = check_antisymmetry(_lopsided, 4, trials=5, seed=3, tol=1e-10).witness
    assert witness[0] == perm
    assert witness[1].tobytes() == v.reshape(4, 3).tobytes()


def test_single_particle_always_passes():
    def f(points):
        return float(points.sum())

    report = check_antisymmetry(f, 1, trials=5, seed=1, tol=1e-10)
    assert report.passed


def test_antisymmetry_guard_on_m():
    with pytest.raises(ValueError, match="m <= 6"):
        check_antisymmetry(lambda p: 0.0, 7)
