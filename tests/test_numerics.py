import numpy as np
import pytest

from equikit import kernels
from equikit.numerics import DEFAULT_TOL, determinant, nullspace


def subspace_projector(q):
    return q @ q.T


def orthonormalize(v):
    """The columns of ``v`` through ``kernels.orthonormal_rows``, the
    Gram-Schmidt step of ``nullspace``, at its drop threshold 1e-12."""
    q, kept = kernels.orthonormal_rows(np.ascontiguousarray(v.T), 1e-12)
    return q[:kept].T


def test_nullspace_zero_matrix_full_basis():
    q = nullspace(np.zeros((3, 3)))
    assert q.shape == (3, 3)
    assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12


def test_nullspace_identity_is_empty():
    q = nullspace(np.eye(3))
    assert q.shape == (3, 0)


def test_nullspace_rank_one_2x2():
    q = nullspace(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert q.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(q[:, 0] @ expected) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_residual_and_rank_split(seed):
    rng = np.random.default_rng(seed)
    m, n = 18, 14
    r = int(rng.integers(0, n + 1))
    a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) if r else np.zeros((m, n))
    q = nullspace(a)
    d = q.shape[1]
    assert d + np.linalg.matrix_rank(a) == n
    if d:
        assert np.abs(q.T @ q - np.eye(d)).max() < 1e-12
        bound = DEFAULT_TOL * (1.0 + (np.abs(a).max() if a.size else 0.0) * n)
        assert np.abs(a @ q).max() <= bound


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((12, 6)) @ rng.standard_normal((6, 10))
    q1 = nullspace(a)
    q2 = nullspace(a[rng.permutation(12)])
    assert q1.shape == q2.shape
    assert np.abs(subspace_projector(q1) - subspace_projector(q2)).max() < 1e-9


def test_nullspace_rejects_nan_inf():
    with pytest.raises(ValueError):
        nullspace(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        nullspace(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_orthonormalize_identity_unchanged():
    q = orthonormalize(np.eye(4))
    assert np.array_equal(q, np.eye(4))


def test_orthonormalize_hand_example():
    v = np.array([[1.0, 1.0], [0.0, 1.0]])
    q = orthonormalize(v)
    assert np.abs(q - np.eye(2)).max() < 1e-12


def test_orthonormalize_drops_duplicate_column():
    v = np.array([[2.0, 2.0], [1.0, 1.0]])
    q = orthonormalize(v)
    assert q.shape == (2, 1)
    assert abs(np.linalg.norm(q[:, 0]) - 1.0) < 1e-12


def test_orthonormalize_all_zero_marker():
    q = orthonormalize(np.zeros((3, 2)))
    assert q.shape == (3, 0)


def test_orthonormalize_keeps_small_independent_columns():
    v = np.zeros((3, 3))
    v[0, 0] = 1e12
    v[1, 1] = 1e-9  # tiny but independent: must survive
    q = orthonormalize(v[:, :2])
    assert q.shape == (3, 2)


@pytest.mark.parametrize("seed", range(4))
def test_orthonormalize_preserves_span(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((10, 4))
    q = orthonormalize(v)
    assert q.shape == (10, 4)
    assert np.abs(q.T @ q - np.eye(4)).max() < 1e-12
    # every original column is reproduced by its projection onto q
    proj = q @ (q.T @ v)
    assert np.abs(proj - v).max() < 1e-10


def test_determinant_hand_values():
    assert determinant(np.eye(3)) == 1.0
    assert abs(determinant(np.array([[0.0, 1.0], [1.0, 0.0]])) + 1.0) < 1e-14
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert abs(determinant(a) - 5.0) < 1e-12
    assert determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_determinant_matches_numpy_on_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        assert abs(determinant(a) - np.linalg.det(a)) < 1e-9 * max(1.0, abs(np.linalg.det(a)))
