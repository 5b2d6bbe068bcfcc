import numpy as np
import pytest
from helpers import bttb, circulant, circulant_basis, toeplitz

from equikit.cli import param_count
from equikit.groups import named_group
from equikit.intertwiners import solve_basis
from equikit.reps import defining_rep


def shift_matrix(n):
    return circulant(n, np.eye(n)[1])


def test_toeplitz_small_cases():
    assert np.array_equal(toeplitz(1, [5.0]), [[5.0]])
    a, b, c = 1.0, 2.0, 3.0
    assert np.array_equal(toeplitz(2, [a, b, c]), [[b, a], [c, b]])
    assert np.array_equal(toeplitz(3, np.ones(5)), np.ones((3, 3)))


def test_toeplitz_constant_diagonals():
    rng = np.random.default_rng(0)
    p = rng.standard_normal(9)
    t = toeplitz(5, p)
    for offset in range(-4, 5):
        diag = np.diagonal(t, offset)
        assert np.ptp(diag) == 0.0


def test_toeplitz_length_check():
    with pytest.raises(ValueError, match="parameters"):
        toeplitz(3, np.ones(4))


def test_bttb_small_cases():
    assert np.array_equal(bttb(1, 1, [4.0]), [[4.0]])
    assert np.array_equal(bttb(2, 2, np.full(9, 2.5)), np.full((4, 4), 2.5))


def test_bttb_index_formula():
    m1 = m2 = 2
    p = np.arange(9.0)
    a = bttb(m1, m2, p)
    slices = p.reshape(3, 3)
    for bi in range(m1):
        for bj in range(m2):
            block = a[bi * m2:(bi + 1) * m2, bj * m2:(bj + 1) * m2]
            assert np.array_equal(block, toeplitz(m2, slices[bi - bj + m1 - 1]))
    # block pattern itself is Toeplitz: block (1,1) equals block (0,0)
    assert np.array_equal(a[2:, 2:], a[:2, :2])


def test_bttb_length_check():
    with pytest.raises(ValueError, match="parameters"):
        bttb(2, 2, np.ones(8))


def test_circulant_unit_vectors():
    assert np.array_equal(circulant(3, [1.0, 0.0, 0.0]), np.eye(3))
    shift = circulant(3, [0.0, 1.0, 0.0])
    assert np.array_equal(shift, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_circulant_commutes_with_shift_exactly():
    rng = np.random.default_rng(1)
    a = circulant(4, rng.standard_normal(4))
    s = shift_matrix(4)
    assert np.array_equal(a @ s, s @ a)


def test_circulant_matches_cyclic_group_shift():
    g = named_group("cyclic", 3)
    assert np.array_equal(circulant(3, [0.0, 1.0, 0.0]), g.generators[0])


@pytest.mark.parametrize("n", range(3, 9))
def test_circulant_span_equals_commutant(n):
    g = named_group("cyclic", n)
    rep = defining_rep(g)
    basis = solve_basis(rep, rep)
    assert basis.dim == n
    flat_solver = basis.basis.reshape(n, -1)
    flat_circ = circulant_basis(n).reshape(n, -1)
    q, _ = np.linalg.qr(flat_circ.T)
    p1 = flat_solver.T @ flat_solver
    p2 = q @ q.T
    assert np.abs(p1 - p2).max() < 1e-9


def test_toeplitz_does_not_commute_with_shift():
    # the corner diagonal has no wraparound partner, so commutation fails
    p = np.zeros(7)
    p[0] = 1.0  # top-right corner entry
    t = toeplitz(4, p)
    s = shift_matrix(4)
    assert np.abs(t @ s - s @ t).max() > 0.1


def test_param_count_formulas():
    assert param_count("toeplitz", k=3, n=4) == 29
    assert param_count("bttb", k=2, m1=3, m2=3) == 59
    assert param_count("dense", k=1, n=5) == 25


def count_by_construction(kind, k, n=None, m1=None, m2=None):
    """Independent count: rank of the vectorized parameter-to-matrix map,
    per layer, plus one bias per hidden width."""
    if kind == "toeplitz":
        width, nparams, make = n, 2 * n - 1, lambda p: toeplitz(n, p)
    elif kind == "bttb":
        width, nparams = m1 * m2, (2 * m1 - 1) * (2 * m2 - 1)
        make = lambda p: bttb(m1, m2, p)
    else:
        width, nparams, make = n, n * n, lambda p: p.reshape(n, n)
    stacked = np.stack([make(np.eye(nparams)[i]).ravel() for i in range(nparams)])
    per_layer = np.linalg.matrix_rank(stacked)
    return k * per_layer + (k - 1) * width


@pytest.mark.parametrize("kind,kwargs", [
    ("toeplitz", dict(k=3, n=4)),
    ("toeplitz", dict(k=1, n=6)),
    ("bttb", dict(k=2, m1=3, m2=3)),
    ("bttb", dict(k=3, m1=2, m2=4)),
    ("dense", dict(k=1, n=5)),
    ("dense", dict(k=4, n=3)),
])
def test_param_count_matches_explicit_construction(kind, kwargs):
    assert param_count(kind, **kwargs) == count_by_construction(kind, **kwargs)


def test_param_count_validation():
    with pytest.raises(ValueError):
        param_count("toeplitz", k=0, n=4)
    with pytest.raises(ValueError):
        param_count("dense", k=2)
    with pytest.raises(ValueError):
        param_count("bttb", k=2, m1=3)
    with pytest.raises(ValueError):
        param_count("bttb", k=2, m1=3, m2=3, n=10)
    with pytest.raises(ValueError):
        param_count("butterfly", k=1, n=2)
    for kind, widths in [("toeplitz", dict(n=-5)), ("toeplitz", dict(n=0)),
                         ("dense", dict(n=-3)), ("bttb", dict(m1=0, m2=3)),
                         ("bttb", dict(m1=3, m2=-1)), ("bttb", dict(m1=2, m2=2, n=0))]:
        with pytest.raises(ValueError, match="widths must be >= 1"):
            param_count(kind, k=2, **widths)
