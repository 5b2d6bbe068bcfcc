"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

import numpy as np
import pytest
from helpers import circulant_basis, finite_difference_check, toeplitz
from test_structured import count_by_construction

from equikit.activations import ActivationSpec, apply_pointwise
from equikit.cli import param_count
from equikit.groups import close, named_group
from equikit.intertwiners import hom_dim_oracle, solve_basis
from equikit.network import Dataset, build, check_map_equivariance, check_stack_equivariance
from equikit.reps import defining_rep, parse_rep_spec, trivial_rep
from equikit.tasks import (
    check_antisymmetry,
    com_dataset,
    decolor,
    flip,
    monomial_features,
    random_image,
    slater_det,
    slater_wavefunction,
)


def report(n, note):
    print(f"criterion {n}: PASS - {note}")


def test_criterion_1_worked_example_bit_exact():
    spec = ActivationSpec("sign_threshold", 3.0)
    x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    x_inv = x.T
    v = np.array([2.1, 3.4, 0.2])
    zero = np.zeros(3)
    b = np.array([-1.0, 0.0, 0.0])

    def compute():
        s_xv = apply_pointwise(spec, zero, x @ v)
        back = x_inv @ s_xv
        s_v = apply_pointwise(spec, zero, v)
        sb_xv = apply_pointwise(spec, b, x @ v)
        back_b = x_inv @ sb_xv
        sb_v = apply_pointwise(spec, b, v)
        return s_xv, back, s_v, sb_xv, back_b, sb_v

    compute()  # warm allocator/ufunc caches before timing
    start = time.perf_counter()
    s_xv, back, s_v, sb_xv, back_b, sb_v = compute()
    elapsed = time.perf_counter() - start

    assert np.array_equal(s_xv, [1.0, -1.0, -1.0])
    assert np.array_equal(back, [-1.0, 1.0, -1.0])
    assert np.array_equal(s_v, [-1.0, 1.0, -1.0])
    assert np.array_equal(back, s_v)
    assert np.array_equal(sb_xv, [-1.0, -1.0, -1.0])
    assert np.array_equal(back_b, [-1.0, -1.0, -1.0])
    assert np.array_equal(sb_v, [-1.0, 1.0, -1.0])
    assert not np.array_equal(back_b, sb_v)
    assert elapsed < 1e-3
    report(1, f"worked example bit-exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_intertwiner_dimensions():
    trivial_g = close([np.eye(1)])
    s3 = named_group("symmetric", 3)
    c4 = named_group("cyclic", 4)
    s4 = named_group("symmetric", 4)
    torus3 = named_group("torus", 3)
    cases = [
        (trivial_rep(trivial_g, 4), trivial_rep(trivial_g, 4), 16),
        (defining_rep(s3), defining_rep(s3), 2),
        (defining_rep(c4), defining_rep(c4), 4),
        (parse_rep_spec(s4, "tensor:3(defining)"),
         parse_rep_spec(s4, "tensor:3(defining)"), 18),
        (parse_rep_spec(s4, "tensor:3(defining)"),
         parse_rep_spec(s4, "trivial:3"), 9),
        (defining_rep(torus3), defining_rep(torus3), 9),
    ]
    times = []
    for rep_in, rep_out, expected in cases:
        start = time.perf_counter()
        basis = solve_basis(rep_in, rep_out)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        assert basis.dim == expected
        assert hom_dim_oracle(rep_in, rep_out) == expected
        assert elapsed < 5.0
    report(2, f"six dimension cases match both routes, slowest solve {max(times):.3f}s")


def acceptance_chains():
    s3 = named_group("symmetric", 3)
    s4 = named_group("symmetric", 4)
    c4 = named_group("cyclic", 4)
    p4 = named_group("p4", 2)
    relu = ActivationSpec("relu")
    tanh = ActivationSpec("tanh")
    return [
        (s3, [parse_rep_spec(s3, s) for s in
              ("defining", "defining", "defining")], relu),
        (s3, [parse_rep_spec(s3, s) for s in
              ("tensor:2(defining)", "tensor:2(defining)", "trivial:2")], tanh),
        (s4, [parse_rep_spec(s4, s) for s in
              ("tensor:3(defining)", "tensor:3(defining)", "trivial:3")], relu),
        (c4, [parse_rep_spec(c4, s) for s in
              ("defining", "defining", "defining")], tanh),
        (p4, [parse_rep_spec(p4, s) for s in
              ("defining", "defining", "trivial:1")], relu),
    ]


def test_criterion_3_equivariance_by_construction():
    start = time.perf_counter()
    chains = acceptance_chains()
    built = 0
    for seed in range(20):
        group, reps, activation = chains[seed % len(chains)]
        net = build(group, reps, activation, seed=seed)
        before = check_stack_equivariance(net.layers(), net.activation, net.layer_reps,
                                          trials=5, seed=seed, tol=1e-8)
        assert before.passed, f"seed {seed} fails before training"
        rng = np.random.default_rng(1000 + seed)
        data = Dataset(
            rng.uniform(-1, 1, size=(40, net.widths[0])),
            rng.uniform(-1, 1, size=(40, net.widths[-1])),
        )
        trained, _ = net.train(data, steps=100, learning_rate=0.05)
        after = check_stack_equivariance(trained.layers(), trained.activation,
                                         trained.layer_reps, trials=5, seed=seed, tol=1e-8)
        assert after.passed, f"seed {seed} fails after training"
        built += 1
    elapsed = time.perf_counter() - start
    assert built == 20
    assert elapsed < 60.0
    report(3, f"20 nets exhaustive at 1e-8 before/after training in {elapsed:.1f}s")


def test_criterion_4_gradient_check():
    start = time.perf_counter()
    s4 = named_group("symmetric", 4)
    s5 = named_group("symmetric", 5)
    c4 = named_group("cyclic", 4)
    deep4 = [parse_rep_spec(s4, s) for s in
             ("tensor:3(defining)", "tensor:3(defining)", "trivial:3")]
    deep5 = [parse_rep_spec(s5, s) for s in
             ("tensor:3(defining)", "tensor:3(defining)", "trivial:3")]
    c4_chain = [defining_rep(c4)] * 3
    nets = [
        build(s4, deep4, ActivationSpec("relu"), seed=11),
        build(s4, deep4, ActivationSpec("tanh"), seed=12),
        build(s5, deep5, ActivationSpec("relu"), seed=13),
        build(s4, deep4, ActivationSpec("threshold", 0.25), seed=14),
        build(c4, c4_chain, ActivationSpec("relu"), seed=15),
    ]
    errors = []
    excluded = 0
    total = 0
    for i, net in enumerate(nets):
        rng = np.random.default_rng(2000 + i)
        data = Dataset(
            rng.uniform(-1, 1, size=(25, net.widths[0])),
            rng.uniform(-1, 1, size=(25, net.widths[-1])),
        )
        errs, exc, n = finite_difference_check(net, data, h=1e-5)
        errors.extend(errs)
        excluded += exc
        total += n
    elapsed = time.perf_counter() - start
    assert total >= 100
    assert excluded < 0.05 * total
    assert max(errors) < 1e-5
    assert elapsed < 30.0
    report(4, f"{len(errors)} coefficients, max rel err {max(errors):.2e}, "
              f"{excluded}/{total} kink exclusions, {elapsed:.1f}s")


def test_criterion_5_center_of_mass_training():
    start = time.perf_counter()
    g = named_group("symmetric", 5)
    reps = [parse_rep_spec(g, s) for s in
            ("tensor:3(defining)", "tensor:3(defining)", "trivial:3")]
    net = build(g, reps, ActivationSpec("tanh"), seed=0)
    train_data = com_dataset(5, 2000, seed=0)
    test_data = com_dataset(5, 500, seed=1)
    trained, history = net.train(train_data, steps=10000, learning_rate=0.2)
    test_mse = trained.loss(test_data)
    counts = trained.count_parameters()
    elapsed = time.perf_counter() - start
    assert history.shape == (10000,)
    assert test_mse < 1e-3
    assert counts.equivariant == 28
    assert counts.dense == 1 * 15 * 15 + 1 * 15 * 3 + 15 == 285
    assert counts.ratio < 0.1
    assert elapsed < 120.0
    report(5, f"test mse {test_mse:.2e}, parameters 28/285 "
              f"(ratio {counts.ratio:.4f}), {elapsed:.1f}s")


def test_criterion_6_parameter_count_formulas():
    cases = [
        ("toeplitz", dict(k=3, n=4), 29),
        ("bttb", dict(k=2, m1=3, m2=3), 59),
        ("dense", dict(k=1, n=5), 25),
    ]
    for kind, kwargs, expected in cases:
        assert param_count(kind, **kwargs) == expected
        assert count_by_construction(kind, **kwargs) == expected
    report(6, "toeplitz 29, bttb 59, dense 25; formulas match constructed stacks")


def test_criterion_7_structured_weight_equivalence():
    for n in range(3, 9):
        g = named_group("cyclic", n)
        rep = defining_rep(g)
        basis = solve_basis(rep, rep)
        assert basis.dim == n
        flat_solver = basis.basis.reshape(n, -1)
        flat_circ = circulant_basis(n).reshape(n, -1)
        q, _ = np.linalg.qr(flat_circ.T)
        gap = np.abs(flat_solver.T @ flat_solver - q @ q.T).max()
        assert gap < 1e-9
    params = np.zeros(7)
    params[0] = 1.0  # the corner diagonal, which has no wraparound partner
    t = toeplitz(4, params)
    shift = named_group("cyclic", 4).generators[0]
    residual = np.abs(t @ shift - shift @ t).max()
    assert residual > 0.1
    report(7, "circulant span equals solver span for n=3..8; "
              f"toeplitz counterexample residual {residual:.2f}")


def test_criterion_8_commuting_square():
    for seed in range(100):
        img = random_image(8, seed=seed)
        for axis in ("top_bottom", "left_right"):
            a = decolor(flip(img, axis)).values
            b = flip(decolor(img), axis).values
            assert np.array_equal(a, b)
    report(8, "decolor/flip commute bit-exact on 100 seeded 8x8 images")


def test_criterion_9_antisymmetry():
    f = slater_wavefunction(seed=0)
    result = check_antisymmetry(f, 3, trials=10, seed=3, tol=1e-10)
    assert result.passed
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(3, 3))
    pts[2] = pts[0]
    direction = np.array([1.0, 0.0, 0.0])
    coincident = abs(slater_det(monomial_features(pts, direction)))
    assert coincident < 1e-10
    report(9, f"S_3 exhaustive residual {result.max_residual:.2e}, "
              f"coincident det {coincident:.2e}")


def test_criterion_10_closure_properties():
    g = named_group("symmetric", 4)
    lifted = parse_rep_spec(g, "tensor:3(defining)")
    triv = parse_rep_spec(g, "trivial:3")
    front = build(g, [lifted, lifted, lifted], ActivationSpec("relu"), seed=0)
    back = build(g, [lifted, lifted, triv], ActivationSpec("relu"), seed=1)

    def chained(x):
        return back.forward(front.forward(x))

    comp = check_map_equivariance(chained, lifted, triv, trials=6, seed=2, tol=1e-8)
    assert comp.passed

    other = build(g, [lifted, lifted, triv], ActivationSpec("relu"), seed=3)

    def combo(x):
        return 1.25 * back.forward(x) - 0.5 * other.forward(x)

    lin = check_map_equivariance(combo, lifted, triv, trials=6, seed=4, tol=1e-8)
    assert lin.passed
    report(10, f"composition residual {comp.max_residual:.2e}, "
               f"linear combination residual {lin.max_residual:.2e}")
