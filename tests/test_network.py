import tracemalloc

import numpy as np
import pytest
from helpers import (
    finite_difference_check,
    project,
    reference_check,
    reference_train,
    row_major_forward,
    row_major_loss_grad,
    set_first_declared_weight,
)

from equikit import activations, intertwiners, network
from equikit.activations import (
    ActivationSpec,
    apply_pointwise,
    check_pointwise_equivariance,
)
from equikit.groups import close, group_from_spec, named_group
from equikit.network import (
    Dataset,
    DivergenceError,
    ModelFormatError,
    build,
    check_map_equivariance,
    check_stack_equivariance,
    load_model,
    save_model,
    stack_forward,
)
from equikit.reps import Representation, defining_rep, extend, parse_rep_spec, trivial_rep
from equikit.tasks import check_antisymmetry

RELU = ActivationSpec("relu")
TANH = ActivationSpec("tanh")


def trivial_group(dim=1):
    return close([np.eye(dim)])


def deep_sets_net(m=4, seed=0, activation=RELU):
    g = named_group("symmetric", m)
    reps = [
        parse_rep_spec(g, "tensor:3(defining)"),
        parse_rep_spec(g, "tensor:3(defining)"),
        parse_rep_spec(g, "trivial:3"),
    ]
    return build(g, reps, activation, seed=seed)


def _two_hidden_layer_net(activation, seed=0):
    g = named_group("symmetric", 4)
    chain = [parse_rep_spec(g, spec) for spec in
             ("tensor:3(defining)", "tensor:2(defining)", "defining", "trivial:2")]
    return build(g, chain, activation, seed=seed)


def _bias_at(net, i):
    """Index of hidden layer ``i``'s bias coefficient in ``net.coeffs``:
    the last of its span."""
    return net.spans[i].stop - 1


def _shift_biases(net):
    """Move every hidden bias coefficient away from zero."""
    for i in range(net.k - 1):
        net.coeffs[_bias_at(net, i)] += 0.1 * (i + 1)


def random_dataset(net, samples, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(-1, 1, size=(samples, net.widths[0])),
        rng.uniform(-1, 1, size=(samples, net.widths[-1])),
    )


# --- construction ----------------------------------------------------


def test_trivial_group_gives_dense_mlp():
    g = trivial_group()
    reps = [trivial_rep(g, 3), trivial_rep(g, 3), trivial_rep(g, 2)]
    net = build(g, reps, RELU, seed=0)
    assert [b.dim for b in net.weight_bases] == [9, 6]


def test_deep_sets_basis_dimensions():
    net = deep_sets_net()
    assert [b.dim for b in net.weight_bases] == [18, 9]
    counts = net.count_parameters()
    assert counts.equivariant == 28
    assert counts.dense == 192  # 12*12 + 12*3 weights + 12 hidden biases


def test_c4_chain_dimensions():
    g = named_group("cyclic", 4)
    rep = defining_rep(g)
    net = build(g, [rep, rep, rep], RELU, seed=0)
    assert [b.dim for b in net.weight_bases] == [4, 4]
    counts = net.count_parameters()
    assert counts.equivariant == 9  # 8 weight coefficients + 1 bias


def test_count_parameters_trivial_dense_case():
    g = trivial_group()
    net = build(g, [trivial_rep(g, 5), trivial_rep(g, 5)], RELU, seed=0)
    counts = net.count_parameters()
    assert (counts.equivariant, counts.dense) == (25, 25)
    assert counts.ratio == 1.0


def test_build_rejects_non_permutation_hidden_rep():
    rot = close([np.array([[0.0, -1.0], [1.0, 0.0]])])
    rep = defining_rep(rot)
    with pytest.raises(ValueError, match="permutation"):
        build(rot, [rep, rep, rep], RELU, seed=0)


def test_build_rejects_zero_dimensional_weight_space():
    g = named_group("symmetric", 3)
    with pytest.raises(ValueError, match="layer 1"):
        build(g, [trivial_rep(g, 1), parse_rep_spec(g, "sign")], RELU, seed=0)


def test_build_rejects_foreign_reps():
    g1 = named_group("symmetric", 3)
    g2 = named_group("symmetric", 4)
    with pytest.raises(ValueError, match="group"):
        build(g1, [defining_rep(g1), defining_rep(g2)], RELU, seed=0)


def test_build_seed_determinism():
    a = deep_sets_net(seed=3)
    b = deep_sets_net(seed=3)
    c = deep_sets_net(seed=4)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_initial_weight_scale():
    net = deep_sets_net(seed=7)
    layers = net.layers()
    for i, a in enumerate(layers):
        w = a[:, :net.widths[i]]
        fro = np.sqrt((w * w).sum())
        assert abs(fro - np.sqrt(2.0 / net.widths[i])) < 1e-12
    for a in layers[:-1]:
        assert a.shape[1] == a.shape[0] + 1 and np.abs(a[:, -1]).max() == 0.0


# --- evaluation ------------------------------------------------------


def test_identity_single_layer_net():
    g = trivial_group()
    net = build(g, [trivial_rep(g, 4), trivial_rep(g, 4)], RELU, seed=0)
    net.coeffs[:] = project(net.weight_bases[0], np.eye(4))
    v = np.array([0.3, -1.2, 5.0, 0.0])
    assert np.array_equal(net.forward(v), v)
    report = check_stack_equivariance(net.layers(), net.activation, net.layer_reps,
                                      trials=4, seed=0)
    assert report.passed and report.max_residual == 0.0


def test_zero_coefficients_zero_output():
    net = deep_sets_net()
    net.coeffs[:] = 0.0
    out = net.forward(np.ones(12))
    assert np.abs(out).max() == 0.0


def test_forward_batch_matches_single():
    net = deep_sets_net(seed=2)
    rng = np.random.default_rng(0)
    batch = rng.uniform(-1, 1, size=(5, 12))
    outs = net.forward(batch)
    for i in range(5):
        # batched and single rows take different BLAS paths; agreement
        # is to rounding, not bitwise
        np.testing.assert_allclose(outs[i], net.forward(batch[i]), atol=1e-14)


def test_coefficient_vector_round_trip():
    # the spans tile ``coeffs`` layer by layer, a hidden layer's bias
    # coefficient last, and a copy owns its vector
    net = deep_sets_net(seed=6)
    _shift_biases(net)
    dims = [basis.dim for basis in net.weight_bases]
    assert net.spans == [slice(0, dims[0] + 1), slice(dims[0] + 1, dims[0] + 1 + dims[1])]
    assert net.coeffs.size == net.count_parameters().equivariant == 28
    flat = net.coeffs.copy()
    other = net.copy()
    other.coeffs *= 2.0
    assert np.array_equal(net.coeffs, flat)
    (a, last), (a2, last2) = net.layers(), other.layers()
    assert np.array_equal(a2, 2.0 * a) and np.array_equal(last2, 2.0 * last)
    assert np.array_equal(a[:, -1], np.full(12, 1.0 / np.sqrt(12) * flat[dims[0]]))
    other.coeffs[:] = flat
    assert all(np.array_equal(x, y) for x, y in zip(other.layers(), net.layers()))


@pytest.mark.parametrize("make", [deep_sets_net, _two_hidden_layer_net],
                         ids=["one-hidden", "two-hidden"])
def test_stack_forward_with_declared_biases_matches_row_major(make):
    # a declared bias column may be anything, not only a point of the
    # all-ones line; it is added as b in W x + b
    net = make(activation=TANH, seed=3)
    rng = np.random.default_rng(11)
    layers = net.layers()
    for a in layers[:-1]:
        a[:, -1] = rng.standard_normal(a.shape[0])
    x = rng.uniform(-1, 1, size=(40, net.widths[0]))
    want = row_major_forward(layers, TANH, x)[0]
    assert np.ptp(layers[0][:, -1]) > 0.5
    assert np.abs(stack_forward(layers, TANH, x) - want).max() <= 1e-12
    assert np.abs(stack_forward(layers, TANH, x[3]) - want[3]).max() <= 1e-12


def test_forward_rejects_wrong_length():
    net = deep_sets_net()
    with pytest.raises(ValueError):
        net.forward(np.ones(13))


@pytest.mark.parametrize("seed", range(4))
def test_fresh_nets_are_equivariant(seed):
    net = deep_sets_net(seed=seed, activation=RELU if seed % 2 else TANH)
    report = check_stack_equivariance(net.layers(), net.activation, net.layer_reps,
                                      trials=6, seed=seed, tol=1e-8)
    assert report.passed


def test_check_equivariance_certifies_built_nets():
    net = deep_sets_net(seed=2, activation=TANH)
    net.coeffs[_bias_at(net, 0)] = 0.3
    layers = net.layers()
    report = check_stack_equivariance(layers, net.activation, net.layer_reps)
    assert report.passed and report.coverage == "certificate (2 generators)"
    # a bias off the invariant line is refuted at a generator
    layers[0][:, -1] = 0.3 * np.arange(12.0)
    report = check_stack_equivariance(layers, net.activation, net.layer_reps)
    assert not report.passed and report.coverage == "generators (2 of 24)"
    assert report.witness[0] in net.group.cayley[0]


def test_check_equivariance_of_dense_reps_sweeps_every_element():
    rep = _quarter_turn_rep()
    net = build(rep.group, [rep, rep], TANH, seed=0)
    report = check_stack_equivariance(net.layers(), net.activation, net.layer_reps)
    assert report.passed and report.coverage == "exhaustive (4)"


def test_tampered_weight_breaks_equivariance():
    net = deep_sets_net(seed=1)
    layers = net.layers()
    rng = np.random.default_rng(5)
    layers[0][:, :-1] = rng.standard_normal((12, 12))

    def apply(x):
        return stack_forward(layers, net.activation, x)

    report = check_map_equivariance(
        apply, net.layer_reps[0], net.layer_reps[-1], trials=6, seed=0, tol=1e-8
    )
    assert not report.passed
    assert report.max_residual > 1e-3
    assert report.witness is not None


# --- gradients -------------------------------------------------------


def test_zero_net_zero_targets_zero_gradient():
    net = deep_sets_net()
    net.coeffs[:] = 0.0
    data = Dataset(np.ones((3, 12)), np.zeros((3, 3)))
    mse, grad = net.loss_grad(data)
    assert mse == 0.0
    assert np.abs(grad).max() == 0.0


def test_single_layer_gradient_matches_least_squares():
    g = named_group("cyclic", 4)
    rep = defining_rep(g)
    net = build(g, [rep, rep], RELU, seed=3)
    data = random_dataset(net, 40, seed=1)
    mse, grad = net.loss_grad(data)
    x, y = data.inputs, data.targets
    (a,) = net.layers()
    residual = x @ a.T - y
    assert abs(mse - np.mean(residual ** 2)) < 1e-14
    grad_a = 2.0 * residual.T @ x / residual.size
    expected = project(net.weight_bases[0], grad_a)
    assert np.abs(grad - expected).max() < 1e-12


@pytest.mark.parametrize("activation", [RELU, TANH, ActivationSpec("sign_threshold", 0.5)])
def test_loss_grad_with_buffers_is_bitwise_fresh(activation):
    # a planned step, run again and again, gives what a fresh call gives
    # at the network's coefficients of the moment
    for make in (deep_sets_net, _two_hidden_layer_net):
        net = make(seed=2, activation=activation)
        data = random_dataset(net, 50, seed=3)
        step = network._Step(net, data)
        for t in range(3):  # stale buffer contents must not leak into a step
            mse, grad = net.loss_grad(data)
            assert step.run(net.coeffs) == mse
            assert step.grad.tobytes() == grad.tobytes()
            net.coeffs[:net.weight_bases[0].dim] += 0.1  # the step reads the coefficients anew
            net.coeffs[_bias_at(net, net.k - 2)] = 0.2 * t


def test_training_step_allocates_no_batch_sized_array():
    # every batch-sized intermediate of a step lives in the buffers that
    # train plans once (the layer inputs, the first a copy of the data
    # above a ones row, a transposed copy of that first input, the output
    # and the hidden gradients), so the traced peak stays below them plus
    # half of one (batch, width) array
    for make in (deep_sets_net, _two_hidden_layer_net):
        net = make(seed=1, activation=TANH)
        data = random_dataset(net, 2000, seed=4)
        net.train(data, 2, 0.1)
        tracemalloc.start()
        try:
            net.train(data, 3, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        step = network._Step(net, data)
        buffers = sum(b.nbytes for b in [*step.ins, step.ins_t[0], step.out, *step.deltas])
        widest = data.inputs.nbytes
        assert peak < buffers + widest / 2, make.__name__


@pytest.mark.parametrize("make", [deep_sets_net, _two_hidden_layer_net],
                         ids=["one-hidden", "two-hidden"])
@pytest.mark.parametrize("activation", [RELU, TANH, ActivationSpec("threshold", 0.1)],
                         ids=str)
def test_loss_grad_matches_the_row_major_reference(make, activation):
    net = make(activation=activation, seed=5)
    data = random_dataset(net, 300, seed=7)
    _shift_biases(net)
    mse, grad = net.loss_grad(data)
    want_mse, want_grad = row_major_loss_grad(net, data)
    assert np.count_nonzero(want_grad) > grad.size // 2
    assert abs(mse - want_mse) <= 1e-12 * want_mse
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


@pytest.mark.parametrize("batch", [1, 300])
@pytest.mark.parametrize("make", [deep_sets_net, _two_hidden_layer_net],
                         ids=["one-hidden", "two-hidden"])
@pytest.mark.parametrize("activation", [RELU, TANH, ActivationSpec("threshold", 0.1),
                                        ActivationSpec("sign_threshold", 0.5)], ids=str)
def test_train_is_bitwise_the_reference_loop(make, activation, batch):
    # the planned step gives, bit for bit, the coefficients and history
    # of the loop that realized every layer, stacked a ones row under each
    # hidden layer's input and concatenated the gradient
    net = make(activation=activation, seed=4)
    _shift_biases(net)
    data = random_dataset(net, batch, seed=8)
    trained, history = net.train(data, 25, 0.05)
    want, want_history = reference_train(net, data, 25, 0.05)
    assert np.ptp(history) > 0.0
    assert history.tobytes() == want_history.tobytes()
    assert trained.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("activation", [RELU, TANH, ActivationSpec("threshold", 0.5)])
def test_gradient_matches_finite_differences(activation):
    net = deep_sets_net(seed=6, activation=activation)
    data = random_dataset(net, 30, seed=2)
    errors, excluded, total = finite_difference_check(net, data, h=1e-5)
    assert excluded <= 0.05 * total
    assert errors and max(errors) < 1e-5


# --- training --------------------------------------------------------


def test_training_fits_realizable_linear_map():
    g = named_group("cyclic", 4)
    rep = defining_rep(g)
    net = build(g, [rep, rep], TANH, seed=0)
    target_net = build(g, [rep, rep], TANH, seed=9)
    data = random_dataset(net, 60, seed=4)
    data = Dataset(data.inputs, target_net.forward(data.inputs))
    trained, history = net.train(data, steps=4000, learning_rate=1.5)
    assert trained.loss(data) < 1e-10
    assert history.shape == (4000,)


def test_zero_learning_rate_is_identity():
    net = deep_sets_net(seed=2)
    data = random_dataset(net, 10, seed=0)
    trained, history = net.train(data, steps=5, learning_rate=0.0)
    assert np.array_equal(trained.coeffs, net.coeffs)
    assert np.ptp(history) == 0.0


def test_training_preserves_equivariance():
    net = deep_sets_net(seed=8)
    data = random_dataset(net, 25, seed=3)
    trained, _ = net.train(data, steps=60, learning_rate=0.1)
    report = check_stack_equivariance(trained.layers(), trained.activation,
                                      trained.layer_reps, trials=6, seed=1, tol=1e-8)
    assert report.passed


def test_divergence_raises():
    net = deep_sets_net(seed=0)
    data = random_dataset(net, 10, seed=0)
    with pytest.raises(DivergenceError, match="learning rate"):
        net.train(data, steps=200, learning_rate=1e6)


def test_train_validates_arguments():
    net = deep_sets_net()
    data = random_dataset(net, 4, seed=0)
    with pytest.raises(ValueError):
        net.train(data, steps=0, learning_rate=0.1)
    with pytest.raises(ValueError):
        net.train(data, steps=5, learning_rate=-0.1)


def test_dataset_validation():
    with pytest.raises(ValueError, match="count mismatch"):
        Dataset(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="empty"):
        Dataset(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3))


# --- closure properties ----------------------------------------------


def test_composition_of_nets_is_equivariant():
    g = named_group("symmetric", 4)
    lifted = parse_rep_spec(g, "tensor:3(defining)")
    triv = parse_rep_spec(g, "trivial:3")
    net1 = build(g, [lifted, lifted, lifted], RELU, seed=0)
    net2 = build(g, [lifted, lifted, triv], RELU, seed=1)

    def chained(x):
        return net2.forward(net1.forward(x))

    report = check_map_equivariance(chained, lifted, triv, trials=6, seed=2, tol=1e-8)
    assert report.passed


def test_linear_combination_of_nets_is_equivariant():
    net1 = deep_sets_net(seed=0)
    net2 = deep_sets_net(seed=1)

    def combo(x):
        return 0.7 * net1.forward(x) - 2.5 * net2.forward(x)

    report = check_map_equivariance(
        combo, net1.layer_reps[0], net1.layer_reps[-1], trials=6, seed=3, tol=1e-8
    )
    assert report.passed


def _map_check(monkeypatch, rep, counted):
    report = check_map_equivariance(counted(lambda x: x), rep, rep, trials=5, seed=1)
    return report, (-1.0, 1.0)


def _pointwise_check(monkeypatch, rep, counted):
    monkeypatch.setattr(activations, "apply_pointwise", counted(apply_pointwise))
    report = check_pointwise_equivariance(RELU, np.zeros(rep.degree), rep, trials=5, seed=1)
    return report, (-2.0, 4.0)


@pytest.mark.parametrize("check", [_map_check, _pointwise_check],
                         ids=["check_map_equivariance", "check_pointwise_equivariance"])
def test_large_group_check_samples_elements(monkeypatch, check):
    rep = defining_rep(named_group("cyclic", 4))
    rows, acted = [], []

    def counted(fn):
        def wrapped(*args):
            rows.append(args[-1])
            return fn(*args)
        return wrapped

    def spy(indices, vectors, generators=False):
        acted.append(np.asarray(indices))
        return Representation.act(rep, indices, vectors, generators)

    monkeypatch.setattr(rep, "act", spy)

    def tested_and_received(report, box, sampled):
        # the seeded draws: the vectors, then (when sampled) the elements
        rng = np.random.default_rng(1)
        vectors = rng.uniform(*box, size=(5, 4))
        want = rng.integers(0, 4, size=5) if sampled else np.arange(4)
        assert report.passed
        # act runs on rho_in, then rho_out (the same rep), per block
        assert all(np.array_equal(a, b) for a, b in zip(acted[0::2], acted[1::2]))
        assert np.array_equal(np.concatenate(acted[0::2]), want)
        # the map sees the vectors, then rho(g) v for every tested g in order
        expected = np.vstack([vectors] + [vectors @ rep.images[g].T for g in want])
        assert np.array_equal(np.vstack(rows), expected)
        rows.clear()
        acted.clear()

    tested_and_received(*check(monkeypatch, rep, counted), sampled=False)
    monkeypatch.setattr(network, "EXHAUSTIVE_LIMIT", 3)
    tested_and_received(*check(monkeypatch, rep, counted), sampled=True)


@pytest.mark.parametrize("where", ["everywhere", "transformed-only"])
def test_nan_map_fails_check(where):
    rep = defining_rep(named_group("symmetric", 3))
    calls = []

    def f(x):
        # the first call evaluates f(v); later ones f(rho(g) v)
        calls.append(1)
        if where == "transformed-only" and len(calls) == 1:
            return x
        return np.full_like(x, np.nan)

    report = check_map_equivariance(f, rep, rep, trials=4, seed=0)
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.witness is not None


@pytest.fixture(scope="module")
def s7_defining():
    # |S_7| = 5040 is above EXHAUSTIVE_LIMIT, so checks sample elements
    return defining_rep(named_group("symmetric", 7))


@pytest.mark.parametrize("trials", [0, -1])
def test_checks_reject_trials_below_one(s7_defining, trials):
    rep = s7_defining
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_map_equivariance(lambda x: x[:, ::-1] ** 2, rep, rep, trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_pointwise_equivariance(RELU, np.zeros(7), rep, trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_antisymmetry(lambda points: 0.0, 2, trials=trials)


def test_sampled_check_fails_non_equivariant_map(s7_defining):
    rep = s7_defining
    report = check_map_equivariance(lambda x: x[:, ::-1] ** 2, rep, rep, trials=1)
    assert not report.passed


# --- the blocked check against the per-element reference -----------------


def _quarter_turn_rep(d=3):
    """C_4 by a rotation block lifted to R^2 (x) R^d: cos/sin residues keep
    it off the signed-permutation path, so it acts by dense matmul."""
    quarter = np.array([[np.cos(np.pi / 2), -np.sin(np.pi / 2)],
                        [np.sin(np.pi / 2), np.cos(np.pi / 2)]])
    rep = extend(close([quarter]), [np.kron(quarter, np.eye(d))])
    assert rep.targets is None
    return rep


@pytest.fixture(scope="module")
def p4m3_signed():
    rep = parse_rep_spec(group_from_spec("p4m:3"), "sum(tensor:2(defining);sign)")
    assert rep.targets is not None
    return rep


def _mixing_map(n, seed=0):
    """A row-wise map that is not equivariant: each output row depends on
    its own input row only, so batching cannot change its bits."""
    perm = np.random.default_rng(seed).permutation(n)
    return lambda x: np.tanh(x[:, perm] * 0.75 + x ** 3)


def _assert_same_as_reference(rep_in, rep_out, make_map, box=(-1.0, 1.0), trials=8,
                              seed=0, tol=1e-8, relative=True):
    got = network._check_on_vectors(make_map(), rep_in, rep_out, box, trials, seed, tol,
                                    relative)
    want = reference_check(make_map(), rep_in, rep_out, box, trials, seed, tol, relative)
    assert got.passed == want.passed
    if np.isnan(want.max_residual):
        assert np.isnan(got.max_residual)
    else:
        assert np.float64(got.max_residual).tobytes() == np.float64(want.max_residual).tobytes()
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness[0] == want.witness[0]
        assert got.witness[1].tobytes() == want.witness[1].tobytes()
    return got


def _nearly_equivariant(x):
    # residuals of about 1e-12, nonzero but inside the default tolerance
    return x * (1.0 + 1e-12 * np.arange(x.shape[1]))


@pytest.mark.parametrize("rep_name", ["signed", "dense"])
@pytest.mark.parametrize("block_cells", [None, 1])
def test_blocked_check_is_the_reference(monkeypatch, p4m3_signed, rep_name, block_cells):
    if block_cells is not None:  # one element per block
        monkeypatch.setattr(network, "_BLOCK_CELLS", block_cells)
    rep = p4m3_signed if rep_name == "signed" else _quarter_turn_rep()
    failed = _assert_same_as_reference(rep, rep, lambda: _mixing_map(rep.degree))
    assert not failed.passed
    _assert_same_as_reference(rep, rep, lambda: _mixing_map(rep.degree, seed=1),
                              box=(-2.0, 4.0), trials=3, seed=5, relative=False)
    near = _assert_same_as_reference(rep, rep, lambda: _nearly_equivariant)
    assert near.passed and near.max_residual > 0.0
    trivial = trivial_rep(rep.group, 2)
    _assert_same_as_reference(rep, trivial, lambda: lambda x: x[:, :2] ** 2, trials=1)


def _nan_map(where, rep, trials=4, seed=0):
    """Factory of maps that give NaN: on every row, on every row after the
    first call (f(v) is finite), or only on rho(g) v_2 for one element g
    near the end of the group, with residuals before it."""
    if where == "everywhere":
        return lambda: lambda x: np.full_like(x, np.nan)
    if where == "transformed-only":
        def make():
            calls = []

            def f(x):
                calls.append(1)
                return x if len(calls) == 1 else np.full_like(x, np.nan)
            return f
        return make
    vectors = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, rep.degree))
    marked = rep.act([rep.group.order - 2], vectors)[0, 2]
    mixing = _mixing_map(rep.degree)

    def f(x):
        out = mixing(x)
        out[(x == marked).all(axis=1)] = np.nan
        return out
    return lambda: f


@pytest.mark.parametrize("where", ["everywhere", "transformed-only", "later-block"])
def test_blocked_check_stops_at_the_reference_nan(monkeypatch, p4m3_signed, where):
    rep = p4m3_signed
    monkeypatch.setattr(network, "_BLOCK_CELLS", 4 * rep.degree * 3)  # 3 elements a block
    report = _assert_same_as_reference(rep, rep, _nan_map(where, rep), trials=4)
    assert np.isnan(report.max_residual) and not report.passed
    if where == "later-block":
        assert report.witness[0] == rep.group.order - 2


def test_blocked_check_keeps_the_first_of_tied_maxima(monkeypatch):
    # reversal R and shift S satisfy R S = S^-1 R, so elements S and S^3
    # have residual vectors a and -a: an exact tie, in different blocks
    rep = defining_rep(named_group("cyclic", 4))
    monkeypatch.setattr(network, "_BLOCK_CELLS", 2 * 5 * rep.degree)  # 2 elements a block
    vectors = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, rep.degree))
    moved = rep.act([1, 3], vectors)
    tie = np.abs(moved[:, :, ::-1] - rep.act([1, 3], vectors[:, ::-1])).max(axis=2)
    assert tie[0].tobytes() == tie[1].tobytes() and tie.max() > 0.0
    report = _assert_same_as_reference(rep, rep, lambda: lambda x: x[:, ::-1], trials=5)
    assert report.witness[0] == 1


@pytest.mark.parametrize("group_spec, chain, activation, seed", [
    ("p4m:4", ("defining", "defining", "trivial:1"), TANH, 0),
    ("p4:4", ("defining", "tensor:2(defining)", "defining"), RELU, 3),
], ids=["p4m4-tanh", "p4-relu"])
def test_check_witness_does_not_depend_on_product_layout(group_spec, chain, activation,
                                                         seed):
    # a model with its first weight moved by 0.25: many elements' residuals
    # are equal in exact arithmetic, and the two maps below differ only in
    # how BLAS rounds their products (a strict argmax named different
    # witnesses for them: elements 73 and 68, and 12 and 34)
    group = group_from_spec(group_spec)
    reps = [parse_rep_spec(group, spec) for spec in chain]
    net = build(group, reps, activation, seed=seed)
    a1, w2 = net.layers()
    w1, b1 = a1[:, :-1].copy(), a1[:, -1].copy()
    w1[0, 0] += 0.25

    def row_major(x):
        return activation.scalar(x @ w1.T + b1) @ w2.T

    def feature_major(x):
        return (w2 @ activation.scalar(w1 @ np.ascontiguousarray(x.T) + b1[:, None])).T

    rows, cols = (check_map_equivariance(f, reps[0], reps[-1])
                  for f in (row_major, feature_major))
    assert not rows.passed and not cols.passed
    assert abs(rows.max_residual - cols.max_residual) <= 1e-15
    assert rows.witness[0] == cols.witness[0]
    assert rows.witness[1].tobytes() == cols.witness[1].tobytes()


def test_check_witness_is_the_first_within_the_slack(monkeypatch):
    # residuals 1.0 and 1.0 + 1e-14 tie within the slack, so the element
    # tested first is the witness; with no slack the larger one is
    rep = defining_rep(named_group("cyclic", 4))
    vectors = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 4))
    bump = {1: 1.0, 3: 1.0 + 1e-14}
    moved = {g: rep.act([g], vectors)[0, 1].tobytes() for g in bump}

    def f(x):
        out = x.copy()
        for g, size in bump.items():
            out[[row.tobytes() == moved[g] for row in x], 0] += size
        return out

    def check():
        return network._check_on_vectors(f, rep, rep, (-1.0, 1.0), 2, 0, 1e-8,
                                         relative=False)

    report = check()
    assert report.max_residual == 1.0 + 1e-14
    assert report.witness[0] == 1 and report.witness[1].tobytes() == vectors[1].tobytes()
    monkeypatch.setattr(network, "WITNESS_SLACK", 0.0)
    assert check().witness[0] == 3


@pytest.mark.parametrize("block_cells", [None, 1])
def test_blocked_sampled_check_is_the_reference(monkeypatch, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(network, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(network, "EXHAUSTIVE_LIMIT", 10)
    rep = defining_rep(named_group("symmetric", 4))
    report = _assert_same_as_reference(rep, rep, lambda: _mixing_map(4), trials=8, seed=3)
    assert report.coverage == "sampled (8 of 24)"


def test_check_reports_its_coverage(s7_defining):
    c4 = defining_rep(named_group("cyclic", 4))
    assert check_map_equivariance(lambda x: x, c4, c4).coverage == "exhaustive (4)"
    assert (check_pointwise_equivariance(RELU, np.zeros(4), c4, trials=3).coverage
            == "exhaustive (4)")
    rep = s7_defining
    assert check_map_equivariance(lambda x: x, rep, rep).coverage == "sampled (8 of 5040)"
    assert (check_map_equivariance(lambda x: x, rep, rep, trials=3).coverage
            == "sampled (3 of 5040)")


def test_check_refuses_trials_beyond_the_stack_cap(monkeypatch):
    rep = defining_rep(named_group("cyclic", 4))
    monkeypatch.setattr(network, "MAX_IMAGE_STACK_BYTES", 5 * 4 * 8)
    assert check_map_equivariance(lambda x: x, rep, rep, trials=5).passed
    calls = []
    with pytest.raises(ValueError, match="6 trials of degree 4 would take 192 bytes"):
        check_map_equivariance(lambda x: calls.append(x), rep, rep, trials=6)
    with pytest.raises(ValueError, match="MAX_IMAGE_STACK_BYTES=160"):
        check_pointwise_equivariance(RELU, np.zeros(4), rep, trials=6)
    assert not calls


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-8])
def test_checks_reject_bad_tolerance(tol):
    rep = defining_rep(named_group("cyclic", 3))
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_map_equivariance(lambda x: x, rep, rep, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_pointwise_equivariance(RELU, np.zeros(3), rep, tol=tol)


def test_constant_width_weights_commute_with_group():
    g = named_group("symmetric", 4)
    rep = defining_rep(g)
    net = build(g, [rep, rep, rep], RELU, seed=5)
    for a in net.layers():
        a = a[:, :rep.degree]
        for x in rep.images:
            assert np.abs(np.linalg.inv(x) @ a @ x - a).max() < 1e-8


# --- serialization ---------------------------------------------------


def test_save_load_round_trip(tmp_path):
    net = deep_sets_net(seed=4, activation=TANH)
    data = random_dataset(net, 20, seed=1)
    trained, _ = net.train(data, steps=20, learning_rate=0.1)
    path = tmp_path / "model.txt"
    save_model(trained, path)
    assert "coeffs" not in path.read_text()
    loaded = load_model(path)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.layers(), trained.layers()))
    again = tmp_path / "model2.txt"
    save_model(loaded, again)
    assert path.read_text() == again.read_text()


def test_single_layer_model_round_trip(tmp_path):
    g = named_group("cyclic", 4)
    rep = defining_rep(g)
    net = build(g, [rep, rep], RELU, seed=2)
    path = tmp_path / "model.txt"
    save_model(net, path)
    loaded = load_model(path)
    assert len(loaded.layers()) == 1
    assert np.array_equal(loaded.layers()[0], net.layers()[0])


def test_loaded_model_evaluates_identically(tmp_path):
    net = deep_sets_net(seed=3)
    path = tmp_path / "model.txt"
    save_model(net, path)
    loaded = load_model(path)
    v = np.linspace(-1, 1, 12)
    declared = stack_forward(loaded.layers(), loaded.activation, v)
    assert np.abs(declared - net.forward(v)).max() < 1e-12


def test_loading_a_model_solves_no_basis(tmp_path, monkeypatch):
    net = deep_sets_net(seed=3)
    path = tmp_path / "model.txt"
    save_model(net, path)

    def banned(*args, **kwargs):
        raise AssertionError("load_model solved a basis")

    monkeypatch.setattr(network, "solve_basis", banned)
    monkeypatch.setattr(network, "build", banned)
    loaded = load_model(path)
    report = check_stack_equivariance(loaded.layers(), loaded.activation, loaded.layer_reps)
    assert report.passed and report.coverage.startswith("certificate ")


def test_build_save_and_weights_build_no_dense_basis(tmp_path, monkeypatch):
    # orbit-form bases realize by a gather, so building, saving and reading
    # a model's layers never scatter a dense basis
    def banned(*args):
        raise AssertionError("a dense basis was built")

    monkeypatch.setattr(intertwiners, "_dense_basis", banned)
    g = group_from_spec("p4m:4")
    chain = [parse_rep_spec(g, spec) for spec in ("defining", "defining", "trivial:1")]
    net = build(g, chain, TANH, seed=2)
    save_model(net, tmp_path / "model.txt")
    assert [a.shape for a in net.layers()] == [(16, 17), (1, 16)]
    assert all(basis.orbits is not None for basis in net.weight_bases)


def test_v2_model_rejects_a_non_permutation_hidden_rep_as_build_does(tmp_path):
    g = named_group("symmetric", 3)
    chain = [parse_rep_spec(g, spec) for spec in ("defining", "sign", "trivial:1")]
    with pytest.raises(ValueError) as built:
        build(g, chain, TANH)
    path = tmp_path / "model.txt"
    path.write_text("\n".join([
        "equikit model v2", "group: symmetric:3", "activation: tanh", "layers: 2",
        "rep: defining", "rep: sign", "rep: trivial:1",
        "layer: 1", "weight-matrix: 1 3", "0 0 0", "bias-vector: 1", "0",
        "layer: 2", "weight-matrix: 1 1", "0", "end"]) + "\n")
    with pytest.raises(ValueError) as loaded:
        load_model(path)
    assert str(loaded.value) == str(built.value)
    assert "hidden representation 1 is not a permutation representation" in str(built.value)


def _saved_with_first_declared_weight(tmp_path, net, value):
    """Save ``net`` with its first declared weight replaced by the text
    ``value``; returns the path and the line number edited."""
    path = tmp_path / "model.txt"
    save_model(net, path)
    return path, set_first_declared_weight(path, value)


def test_tampered_model_file_fails_check(tmp_path):
    path, _ = _saved_with_first_declared_weight(tmp_path, deep_sets_net(seed=2), "3.5")
    loaded = load_model(path)
    report = check_stack_equivariance(
        loaded.layers(), loaded.activation, loaded.layer_reps, trials=6, seed=0, tol=1e-8,
    )
    assert not report.passed
    assert report.witness is not None


def test_model_format_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(path)

    net = deep_sets_net(seed=0)
    good = tmp_path / "good.txt"
    save_model(net, good)
    truncated = tmp_path / "trunc.txt"
    truncated.write_text("\n".join(good.read_text().splitlines()[:8]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(truncated)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_model_file_rejects_non_finite_values(tmp_path, value):
    path, line = _saved_with_first_declared_weight(tmp_path, deep_sets_net(seed=0), value)
    with pytest.raises(ModelFormatError, match=f"line {line}: values must be finite"):
        load_model(path)


def test_save_requires_spec_built_reps(tmp_path):
    # a closed group has no spec, so no name load_model would rebuild it by
    g = close([np.eye(4)[[1, 0, 3, 2]]])
    chain = [parse_rep_spec(g, s) for s in ("defining", "defining", "trivial:1")]
    with pytest.raises(ValueError, match="needs a named group"):
        save_model(build(g, chain, RELU, seed=0), tmp_path / "m.txt")
    c4 = named_group("cyclic", 4)
    chain = [Representation(c4, 4, gen_images=c4.generators), defining_rep(c4), trivial_rep(c4, 1)]
    with pytest.raises(ValueError, match="spec strings"):
        save_model(build(c4, chain, RELU, seed=0), tmp_path / "m.txt")
    assert not (tmp_path / "m.txt").exists()
