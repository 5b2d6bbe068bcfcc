"""Shared test utilities: finite-difference gradient checking and a
per-element reference for the equivariance check."""

import numpy as np

from equikit import network
from equikit.activations import Report


def activation_pattern(net, inputs):
    """Unit on/off pattern at each hidden layer (kink side for relu-like maps)."""
    weights = net.weights()
    biases = net.biases()
    patterns = []
    h = inputs
    for i in range(net.k - 1):
        s = h @ weights[i].T + biases[i]
        if net.activation.kind == "relu":
            patterns.append(s > 0.0)
        elif net.activation.kind == "threshold":
            patterns.append(s > net.activation.theta)
        else:
            patterns.append(np.ones_like(s, dtype=bool))
        h = net.activation.scalar(s)
    return patterns


def finite_difference_check(net, data, h=1e-5, indices=None):
    """Central finite differences against the analytic gradient.

    Returns (relative_errors, n_excluded, n_checked). A coefficient is
    excluded when its +/-h perturbations land on different sides of an
    activation kink, where the analytic derivative is not the limit of
    the difference quotient.
    """
    _, grad = net.loss_grad(data)
    flat = net.coefficient_vector()
    if indices is None:
        indices = range(flat.size)
    errors = []
    excluded = 0
    probe = net.copy()
    for idx in indices:
        up = flat.copy()
        up[idx] += h
        down = flat.copy()
        down[idx] -= h
        probe.set_coefficient_vector(up)
        loss_up = probe.loss(data)
        pat_up = activation_pattern(probe, data.inputs)
        probe.set_coefficient_vector(down)
        loss_down = probe.loss(data)
        pat_down = activation_pattern(probe, data.inputs)
        crossed = any(
            not np.array_equal(a, b) for a, b in zip(pat_up, pat_down)
        )
        if crossed:
            excluded += 1
            continue
        fd = (loss_up - loss_down) / (2.0 * h)
        denom = max(abs(fd), abs(grad[idx]))
        errors.append(0.0 if denom < 1e-12 else abs(fd - grad[idx]) / denom)
    return errors, excluded, len(list(indices))


def reference_check(apply, rep_in, rep_out, box, trials, seed, tol, relative):
    """The equivariance check one group element at a time: the oracle for
    ``network._check_on_vectors``, which takes elements a block at a time.

    Same seeded draws and residuals; the witness is the first strict
    maximum in (element, vector) order, and the first NaN stops the loop.
    Reads ``network.EXHAUSTIVE_LIMIT`` at call time.
    """
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(*box, size=(trials, rep_in.degree))
    base = np.asarray(apply(vectors))
    scale = 1.0 + np.abs(base).max(axis=1) if relative else 1.0
    group = rep_in.group
    if group.order <= network.EXHAUSTIVE_LIMIT:
        indices = np.arange(group.order)
    else:
        indices = rng.integers(0, group.order, size=trials)
    worst = 0.0
    witness = None
    for g in indices:
        lhs = np.asarray(apply(rep_in.act([g], vectors)[0]))
        rhs = rep_out.act([g], base)[0]
        dev = np.abs(lhs - rhs).max(axis=1) / scale
        i = int(np.argmax(dev))  # the first NaN, if any
        if dev[i] > worst or np.isnan(dev[i]):
            worst = float(dev[i])
            witness = (int(g), vectors[i].copy())
            if np.isnan(worst):
                break
    passed = worst <= tol
    return Report(passed, worst, None if passed else witness)
