"""Shared test utilities: finite-difference gradient checking, a
row-major reference for the training gradient, a per-element
reference for the equivariance check, the generator images of a
rep spec and a model-file editor."""

import numpy as np

from equikit import groups, network, reps
from equikit.groups import permutation_matrix
from equikit.numerics import nullspace
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


def _row_major_forward(weights, biases, activation, x):
    """The network's forward pass on a (batch, n_in) batch, one row per
    sample: (output, layer inputs)."""
    out = [np.empty((x.shape[0], w.shape[0])) for w in weights]
    inputs = [x]
    for w, b, h in zip(weights, biases, out):
        np.matmul(inputs[-1], w.T, out=h)
        h += b
        inputs.append(activation.scalar(h, out=h))
    return np.matmul(inputs[-1], weights[-1].T, out=out[-1]), inputs


def row_major_loss_grad(net, data):
    """``EquivariantNetwork.loss_grad`` computed with every activation and
    gradient (batch, width): the oracle for the feature-major pass."""
    weights = net.weights()
    x = np.ascontiguousarray(data.inputs)
    out, inputs = _row_major_forward(weights, net.biases(), net.activation, x)
    err = np.subtract(out, data.targets, out=out)
    g_z = np.empty_like(err)
    mse = float(np.mean(np.square(err, out=g_z)))
    np.multiply(err, 2.0, out=g_z)
    g_z /= err.size
    grads_w, grads_b = [None] * net.k, [None] * (net.k - 1)
    for i in range(net.k - 1, -1, -1):
        if i < net.k - 1:
            g_z = np.matmul(g_z, weights[i + 1])
            # layer i's output is not read again, so it takes its slope
            g_z *= net.activation.slope(inputs[i + 1], out=inputs[i + 1])
            grads_b[i] = net.bias_bases[i].T @ g_z.sum(axis=0)
        grads_w[i] = net.weight_bases[i].project(g_z.T @ inputs[i])
    return mse, np.concatenate(network._interleave(grads_w, grads_b))


def reference_check(apply, rep_in, rep_out, box, trials, seed, tol, relative):
    """The equivariance check one group element at a time: the oracle for
    ``network._check_on_vectors``, which takes elements a block at a time.

    Same seeded draws and residuals; the first NaN stops the loop and is
    the witness. Otherwise the witness is the first element whose worst
    residual is within ``network.WITNESS_SLACK`` of the maximum, with its
    first vector within the slack of that element's worst. Reads
    ``network.EXHAUSTIVE_LIMIT`` at call time.
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
    slack = 1.0 - network.WITNESS_SLACK
    per_element = []
    for g in indices:
        lhs = np.asarray(apply(rep_in.act([g], vectors)[0]))
        rhs = rep_out.act([g], base)[0]
        dev = np.abs(lhs - rhs).max(axis=1) / scale
        i = int(np.argmax(dev))  # the first NaN, if any
        if np.isnan(dev[i]):
            return Report(False, float("nan"), (int(g), vectors[i].copy()))
        near = next(j for j in range(trials) if dev[j] >= dev[i] * slack)
        per_element.append((float(dev[i]), int(g), near))
    worst = max(top for top, _, _ in per_element)
    if worst <= tol:
        return Report(True, worst, None)
    g, i = next((g, i) for top, g, i in per_element if top >= worst * slack)
    return Report(False, worst, (g, vectors[i].copy()))


def stacked_fixed_subspace(rep, tol=1e-9):
    """The nullspace of the stacked (rho(g) - I) generator blocks: the
    oracle for ``intertwiners.fixed_subspace``, which solves for the
    intertwiners from the trivial rep instead."""
    eye = np.eye(rep.degree)
    stacked = np.vstack([g - eye for g in rep.gen_images])
    if np.abs(stacked).max() == 0.0:
        return np.eye(rep.degree)
    return nullspace(stacked, tol=tol)


def spec_images(group, node):
    """The (gen_count, n, n) generator-image stack of a parsed rep spec
    (``reps._parse_spec``), raising what its leaves' images raise: the
    oracle whose ``extend`` every composed representation matches."""
    kind, arg = node
    if kind == "tensor":
        if arg[0] < 1:
            raise ValueError("tensor factor must be >= 1")
        return reps._tensor_images(spec_images(group, arg[1]), arg[0])
    if kind == "sum":
        return reps._sum_images([spec_images(group, part) for part in arg])
    if kind == "perm":
        images = reps._one_per_generator(group, [permutation_matrix(p) for p in arg])
        return groups._generator_stack(images, "generator image")[0]
    if kind == "trivial":
        return np.stack([np.eye(arg)] * group.gen_count)
    if kind == "sign":
        return np.stack([np.array([[np.linalg.det(g)]]) for g in group.generators])
    return group.generators


def set_first_declared_weight(path, value):
    """Replace the first declared weight of the model file ``path`` by the
    text ``value``; returns the line number edited."""
    lines = path.read_text().splitlines()
    row = next(i + 1 for i, ln in enumerate(lines) if ln.startswith("weight-matrix:"))
    tokens = lines[row].split()
    tokens[0] = value
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return row + 1
