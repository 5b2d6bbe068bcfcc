"""Shared test utilities: finite-difference gradient checking, the
dense signed-orbit nullspace (the oracle for the solver's orbit form),
the projection of a matrix onto an intertwiner basis, a row-major
reference for the training gradient, the training loop without a plan
(the bitwise oracle for the planned step), a per-element
reference for the equivariance check, the generator images of a
rep spec, a model-file editor, a group's element words, the products
along them and the cayley-table check of generator images on them,
the class-sum dimension oracle for symmetric groups, which enumerates
no element, element lookup, permutation matrices, the center-of-mass
oracle, the
Toeplitz / BTTB / circulant weight parameterizations, and the standard
library's reading of a config file (the oracle for ``config``'s reader)."""

import configparser
import itertools
import math

import numpy as np

from equikit import groups, network, reps
from equikit.numerics import nullspace, signed_permutation_matrices
from equikit.activations import Report
from equikit.reps import CONSISTENCY_TOL


def activation_pattern(net, inputs):
    """Unit on/off pattern at each hidden layer (kink side for relu-like maps)."""
    layers = net.layers()
    patterns = []
    h = inputs
    for a in layers[:-1]:
        s = h @ a[:, :-1].T + a[:, -1]
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
    flat = net.coeffs
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
        probe.coeffs = up
        loss_up = probe.loss(data)
        pat_up = activation_pattern(probe, data.inputs)
        probe.coeffs = down
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


def row_major_forward(layers, activation, x):
    """The network's forward pass on a (batch, n_in) batch, one row per
    sample, with each hidden layer ``[W | b]`` applied as ``x @ W.T + b``:
    (output, layer inputs)."""
    out = [np.empty((x.shape[0], a.shape[0])) for a in layers]
    inputs = [x]
    for a, h in zip(layers[:-1], out):
        np.matmul(inputs[-1], a[:, :-1].T, out=h)
        h += a[:, -1]
        inputs.append(activation.scalar(h, out=h))
    return np.matmul(inputs[-1], layers[-1].T, out=out[-1]), inputs


def orbit_nullspace(perm_in, perm_out):
    """``nullspace(stack)`` for signed permutation reps, by union-find with
    parity: the dense (n_out * n_in, dim) result the orbit-form solve
    (``intertwiners._orbits``) replaced, kept as its oracle.

    Generator g links pair (i, j) to (t_out[g][i], t_in[g][j]) with
    parity s_out[g][i] * s_in[g][j]. Each pair keeps a root and a sign,
    v[p] = sign[p] * v[root[p]]. A round hooks every pair to the largest
    root among its own and its links' (both directions), then
    pointer-jumps until the roots stop changing; rounds repeat until one
    changes no root. A link whose parity disagrees with the settled signs
    zeroes its orbit. Every other orbit is one column, in root order:
    sign / sqrt(|orbit|) on the orbit, positive at the root.
    """
    (t_in, s_in), (t_out, s_out) = perm_in, perm_out
    n_in, n_out = t_in.shape[1], t_out.shape[1]
    size = n_out * n_in
    pairs = np.arange(size)
    link = (t_out[:, :, None] * n_in + t_in[:, None, :]).reshape(-1, size)
    parity = (s_out[:, :, None] * s_in[:, None, :]).reshape(-1, size).astype(np.int8)
    back = np.empty_like(link)  # back[g, link[g, p]] = p
    np.put_along_axis(back, link, pairs[None], axis=1)
    # v[p] = near_parity[k, p] * v[near[k, p]] for each link k of p
    near = np.concatenate([link, back])
    near_parity = np.concatenate([parity, np.take_along_axis(parity, back, axis=1)])

    root, sign = pairs, np.ones(size, dtype=np.int8)
    while True:
        roots = np.concatenate([root[None], root[near]])
        signs = np.concatenate([sign[None], near_parity * sign[near]])
        best = roots.argmax(axis=0)
        hooked, sign = roots[best, pairs], signs[best, pairs]
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            sign = sign * sign[hooked]
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked

    odd = np.zeros(size, dtype=bool)
    odd[root[(sign != parity * sign[link]).any(axis=0)]] = True
    free = np.flatnonzero((root == pairs) & ~odd)
    dim = free.size
    ns = np.zeros((size, dim))
    member = np.flatnonzero(~odd[root])
    element = np.searchsorted(free, root[member])
    counts = np.bincount(element, minlength=dim)
    ns[member, element] = sign[member] / np.sqrt(counts[element])
    return ns


def project(basis, a):
    """Coefficients of the Frobenius-orthogonal projection of ``a`` onto
    the orthonormal intertwiner basis ``basis``, by a product with its
    dense rows."""
    return np.dot(_affine_rows(basis, False), np.reshape(a, -1))


def add_at_project(rows, a):
    """The adjoint of ``np.dot(c, rows)`` at ``a``: coefficient j sums
    rows[j, p] * a[p] over the nonzero entries of row j, by ``np.add.at``
    in entry order (p, then j). The oracle for
    ``IntertwinerBasis.project``, read off the dense rows only."""
    entry, element = np.nonzero(rows.T)
    out = np.zeros(rows.shape[0])
    np.add.at(out, element, rows.T[entry, element] * np.reshape(a, -1)[entry])
    return out


def row_major_loss_grad(net, data):
    """``EquivariantNetwork.loss_grad`` computed with every activation and
    gradient (batch, width): the oracle for the feature-major pass."""
    layers = net.layers()
    x = np.ascontiguousarray(data.inputs)
    out, inputs = row_major_forward(layers, net.activation, x)
    err = np.subtract(out, data.targets, out=out)
    g_z = np.empty_like(err)
    mse = float(np.mean(np.square(err, out=g_z)))
    np.multiply(err, 2.0, out=g_z)
    g_z /= err.size
    grads = [[] for _ in range(net.k)]  # per layer: weight part, then a hidden bias's
    for i in range(net.k - 1, -1, -1):
        grads[i].insert(0, project(net.weight_bases[i], g_z.T @ inputs[i]))
        if i:
            g_z = np.matmul(g_z, layers[i][:, :net.widths[i]])
            # layer i - 1's output is not read again, so it takes its slope
            g_z *= net.activation.slope(inputs[i], out=inputs[i])
            grads[i - 1].append([g_z.sum() / np.sqrt(g_z.shape[1])])  # c / sqrt(n) * ones
    return mse, np.concatenate([np.concatenate(parts) for parts in grads])


def _affine_rows(basis, biased):
    """The basis rows of a layer's map, flattened: for a biased layer the
    rows of ``[W | b]`` on ``[x; 1]``, each basis matrix beside a zero
    column and then the bias's row, 1/sqrt(n_out) in that column."""
    dim, n_out, n_in = basis.basis.shape
    if not biased:
        return basis.basis.reshape(dim, n_out * n_in)
    beside = np.concatenate((basis.basis, np.zeros((dim, n_out, 1))), axis=2)
    bias = np.zeros((1, n_out, beside.shape[2]))
    bias[0, :, -1] = 1.0 / np.sqrt(n_out)
    return np.vstack((beside, bias)).reshape(dim + 1, -1)


def _reference_loss_grad(net, rows, data):
    """``EquivariantNetwork.loss_grad`` without a plan: every call realizes
    the layers (``[W | b]`` for a hidden one), stacks a ones row under each
    hidden layer's input with ``np.vstack``, projects each layer's
    gradient onto ``rows`` (``add_at_project``) and concatenates the
    parts."""
    k, widths, activation = net.k, net.widths, net.activation
    affine = net.layers()
    ones = np.ones((1, len(data)))
    x, inputs = data.inputs.T, []
    for i, a in enumerate(affine):
        inputs.append(np.vstack((x, ones)) if i < k - 1 else x)
        x = a @ inputs[-1]
        if i < k - 1:
            x = activation.scalar(x, out=x)
    err = np.subtract(x, data.targets.T)
    flat = err.reshape(-1)
    mse = float(np.dot(flat, flat) / flat.size)
    g = err * (2.0 / flat.size)
    grads = [None] * k
    for i in range(k - 1, -1, -1):
        # the first input's transpose in C order, as the planned step keeps it
        x = np.ascontiguousarray(inputs[0].T) if i == 0 else inputs[i].T
        grads[i] = add_at_project(rows[i], g @ x)
        if i:
            h = inputs[i][:widths[i]]
            g = (affine[i][:, :widths[i]].T @ g) * activation.slope(h, out=h)
    return mse, np.concatenate(grads)


def reference_train(net, data, steps, learning_rate):
    """``EquivariantNetwork.train`` as the unplanned affine loop
    (``_reference_loss_grad`` at every step): the bitwise oracle for the
    planned step. Returns (trained copy, history)."""
    net = net.copy()
    flat = net.coeffs
    rows = [_affine_rows(b, i < net.k - 1) for i, b in enumerate(net.weight_bases)]
    history = np.empty(steps)
    for t in range(steps):
        mse, grad = _reference_loss_grad(net, rows, data)
        if not np.isfinite(mse) or mse > 1e12:
            raise network.DivergenceError(f"loss {mse:.3e} at step {t}")
        history[t] = mse
        flat -= learning_rate * grad
    return net, history


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


def stacked_fixed_subspace(rep):
    """The nullspace of the stacked (rho(g) - I) generator blocks: the
    oracle for ``intertwiners.fixed_subspace``, which solves for the
    intertwiners from the trivial rep instead."""
    eye = np.eye(rep.degree)
    stacked = np.vstack([g - eye for g in rep.gen_images])
    if np.abs(stacked).max() == 0.0:
        return np.eye(rep.degree)
    return nullspace(stacked)


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
        images = reps._one_per_generator(group, [permutation_matrix(p) for p in arg[0]])
        return groups._generator_stack(images, "generator image")[0]
    if kind == "trivial":
        return np.stack([np.eye(arg)] * group.gen_count)
    if kind == "sign":
        return np.stack([np.array([[np.linalg.det(g)]]) for g in group.generators])
    return group.generators


def set_first_declared_weight(path, value, header="weight-matrix:"):
    """Replace the first declared weight of the model file ``path`` (or,
    with ``header="bias-vector:"``, its first declared bias) by the text
    ``value``; returns the line number edited."""
    lines = path.read_text().splitlines()
    row = next(i + 1 for i, ln in enumerate(lines) if ln.startswith(header))
    tokens = lines[row].split()
    tokens[0] = value
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return row + 1


def words(group):
    """Each element's generator word from the identity (left-to-right
    products), read off the group's BFS parent links: a parent precedes
    its children."""
    out = [()]
    for parent, gi in group.parents[1:].tolist():
        out.append(out[parent] + (gi,))
    return out


def word_products(group, gen_images):
    """Each element's image as the left-to-right product of the generator
    images along its word, one ``@`` at a time, element by element: a
    traversal that shares nothing with ``reps._walk``. A word extends its
    parent's by one generator, so each element takes one ``@`` on its
    parent's product, the same sequence of products as from the
    identity."""
    products = [np.eye(gen_images.shape[1])]
    for parent, gi in group.parents[1:].tolist():
        products.append(products[parent] @ gen_images[gi])
    return np.stack(products)


def cayley_outcome(group, gen_images, tol=CONSISTENCY_TOL):
    """(element, generator, residual) of the first generator, and its
    first worst element, at which the word products fail the cayley
    table by more than ``tol``, by a plain loop; else the products."""
    products = word_products(group, gen_images)
    for gi, column in enumerate(group.cayley.T.tolist()):
        image = gen_images[gi]
        dev = [np.abs(products[e] @ image - products[j]).max() for e, j in enumerate(column)]
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            return "inconsistent", worst, gi, float(dev[worst])
    return products.tobytes()


def first_failing_relator(group, gen_images):
    """The first of a named group's relators (``group.relators``) that
    the dense generator images fail, by matmuls of its words, written
    with gi for image i: a letter g^e as ``gi^e`` (``gi`` for e = 1), a
    word as its letters joined by spaces, and its power p > 1 as ``w^p``
    for a one-letter word, else ``(w)^p``. None when the images satisfy
    every relator. A word applies its letters left to right, so each
    letter's matrix power (of the transpose, the inverse of a signed
    permutation, for e < 0) multiplies on the left."""
    identity = np.eye(gen_images.shape[1])
    for word, power in group.relators:
        product = identity
        for g, e in word:
            image = gen_images[g] if e > 0 else gen_images[g].T
            product = np.linalg.matrix_power(image, abs(e)) @ product
        if np.abs(np.linalg.matrix_power(product, power) - identity).max() > 0.5:
            text = " ".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in word)
            if power == 1:
                return text
            return f"{text}^{power}" if len(word) == 1 else f"({text})^{power}"
    return None


def _compose(first, then):
    """The signed permutation ``then`` after ``first``, each a (targets,
    signs) pair with e_j -> signs[j] e_{targets[j]}."""
    return then[0][first[0]], first[1] * then[1][first[0]]


def _inverse(perm):
    targets, signs = perm
    inv_targets = np.empty_like(targets)
    inv_targets[targets] = np.arange(len(targets))
    inv_signs = np.empty_like(signs)
    inv_signs[targets] = signs
    return inv_targets, inv_signs


def _partitions(m, largest=None):
    """Every partition of m, as a non-increasing tuple of parts."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def class_dim_oracle(rep_in, rep_out):
    """dim Hom(rep_in, rep_out) for signed permutation reps of
    ``symmetric:m`` by the class sum (1/m!) sum_l |C_l| chi_in(l)
    chi_out(l), over the partitions l of m, in Python ints: no element
    is enumerated and no closed-form order is read.

    With s = (0 1) and c the m-cycle (``named_group``'s generators), the
    conjugates t_i = c^i s c^-i (0 <= i <= m-2) are transpositions of
    neighbouring points along c, and the product of a run of k
    consecutive t_i is a (k+1)-cycle. So one representative of the class
    with cycle type l is the product of the t_i, for every i but one
    between two parts. Each character is read off that representative's
    image, composed from the rep's ``gen_arrays``; the defining rep's
    checks each representative's cycle type."""
    group = rep_in.group
    m = group.dim
    assert group.spec == f"symmetric:{m}" and rep_out.group is group
    defining = reps.defining_rep(group)

    def transpositions(rep):
        targets, signs = rep.gen_arrays
        s = targets[0], signs[0]
        ts = [s]
        if m >= 3:
            c = targets[1], signs[1]
            power = c
            for _ in range(2, m):
                ts.append(_compose(_compose(_inverse(power), s), power))
                power = _compose(power, c)
        return ts

    moves = [transpositions(rep) for rep in (defining, rep_in, rep_out)]
    total = 0
    for parts in _partitions(m):
        cut = set(itertools.accumulate(parts[:-1]))  # the first point of each later part
        chars = []
        for rep, ts in zip((defining, rep_in, rep_out), moves):
            element = np.arange(rep.degree), np.ones(rep.degree, dtype=np.int64)
            for i in range(m - 1):
                if i + 1 not in cut:
                    element = _compose(element, ts[i])
            fixed = element[0] == np.arange(rep.degree)
            chars.append(int((element[1] * fixed).sum()))
            if rep is defining:
                lengths, seen = [], np.zeros(m, dtype=bool)
                for start in range(m):
                    length, j = 0, start
                    while not seen[j]:
                        seen[j], length, j = True, length + 1, element[0][j]
                    if length:
                        lengths.append(length)
                assert sorted(lengths, reverse=True) == list(parts)
        size_of_class = math.factorial(m)
        for part in set(parts):
            size_of_class //= part ** parts.count(part) * math.factorial(parts.count(part))
        total += size_of_class * chars[1] * chars[2]
    dim, rest = divmod(total, math.factorial(m))
    assert rest == 0
    return dim


def element_index(images, m):
    """Index of the first of the (order, n, n) ``images`` within 1e-6 of
    the matrix ``m`` entrywise, or None."""
    hits = np.flatnonzero(np.abs(images - m).max(axis=(1, 2)) <= 1e-6)
    return int(hits[0]) if len(hits) else None


def permutation_matrix(perm):
    """Matrix P with P e_j = e_perm[j] for a permutation of 0..n-1; a
    (count, n) array of permutations gives the (count, n, n) stack."""
    perm = groups._permutation(perm)
    rows = perm.reshape(-1, perm.shape[-1]).astype(np.intp)
    stack = signed_permutation_matrices(rows, np.ones(rows.shape))
    return stack.reshape(perm.shape + rows.shape[-1:])


def center_of_mass(points):
    """Mean of m unit-mass positions, an (m, 3) array -> length-3 vector.

    Coordinates are accumulated with an exactly rounded sum, so the
    result is bit-identical under any reordering of the points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ValueError(f"expected a nonempty (m, 3) array, got {points.shape}")
    m = points.shape[0]
    return np.array([math.fsum(points[:, c]) / m for c in range(3)])


def toeplitz(n, params):
    """n x n matrix with A[i, j] = params[i - j + n - 1] (2n-1 values)."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (2 * n - 1,):
        raise ValueError(f"toeplitz({n}) needs {2 * n - 1} parameters, got {params.shape}")
    idx = np.arange(n)
    return params[idx[:, None] - idx[None, :] + n - 1]


def bttb(m1, m2, params):
    """Block-Toeplitz matrix with Toeplitz blocks, (m1*m2) x (m1*m2).

    ``params`` has length (2*m1-1)*(2*m2-1); block (I, J) is the m2 x m2
    Toeplitz matrix built from the parameter slice indexed by I - J.
    """
    params = np.asarray(params, dtype=np.float64)
    want = (2 * m1 - 1) * (2 * m2 - 1)
    if params.shape != (want,):
        raise ValueError(f"bttb({m1}, {m2}) needs {want} parameters, got {params.shape}")
    slices = params.reshape(2 * m1 - 1, 2 * m2 - 1)
    n = m1 * m2
    a = np.empty((n, n))
    for bi in range(m1):
        for bj in range(m1):
            block = toeplitz(m2, slices[bi - bj + m1 - 1])
            a[bi * m2:(bi + 1) * m2, bj * m2:(bj + 1) * m2] = block
    return a


def circulant(n, params):
    """n x n matrix with A[i, j] = params[(i - j) mod n] (wraparound)."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (n,):
        raise ValueError(f"circulant({n}) needs {n} parameters, got {params.shape}")
    idx = np.arange(n)
    return params[(idx[:, None] - idx[None, :]) % n]


def circulant_basis(n):
    """The n unit-parameter circulants, shape (n, n, n)."""
    return np.stack([circulant(n, np.eye(n)[i]) for i in range(n)])


def configparser_sections(path):
    """``{section: {key: value}}`` as ``ConfigParser(interpolation=None)``
    with case-kept keys reads ``path``, [DEFAULT]'s keys merged into each
    section; a parse error is raised as ``ValueError``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}
