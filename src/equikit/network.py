"""Equivariant feed-forward networks in intertwiner coordinates.

A network is k realized weight matrices A_i (linear combinations over
an intertwiner basis) alternating with biased pointwise activations;
the last layer carries no bias and no activation. Because the trainable
parameters are basis coefficients, every realized map is equivariant by
construction and stays so under any coefficient update.

Hidden biases live on the all-coordinates-equal line (the threshold
form), which every permutation representation fixes; together with the
permutation-representation requirement on hidden layers this certifies
pointwise compatibility.

Batches run feature-major: every activation, buffer and gradient is a
(width, batch) array, and ``_forward`` is the one forward pass for
training, evaluation and the check. Each layer makes the product
``W @ x`` and adds its bias as a column; the backward pass makes
``W.T @ g``, sums bias gradients along rows and projects ``g @ x.T``
onto the weight basis. With the batch as the long contiguous axis, BLAS
takes its untransposed path and bias adds and sums run over contiguous
rows, which at the small widths of these networks is most of a step's
cost. ``Dataset`` stores its arrays column-major, so training reads
their transposes as C-contiguous views; ``stack_forward`` takes and
returns (batch, width) rows through transposed views.

A network's stack (``check_stack_equivariance``, behind
``EquivariantNetwork.check_equivariance`` and ``equikit check``) is
checked at the generators first: by the homomorphism property, a map
that commutes with every generator commutes with all of G, so every
failure over G shows at some generator. A stack that passes there and
is exactly equivariant at the generators (``_certified``, no tolerance)
passes; built and trained models are, since each realized entry has one
nonzero term. Only a stack that is neither refuted nor certified gets
the element sweep of ``check_map_equivariance``.

The equivariance check (``_check_on_vectors``) evaluates a map on blocks
of group elements: one ``Representation.act`` and one call of the map per
block of stacked rows, with each block-sized array bounded by
``_BLOCK_CELLS`` values. It covers the same elements as testing one
element at a time and, for a map that computes each row on its own,
gives the same residual and witness bit for bit. Residuals that tie
within a relative ``WITNESS_SLACK`` pick the first of them as the
witness, so the witness is a property of the map, not of how its
products round.
"""

from dataclasses import dataclass

import numpy as np

from .activations import Report, is_compatible, parse_activation
from .groups import MAX_IMAGE_STACK_BYTES, group_from_spec
from .intertwiners import solve_basis
from .numerics import check_tol
from .reps import is_permutation_rep, parse_rep_chain


class DivergenceError(RuntimeError):
    """Training blew up; try a smaller learning rate."""


@dataclass
class Dataset:
    """Paired input/target rows, stored column-major (Fortran order) so
    that ``inputs.T`` and ``targets.T`` are the C-contiguous (width, batch)
    arrays training reads, with no copy per step."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asfortranarray(self.inputs, dtype=np.float64)
        self.targets = np.asfortranarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D arrays")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"count mismatch: {self.inputs.shape[0]} inputs vs "
                f"{self.targets.shape[0]} targets"
            )
        if self.inputs.shape[0] == 0:
            raise ValueError("dataset is empty")

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class ParameterCount:
    equivariant: int
    dense: int

    @property
    def ratio(self):
        return self.equivariant / self.dense


def _interleave(weights, biases):
    """Per-layer parts in the flat coefficient order w1, b1, w2, b2, ..., wk."""
    parts = [None] * (len(weights) + len(biases))
    parts[0::2], parts[1::2] = weights, biases
    return parts


def _forward(weights, biases, activation, x, out=None):
    """Run the stack on a feature-major (n_in, batch) batch: (output,
    layer inputs), every array (width, batch).

    Each layer computes ``W @ x`` and adds its bias as a column. ``out``,
    when given, holds one (width, batch) array per layer that receives
    that layer's output (hidden activations are computed in place over
    their pre-activations), so a repeated call allocates no batch-sized
    array.
    """
    if out is None:
        out = [np.empty((w.shape[0], x.shape[1])) for w in weights]
    inputs = [x]
    for w, b, h in zip(weights, biases, out):
        np.matmul(w, inputs[-1], out=h)
        h += b[:, None]
        inputs.append(activation.scalar(h, out=h))
    return np.matmul(weights[-1], inputs[-1], out=out[-1]), inputs


def stack_forward(weights, biases, activation, x):
    """Apply the alternating stack A_k sigma_b ... sigma_b A_1 to a vector
    or to each row of a (batch, n_in) array.

    The rows go in as the transposed view and the (batch, n_out) result
    is the transposed view of the feature-major output.
    """
    h = np.asarray(x, dtype=np.float64)
    single = h.ndim == 1
    out = _forward(weights, biases, activation, (h[None, :] if single else h).T)[0].T
    return out[0] if single else out


class EquivariantNetwork:
    """Network over a fixed representation chain rho_0 ... rho_k."""

    def __init__(self, group, layer_reps, weight_bases, weight_coeffs,
                 bias_bases, bias_coeffs, activation):
        self.group = group
        self.layer_reps = list(layer_reps)
        self.weight_bases = list(weight_bases)
        self.weight_coeffs = [np.asarray(c, dtype=np.float64) for c in weight_coeffs]
        self.bias_bases = list(bias_bases)
        self.bias_coeffs = [np.asarray(c, dtype=np.float64) for c in bias_coeffs]
        self.activation = activation

    @property
    def k(self):
        return len(self.weight_bases)

    @property
    def widths(self):
        return [r.degree for r in self.layer_reps]

    def weights(self):
        """Realized weight matrices A_i = sum_j coeffs_j basis_j."""
        return [b.realize(c) for b, c in zip(self.weight_bases, self.weight_coeffs)]

    def biases(self):
        return [basis @ c for basis, c in zip(self.bias_bases, self.bias_coeffs)]

    def copy(self):
        return EquivariantNetwork(
            self.group, self.layer_reps, self.weight_bases,
            [c.copy() for c in self.weight_coeffs],
            self.bias_bases,
            [c.copy() for c in self.bias_coeffs],
            self.activation,
        )

    # --- coefficient vector (flat) layout: see _interleave ---------

    def coefficient_vector(self):
        return np.concatenate(_interleave(self.weight_coeffs, self.bias_coeffs))

    def set_coefficient_vector(self, flat):
        flat = np.array(flat, dtype=np.float64)
        size = sum(c.size for c in self.weight_coeffs + self.bias_coeffs)
        if flat.shape != (size,):
            raise ValueError(f"expected {size} coefficients, got {flat.size}")
        self._view_coefficients(flat)

    def _view_coefficients(self, flat):
        """Make every coefficient array a view of the flat vector ``flat``,
        so that updating ``flat`` in place updates the network."""
        sizes = [c.size for c in _interleave(self.weight_coeffs, self.bias_coeffs)]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        self.weight_coeffs, self.bias_coeffs = parts[0::2], parts[1::2]

    # --- evaluation -------------------------------------------------

    def forward(self, v):
        return stack_forward(self.weights(), self.biases(), self.activation, v)

    def check_equivariance(self, trials=8, seed=0, tol=1e-8):
        return check_stack_equivariance(self.weights(), self.biases(), self.activation,
                                        self.layer_reps, trials=trials, seed=seed, tol=tol)

    # --- training ---------------------------------------------------

    def loss(self, data):
        return float(np.mean((self.forward(data.inputs) - data.targets) ** 2))

    def loss_grad(self, data, buffers=None):
        """Mean squared error and its gradient over all coefficients.

        The gradient is taken with respect to the basis coefficients
        (reverse-mode chain rule through the alternating composition),
        flattened in the coefficient-vector layout. The pass runs
        feature-major on ``data.inputs.T``: the backward step is
        ``g = W.T @ g``, the bias gradient ``g.sum(axis=1)`` and the
        weight gradient the projection of ``g @ x.T``. ``buffers`` (from
        ``_batch_buffers``) receive every batch-sized intermediate; their
        contents are overwritten.
        """
        outs, grads = buffers or self._batch_buffers(len(data))
        weights = self.weights()
        out, inputs = _forward(weights, self.biases(), self.activation, data.inputs.T, outs)
        err = np.subtract(out, data.targets.T, out=out)
        g = grads[-1]
        mse = float(np.mean(np.square(err, out=g)))
        np.multiply(err, 2.0, out=g)
        g /= err.size
        grads_w, grads_b = [None] * self.k, [None] * (self.k - 1)
        for i in range(self.k - 1, -1, -1):
            if i < self.k - 1:
                g = np.matmul(weights[i + 1].T, g, out=grads[i])
                # layer i's output is not read again, so it takes its slope
                g *= self.activation.slope(inputs[i + 1], out=inputs[i + 1])
                grads_b[i] = self.bias_bases[i].T @ g.sum(axis=1)
            grads_w[i] = self.weight_bases[i].project(g @ inputs[i].T)
        return mse, np.concatenate(_interleave(grads_w, grads_b))

    def _batch_buffers(self, batch):
        """Per-layer (width, batch) arrays for ``loss_grad``: the layer
        outputs, then their gradients."""
        return tuple([np.empty((n, batch)) for n in self.widths[1:]] for _ in range(2))

    def train(self, data, steps, learning_rate):
        """Full-batch gradient descent; returns (trained copy, history).

        history[t] is the loss evaluated at step t before the update.
        Coefficients-only updates cannot leave the intertwiner space, so
        equivariance is preserved at every step. The copy's coefficient
        arrays are views of one flat vector that each step updates in
        place, and every step reuses one set of batch buffers, so the
        loop allocates only coefficient-sized arrays.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        net = self.copy()
        flat = net.coefficient_vector()
        net._view_coefficients(flat)
        history = np.empty(steps)
        buffers = net._batch_buffers(len(data))
        for t in range(steps):
            mse, grad = net.loss_grad(data, buffers)
            if not np.isfinite(mse) or mse > 1e12:
                raise DivergenceError(
                    f"loss {mse:.3e} at step {t}; use a smaller learning rate"
                )
            history[t] = mse
            flat -= learning_rate * grad
        return net, history

    def count_parameters(self):
        """Trainable-coefficient count next to the dense count.

        The dense figure is sum_i n_{i-1} n_i weights plus one bias per
        hidden width, i.e. the unconstrained network of the same shape.
        """
        equi = self.coefficient_vector().size
        widths = self.widths
        dense = sum(widths[i] * widths[i + 1] for i in range(self.k))
        dense += sum(widths[i] for i in range(1, self.k))
        return ParameterCount(equi, dense)


def build(group, layer_reps, activation, seed=0):
    """Assemble an equivariant network for a representation chain.

    Hidden representations must be permutation representations (the
    certified pointwise-compatibility regime), and every layer boundary
    must admit a nonzero intertwiner space. Weight coefficients are
    seeded random, rescaled so each realized matrix has Frobenius norm
    sqrt(2 / fan_in); bias coefficients start at zero.
    """
    layer_reps = list(layer_reps)
    if len(layer_reps) < 2:
        raise ValueError("need at least two representations (one layer)")
    for rep in layer_reps:
        if rep.group is not group:
            raise ValueError("all representations must belong to the given group")
    k = len(layer_reps) - 1
    for i in range(1, k):
        if not is_permutation_rep(layer_reps[i]):
            raise ValueError(
                f"hidden representation {i} is not a permutation "
                "representation; pointwise nonlinearities are only "
                "certified equivariant for permutation actions"
            )
    weight_bases = []
    for i in range(k):
        basis = solve_basis(layer_reps[i], layer_reps[i + 1])
        if basis.dim == 0:
            raise ValueError(
                f"layer {i + 1} has a zero-dimensional weight space; "
                "the layer map would be forced to zero"
            )
        weight_bases.append(basis)

    rng = np.random.default_rng(seed)
    weight_coeffs = []
    for i, basis in enumerate(weight_bases):
        c = rng.standard_normal(basis.dim)
        a = basis.realize(c)
        fro = np.sqrt((a * a).sum())
        if fro > 0:
            c *= np.sqrt(2.0 / layer_reps[i].degree) / fro
        weight_coeffs.append(c)

    bias_bases = []
    bias_coeffs = []
    for i in range(1, k):
        n = layer_reps[i].degree
        bias_bases.append(np.full((n, 1), 1.0 / np.sqrt(n)))
        bias_coeffs.append(np.zeros(1))

    return EquivariantNetwork(
        group, layer_reps, weight_bases, weight_coeffs,
        bias_bases, bias_coeffs, activation,
    )


EXHAUSTIVE_LIMIT = 5000

# Cells (rows x coordinates) of one block of the check: a block's
# transformed inputs, outputs and scatter indices stay near 128 KiB each.
_BLOCK_CELLS = 2 ** 14

# Residuals within this relative slack of a maximum count as tied with it
# when the witness is chosen, so the last-bit rounding of the map's
# products does not pick the witness.
WITNESS_SLACK = 1e-12


def check_map_equivariance(apply, rep_in, rep_out, trials=8, seed=0, tol=1e-8):
    """Check f(rho_in(g) v) = rho_out(g) f(v) on seeded random vectors.

    ``apply`` must accept a (batch, n_in) array and map each row on its
    own. Exhaustive over the group when |G| <= 5000, else over
    ``trials`` sampled elements; residuals are infinity norms normalized
    by 1 + ||f(v)||_inf.
    """
    return _check_on_vectors(apply, rep_in, rep_out, (-1.0, 1.0), trials, seed, tol,
                             relative=True)


def check_stack_equivariance(weights, biases, activation, layer_reps, trials=8, seed=0,
                             tol=1e-8):
    """Check the stack ``stack_forward(weights, biases, activation, .)``
    over the rep chain ``layer_reps``, in three steps:

    1. the generator sweep: ``_check_on_vectors`` over the generators
       only, with the vectors, residuals and ``trials`` cap of
       ``check_map_equivariance``. A residual above ``tol`` fails, and
       the witness is a generator: coverage ``generators (k of |G|)``;
    2. else, when ``_certified`` holds, the stack passes with the sweep's
       residual: coverage ``certificate (k generators)``;
    3. else ``check_map_equivariance``, exhaustive or sampled.
    """
    rep_in, rep_out = layer_reps[0], layer_reps[-1]
    group = rep_in.group

    def apply(x):
        return stack_forward(weights, biases, activation, x)

    report = _check_on_vectors(apply, rep_in, rep_out, (-1.0, 1.0), trials, seed, tol,
                               relative=True, indices=group.cayley[0],
                               coverage=f"generators ({group.gen_count} of {group.order})")
    if not report.passed:
        return report
    if _certified(weights, biases, activation, layer_reps):
        report.coverage = f"certificate ({group.gen_count} generators)"
        return report
    return check_map_equivariance(apply, rep_in, rep_out, trials=trials, seed=seed, tol=tol)


def _certified(weights, biases, activation, layer_reps):
    """True when the stack is exactly equivariant by an algebraic
    certificate: every layer rep is a signed permutation rep, every
    weight commutes exactly with every generator
    (``_commutes_at_generators``) and every hidden bias is fixed by its
    rep's generators (``is_compatible`` at tol 0, which also requires a
    permutation rep, so the pointwise activation commutes). Generators
    suffice by the homomorphism property."""
    if any(rep.targets is None for rep in layer_reps):
        return False
    return (all(_commutes_at_generators(w, a, b).all()
                for w, a, b in zip(weights, layer_reps, layer_reps[1:]))
            and all(is_compatible(activation, b, rep, tol=0.0)
                    for b, rep in zip(biases, layer_reps[1:-1])))


def _commutes_at_generators(w, rep_in, rep_out):
    """Per generator g, whether ``w @ rho_in(g) == rho_out(g) @ w`` holds
    exactly, for signed permutation reps, read off their index arrays.

    With rho(g) e_j = s_j e_{t_j}, the two sides agree at (t_out[i], j)
    iff w[t_out[i], t_in[j]] * s_out[i] * s_in[j] == w[i, j]. Sign
    flips are exact, so this is the dense products' equality (each of
    their entries has one nonzero term) at O(n_out * n_in) per generator.
    """
    gens = rep_in.group.cayley[0]
    t_in, s_in = rep_in.targets[gens], rep_in.signs[gens]
    t_out, s_out = rep_out.targets[gens], rep_out.signs[gens]
    return np.array([
        np.array_equal(w[t_out[k][:, None], t_in[k]] * (s_out[k][:, None] * s_in[k]), w)
        for k in range(gens.size)
    ], dtype=bool)


def _check_on_vectors(apply, rep_in, rep_out, box, trials, seed, tol, relative,
                      indices=None, coverage=None):
    """The verifier behind every equivariance check.

    Draws ``trials`` seeded vectors v uniform in ``box`` = (low, high)
    and tests each against the elements ``indices`` (named by
    ``coverage``) when given, else against every element when
    |G| <= EXHAUSTIVE_LIMIT, else against ``trials`` elements drawn from
    the same generator.
    Elements are taken a block at a time: one ``act`` of the block on
    the vectors, one ``apply`` of the stacked rows and one ``act`` on
    f(v), with blocks of about ``_BLOCK_CELLS`` cells (at least one
    element). Residuals are infinity norms, divided by
    1 + ||f(v)||_inf when ``relative``; the first NaN residual in
    (element, vector) order fails at once and is the witness. Returns a
    Report with the maximum residual, its coverage and, on failure, the
    witness: the first tested element whose worst residual is within
    ``WITNESS_SLACK`` (relative) of the maximum, with that element's
    first vector whose residual is within the slack of the element's
    worst. Raises ValueError, before drawing anything, when ``trials``
    rows of the larger degree would exceed ``MAX_IMAGE_STACK_BYTES`` as
    float64.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_tol(tol, strict=False)
    width = max(rep_in.degree, rep_out.degree)
    if trials * width * 8 > MAX_IMAGE_STACK_BYTES:
        raise ValueError(
            f"{trials} trials of degree {width} would take {trials * width * 8} "
            f"bytes, above the cap MAX_IMAGE_STACK_BYTES={MAX_IMAGE_STACK_BYTES}"
        )
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(*box, size=(trials, rep_in.degree))
    base = np.asarray(apply(vectors))
    scale = 1.0 + np.abs(base).max(axis=1) if relative else 1.0
    order = rep_in.group.order
    if indices is None and order <= EXHAUSTIVE_LIMIT:
        indices = np.arange(order)
        coverage = f"exhaustive ({order})"
    elif indices is None:
        indices = rng.integers(0, order, size=trials)
        coverage = f"sampled ({trials} of {order})"
    step = max(1, _BLOCK_CELLS // (trials * width))
    worst = np.empty(indices.size)  # per tested element
    first = np.empty(indices.size, dtype=np.intp)  # its first near-worst vector
    for lo in range(0, indices.size, step):
        block = indices[lo:lo + step]
        moved = rep_in.act(block, vectors).reshape(-1, rep_in.degree)
        lhs = np.asarray(apply(moved)).reshape(block.size, trials, -1)
        dev = np.abs(lhs - rep_out.act(block, base)).max(axis=2) / scale
        e, i = np.unravel_index(np.argmax(dev), dev.shape)  # the first NaN, if any
        if np.isnan(dev[e, i]):
            return Report(False, float("nan"), (int(block[e]), vectors[i].copy()), coverage)
        top = dev.max(axis=1)
        worst[lo:lo + block.size] = top
        first[lo:lo + block.size] = np.argmax(dev >= top[:, None] * (1.0 - WITNESS_SLACK),
                                              axis=1)
    peak = float(worst.max())
    if peak <= tol:
        return Report(True, peak, None, coverage)
    e = int(np.argmax(worst >= peak * (1.0 - WITNESS_SLACK)))
    return Report(False, peak, (int(indices[e]), vectors[first[e]].copy()), coverage)


# --- model files -----------------------------------------------------------
#
# Line-oriented text; floats are %.17g so values round-trip exactly. The
# file carries the group/rep/activation specs plus, per layer, the basis
# coefficients and the realized weight matrix (and bias vector for hidden
# layers). The realized matrices are the function the file declares;
# `equikit check` verifies them, so edits that break equivariance fail.

FORMAT_HEADER = "equikit model v1"


def _fmt_floats(values):
    return " ".join(f"{v:.17g}" for v in np.asarray(values, dtype=np.float64).ravel())


def save_model(net, path):
    """Write a network to the text model format."""
    for rep in net.layer_reps:
        if rep.spec is None:
            raise ValueError(
                "model serialization needs representations built from "
                "spec strings"
            )
    if net.group.spec is None:
        raise ValueError("model serialization needs a named group")
    weights = net.weights()
    biases = net.biases()
    lines = [FORMAT_HEADER]
    lines.append(f"group: {net.group.spec}")
    lines.append(f"activation: {net.activation}")
    lines.append(f"layers: {net.k}")
    for rep in net.layer_reps:
        lines.append(f"rep: {rep.spec}")
    for i in range(net.k):
        lines.append(f"layer: {i + 1}")
        lines.append(f"weight-coeffs: {net.weight_coeffs[i].size}")
        lines.append(_fmt_floats(net.weight_coeffs[i]))
        if i < net.k - 1:
            lines.append(f"bias-coeffs: {net.bias_coeffs[i].size}")
            lines.append(_fmt_floats(net.bias_coeffs[i]))
        rows, cols = weights[i].shape
        lines.append(f"weight-matrix: {rows} {cols}")
        for row in weights[i]:
            lines.append(_fmt_floats(row))
        if i < net.k - 1:
            lines.append(f"bias-vector: {biases[i].size}")
            lines.append(_fmt_floats(biases[i]))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelFormatError(ValueError):
    """Model file failed to parse; message carries the offending line."""


@dataclass
class LoadedModel:
    """A parsed model file: the network plus the declared matrices."""

    network: EquivariantNetwork
    declared_weights: list
    declared_biases: list

    def declared_matches(self, tol=1e-9):
        """True when the declared matrices equal the realized ones."""
        realized = _interleave(self.network.weights(), self.network.biases())
        declared = _interleave(self.declared_weights, self.declared_biases)
        return all(np.abs(a - b).max() <= tol for a, b in zip(realized, declared))


class _Reader:
    def __init__(self, path):
        with open(path) as fh:
            self.lines = [ln.rstrip("\n") for ln in fh]
        self.at = 0

    def next(self):
        if self.at >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        line = self.lines[self.at]
        self.at += 1
        return line

    def expect(self, prefix):
        line = self.next()
        if not line.startswith(prefix):
            raise ModelFormatError(
                f"line {self.at}: expected {prefix!r}, got {line!r}"
            )
        return line[len(prefix):].strip()

    def ints(self, prefix, count=1):
        """The ``count`` integers after ``prefix`` on the next line."""
        tokens = self.expect(prefix).split()
        values = []
        for token in tokens:
            try:
                values.append(int(token))
            except ValueError:
                raise ModelFormatError(
                    f"line {self.at}: {token!r} is not an integer"
                ) from None
        if len(values) != count:
            raise ModelFormatError(
                f"line {self.at}: expected {count} values, got {len(values)}"
            )
        return values

    def floats(self, count):
        line = self.next()
        values = []
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError:
                raise ModelFormatError(
                    f"line {self.at}: {token!r} is not a number"
                ) from None
        values = np.array(values, dtype=np.float64)
        if values.size != count:
            raise ModelFormatError(
                f"line {self.at}: expected {count} values, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise ModelFormatError(f"line {self.at}: values must be finite")
        return values


def load_model(path):
    """Read a model file back into a LoadedModel."""
    r = _Reader(path)
    if r.next() != FORMAT_HEADER:
        raise ModelFormatError("not an equikit model file")
    group = group_from_spec(r.expect("group:"))
    activation = parse_activation(r.expect("activation:"))
    (k,) = r.ints("layers:")
    if k < 1:
        raise ModelFormatError("layer count must be >= 1")
    reps = parse_rep_chain(group, (r.expect("rep:") for _ in range(k + 1)))
    net = build(group, reps, activation, seed=0)
    declared_weights = []
    declared_biases = []
    for i in range(k):
        r.expect("layer:")
        (d,) = r.ints("weight-coeffs:")
        if d != net.weight_bases[i].dim:
            raise ModelFormatError(
                f"layer {i + 1}: file has {d} weight coefficients but the "
                f"basis dimension is {net.weight_bases[i].dim}"
            )
        net.weight_coeffs[i] = r.floats(d)
        if i < k - 1:
            (db,) = r.ints("bias-coeffs:")
            if db != net.bias_bases[i].shape[1]:
                raise ModelFormatError(
                    f"layer {i + 1}: file has {db} bias coefficients but the "
                    f"bias space dimension is {net.bias_bases[i].shape[1]}"
                )
            net.bias_coeffs[i] = r.floats(db)
        rows, cols = r.ints("weight-matrix:", 2)
        want = (reps[i + 1].degree, reps[i].degree)
        if (rows, cols) != want:
            raise ModelFormatError(f"layer {i + 1}: weight matrix shape mismatch")
        declared_weights.append(np.vstack([r.floats(cols) for _ in range(rows)]))
        if i < k - 1:
            (nb,) = r.ints("bias-vector:")
            if nb != reps[i + 1].degree:
                raise ModelFormatError(f"layer {i + 1}: bias length mismatch")
            declared_biases.append(r.floats(nb))
    if r.next() != "end":
        raise ModelFormatError("missing end marker")
    return LoadedModel(net, declared_weights, declared_biases)
