"""Equivariant feed-forward networks in intertwiner coordinates.

A network is k realized weight matrices A_i (linear combinations over
an intertwiner basis) alternating with biased pointwise activations;
the last layer carries no bias and no activation. Because the trainable
parameters are basis coefficients, every realized map is equivariant by
construction and stays so under any coefficient update.

Hidden biases live on the all-coordinates-equal line (the threshold
form), which every permutation representation fixes; together with the
permutation-representation requirement on hidden layers this certifies
pointwise compatibility. A hidden bias is one coefficient c on the unit
vector of that line, so it is ``_bias_unit(n) * c`` in every coordinate,
and the network keeps no bias basis.

A biased layer is the affine map ``x -> W x + b``, which is the linear
map ``[W | b]`` on ``[x; 1]``, from rho_in + trivial to rho_out; so the
bias is one more intertwiner coordinate. ``_forward`` is the one forward
pass for training, evaluation and the check, and it runs every layer in
this form: the input of each biased layer (every layer but the last)
carries a constant ones row under its n rows, each weight of a biased
layer is ``[W | b]``, and one product makes ``W @ x + b``.

Batches run feature-major: every activation, buffer and gradient is a
(width, batch) array, so BLAS takes its untransposed path with the batch
as the long contiguous axis, which at the small widths of these networks
is most of a step's cost. ``Dataset`` stores its arrays column-major, so
training reads their transposes as C-contiguous views;
``stack_forward`` takes and returns (batch, width) rows through
transposed views, and stacks each declared bias vector beside its
weight.

Training runs one planned step, ``_Step``, built once per network and
dataset and shared by ``loss_grad`` and ``train``. The plan copies the
inputs once under a ones row and gives each biased layer one more basis
row, the bias's: ``_bias_unit(n_out)`` in the ones column of every
output row. A layer's coefficients ``[w_i, b_i]`` are one contiguous
slice of the coefficient vector, so one ``np.dot(c, rows, out=...)``
refills ``[W | b]`` in place, and one projection of ``g @ [x; 1].T``
writes the weight and the bias gradient into the slice of one flat
gradient buffer: the products make the bias add and the bias sum. A
step so calls no ``realize``, allocates no batch-sized array and
concatenates nothing.

A network's stack (``check_stack_equivariance``, behind ``equikit check``)
is checked at the generators first: by the homomorphism property, a map
that commutes with every generator commutes with all of G, so every
failure over G shows at some generator. A stack that passes there and
is exactly equivariant at the generators (``_certified``, no tolerance)
passes; built and trained models are, since each realized entry has one
nonzero term. Both steps read the reps' generator data only, so neither
enumerates the group. Only a stack that is neither refuted nor certified
gets the element sweep of ``check_map_equivariance``.

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


def _layer_inputs(x, widths):
    """Each layer's (width, batch) input buffer for the feature-major batch
    ``x``, given the layers' input widths n_0 ... n_{k-1}: a biased
    layer's (every layer but the last) has n + 1 rows, the last of them a
    constant ones row. ``x`` is copied into the first buffer; a one-layer
    stack reads ``x`` itself."""
    if len(widths) == 1:
        return [x]
    batch = x.shape[1]
    ins = [np.empty((n + 1, batch)) for n in widths[:-1]]
    ins[0][:-1] = x
    for buf in ins:
        buf[-1] = 1.0
    ins.append(np.empty((widths[-1], batch)))
    return ins


def _forward(weights, activation, ins, out):
    """Run the stack on feature-major layer inputs ``ins`` (see
    ``_layer_inputs``): ``ins[0]`` holds the batch, and layer i writes its
    activation into the first rows of ``ins[i + 1]``, computed in place
    over its pre-activation. Returns ``out``, which receives the last
    layer's (n_k, batch) output.

    A biased layer's weight is ``[W | b]`` and its input has a ones row
    below, so one product makes ``W @ x + b``.
    """
    for w, x, h in zip(weights, ins, ins[1:]):
        h = h[:w.shape[0]]  # the ones row below stays
        activation.scalar(np.matmul(w, x, out=h), out=h)
    return np.matmul(weights[-1], ins[-1], out=out)


def stack_forward(weights, biases, activation, x):
    """Apply the alternating stack A_k sigma_b ... sigma_b A_1 to a vector
    or to each row of a (batch, n_in) array; each hidden bias is a vector,
    stacked beside its weight as ``[A_i | b_i]``.

    The rows go in as the transposed view, under a ones row, and the
    (batch, n_out) result is the transposed view of the feature-major
    output.
    """
    h = np.asarray(x, dtype=np.float64)
    single = h.ndim == 1
    x = (h[None, :] if single else h).T
    affine = [np.concatenate((w, np.reshape(b, (-1, 1))), axis=1)
              for w, b in zip(weights, biases)]
    affine.append(weights[-1])
    ins = _layer_inputs(x, [w.shape[1] for w in weights])
    out = _forward(affine, activation, ins, np.empty((weights[-1].shape[0], x.shape[1]))).T
    return out[0] if single else out


def _bias_unit(n):
    """The entry of the unit vector on the all-ones line of R^n: a hidden
    bias with coefficient c is ``_bias_unit(n) * c`` in every coordinate."""
    return 1.0 / np.sqrt(n)


class EquivariantNetwork:
    """Network over a fixed representation chain rho_0 ... rho_k.

    Hidden layer i's bias has one coefficient, ``bias_coeffs[i][0]``, on
    the unit vector ``_bias_unit(n) * (1, ..., 1)`` of the all-ones line.
    """

    def __init__(self, group, layer_reps, weight_bases, weight_coeffs, bias_coeffs,
                 activation):
        self.group = group
        self.layer_reps = list(layer_reps)
        self.weight_bases = list(weight_bases)
        self.weight_coeffs = [np.asarray(c, dtype=np.float64) for c in weight_coeffs]
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
        """Hidden bias vectors, each constant: ``_bias_unit(n) * c``."""
        return [np.full(n, _bias_unit(n) * c[0])
                for n, c in zip(self.widths[1:-1], self.bias_coeffs)]

    def copy(self):
        return EquivariantNetwork(
            self.group, self.layer_reps, self.weight_bases,
            [c.copy() for c in self.weight_coeffs],
            [c.copy() for c in self.bias_coeffs],
            self.activation,
        )

    # --- coefficient vector (flat) layout: see _interleave ---------

    def coefficient_vector(self):
        return np.concatenate(_interleave(self.weight_coeffs, self.bias_coeffs))

    def _view_coefficients(self, flat):
        """Make every coefficient array a view of the flat vector ``flat``,
        so that updating ``flat`` in place updates the network."""
        sizes = [c.size for c in _interleave(self.weight_coeffs, self.bias_coeffs)]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        self.weight_coeffs, self.bias_coeffs = parts[0::2], parts[1::2]

    # --- evaluation -------------------------------------------------

    def forward(self, v):
        return stack_forward(self.weights(), self.biases(), self.activation, v)

    # --- training ---------------------------------------------------

    def loss(self, data):
        return float(np.mean((self.forward(data.inputs) - data.targets) ** 2))

    def loss_grad(self, data):
        """Mean squared error and its gradient over all coefficients,
        flattened in the coefficient-vector layout: one run of a
        ``_Step`` planned for this network and ``data``.
        """
        step = _Step(self, data)
        return step.run(self.coefficient_vector()), step.grad

    def train(self, data, steps, learning_rate):
        """Full-batch gradient descent; returns (trained copy, history).

        history[t] is the loss evaluated at step t before the update.
        Coefficients-only updates cannot leave the intertwiner space, so
        equivariance is preserved at every step. The copy's coefficient
        arrays are views of one flat vector that each step updates in
        place, and every step runs one ``_Step`` planned up front, so
        the loop allocates no batch-sized array. A diverging run
        overflows before its loss is checked, so the steps run with
        numpy's overflow and invalid-value warnings off; the check
        raises ``DivergenceError``.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        check_learning_rate(learning_rate)
        net = self.copy()
        flat = net.coefficient_vector()
        net._view_coefficients(flat)
        history = np.empty(steps)
        step = _Step(net, data)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                mse = step.run(flat)
                if not np.isfinite(mse) or mse > 1e12:
                    raise DivergenceError(
                        f"loss {mse:.3e} at step {t}; use a smaller learning rate"
                    )
                history[t] = mse
                step.grad *= learning_rate
                flat -= step.grad
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


def check_learning_rate(learning_rate):
    """Reject a learning rate that is not finite and non-negative; a NaN
    one would pass a ``< 0`` test and poison the first update."""
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"learning rate must be finite and >= 0, got {learning_rate}")


def _affine_rows(basis):
    """Basis rows of a biased layer's ``[W | b]``, flattened to
    (dim + 1, n_out * (n_in + 1)): each basis matrix with a zero bias
    column, then the hidden bias's row, ``_bias_unit(n_out)`` in the bias
    column of every output row and zero elsewhere."""
    dim, n_out, n_in = basis.basis.shape
    rows = np.zeros((dim + 1, n_out, n_in + 1))
    rows[:dim, :, :n_in] = basis.basis
    rows[dim, :, n_in] = _bias_unit(n_out)
    return rows.reshape(dim + 1, -1)


class _Step:
    """One training step of ``net`` on ``data``, planned once and run at
    any coefficient vector in ``net``'s layout.

    The plan holds each layer's basis rows (``_affine_rows`` for a biased
    layer), a weight buffer that ``np.dot(c, rows, out=...)`` refills in
    place from the layer's coefficient slice, the layer inputs
    (``_layer_inputs``, with ``data.inputs.T`` copied in once) and a
    C-contiguous copy of the first one's transpose, the output and the
    hidden gradients, and ``grad``: one flat buffer in the
    coefficient-vector layout whose slices the projections write into. A
    run realizes no matrix through ``IntertwinerBasis.realize`` and
    allocates no batch-sized array.
    """

    def __init__(self, net, data):
        widths, hidden = net.widths, net.widths[1:-1]
        self.activation = net.activation
        self.rows = [_affine_rows(b) for b in net.weight_bases[:-1]]
        self.rows.append(net.weight_bases[-1].rows)
        self.ins = _layer_inputs(data.inputs.T, widths[:-1])
        self.targets = data.targets.T
        self.out = np.empty(self.targets.shape)
        self.deltas = [np.empty((n, len(data))) for n in hidden]
        self.weights = [np.empty((n, x.shape[0])) for n, x in zip(widths[1:], self.ins)]
        # the first input never changes, so ``g @ x.T`` reads a C-contiguous
        # copy of its transpose and skips BLAS's strided read (at batch 2000
        # and width 16 on a 2-core machine with OpenBLAS 0.3.31, 25 us
        # against 31 us)
        self.ins_t = [np.ascontiguousarray(self.ins[0].T)] + [x.T for x in self.ins[1:]]
        bounds = np.cumsum([0] + [rows.shape[0] for rows in self.rows])
        self.spans = list(zip(bounds[:-1], bounds[1:]))
        self.grad = np.empty(bounds[-1])
        self.grads = [self.grad[lo:hi] for lo, hi in self.spans]
        self.scale = 2.0 / self.out.size

    def run(self, coeffs):
        """Mean squared error at the coefficient vector ``coeffs``;
        ``grad`` receives its gradient.

        The loss is ``err @ err / size`` and the output gradient
        ``err * (2 / size)``, written over ``err``. Going back, a layer's
        gradient is the projection of ``g @ x.T`` (``[x; 1]`` for a
        biased layer, so its last column is the bias sum) and the step to
        the layer below is ``g = W.T @ g`` times the activation's slope.
        """
        for (lo, hi), rows, w in zip(self.spans, self.rows, self.weights):
            np.dot(coeffs[lo:hi], rows, out=w.reshape(-1))
        err = _forward(self.weights, self.activation, self.ins, self.out)
        err -= self.targets
        flat = err.reshape(-1)
        mse = float(np.dot(flat, flat) / flat.size)
        g = np.multiply(err, self.scale, out=err)
        for i in range(len(self.weights) - 1, -1, -1):
            np.dot(self.rows[i], (g @ self.ins_t[i]).reshape(-1), out=self.grads[i])
            if i:
                n = self.deltas[i - 1].shape[0]  # W.T without the bias column
                g = np.matmul(self.weights[i][:, :n].T, g, out=self.deltas[i - 1])
                # layer i - 1's activation is not read again, so it takes its slope
                h = self.ins[i][:n]
                g *= self.activation.slope(h, out=h)
        return mse


def _require_permutation_hidden(layer_reps):
    """Raise unless every hidden rep of the chain is a permutation rep
    (``is_permutation_rep``, read off the generators' data)."""
    for i in range(1, len(layer_reps) - 1):
        if not is_permutation_rep(layer_reps[i]):
            raise ValueError(
                f"hidden representation {i} is not a permutation "
                "representation; pointwise nonlinearities are only "
                "certified equivariant for permutation actions"
            )


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
    _require_permutation_hidden(layer_reps)
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

    bias_coeffs = [np.zeros(1) for _ in range(k - 1)]
    return EquivariantNetwork(group, layer_reps, weight_bases, weight_coeffs, bias_coeffs,
                              activation)


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
       only, through their data, with the vectors, residuals and
       ``trials`` cap of ``check_map_equivariance``. A residual above
       ``tol`` fails, and the witness is a generator, named by its
       element index: coverage ``generators (k of |G|)``;
    2. else, when ``_certified`` holds, the stack passes with the sweep's
       residual: coverage ``certificate (k generators)``;
    3. else ``check_map_equivariance``, exhaustive or sampled.
    """
    rep_in, rep_out = layer_reps[0], layer_reps[-1]
    group = rep_in.group

    def apply(x):
        return stack_forward(weights, biases, activation, x)

    report = _check_on_vectors(apply, rep_in, rep_out, (-1.0, 1.0), trials, seed, tol,
                               relative=True, generators=True)
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
    if any(rep.gen_arrays is None for rep in layer_reps):
        return False
    return (all(_commutes_at_generators(w, a, b).all()
                for w, a, b in zip(weights, layer_reps, layer_reps[1:]))
            and all(is_compatible(activation, b, rep, tol=0.0)
                    for b, rep in zip(biases, layer_reps[1:-1])))


def _commutes_at_generators(w, rep_in, rep_out):
    """Per generator g, whether ``w @ rho_in(g) == rho_out(g) @ w`` holds
    exactly, for signed permutation reps, read off their ``gen_arrays``.

    With rho(g) e_j = s_j e_{t_j}, the two sides agree at (t_out[i], j)
    iff w[t_out[i], t_in[j]] * s_out[i] * s_in[j] == w[i, j]. Sign
    flips are exact, so this is the dense products' equality (each of
    their entries has one nonzero term) at O(n_out * n_in) per generator.
    """
    (t_in, s_in), (t_out, s_out) = rep_in.gen_arrays, rep_out.gen_arrays
    return np.array([
        np.array_equal(w[t_out[k][:, None], t_in[k]] * (s_out[k][:, None] * s_in[k]), w)
        for k in range(len(t_in))
    ], dtype=bool)


def _check_on_vectors(apply, rep_in, rep_out, box, trials, seed, tol, relative,
                      generators=False):
    """The verifier behind every equivariance check.

    Draws ``trials`` seeded vectors v uniform in ``box`` = (low, high)
    and tests each against every generator when ``generators`` (acting
    through the reps' generator data, so no element is enumerated or
    walked, and naming each generator by its element index), else
    against every element when |G| <= EXHAUSTIVE_LIMIT, else against
    ``trials`` elements drawn from the same random generator.
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
    group = rep_in.group
    if generators:
        indices, names = np.arange(group.gen_count), group.generator_ids
        coverage = f"generators ({group.gen_count} of {group.order})"
    elif group.order <= EXHAUSTIVE_LIMIT:
        indices = names = np.arange(group.order)
        coverage = f"exhaustive ({group.order})"
    else:
        indices = names = rng.integers(0, group.order, size=trials)
        coverage = f"sampled ({trials} of {group.order})"
    step = max(1, _BLOCK_CELLS // (trials * width))
    worst = np.empty(indices.size)  # per tested element
    first = np.empty(indices.size, dtype=np.intp)  # its first near-worst vector
    for lo in range(0, indices.size, step):
        block = indices[lo:lo + step]
        moved = rep_in.act(block, vectors, generators).reshape(-1, rep_in.degree)
        lhs = np.asarray(apply(moved)).reshape(block.size, trials, -1)
        dev = np.abs(lhs - rep_out.act(block, base, generators)).max(axis=2) / scale
        e, i = np.unravel_index(np.argmax(dev), dev.shape)  # the first NaN, if any
        if np.isnan(dev[e, i]):
            return Report(False, float("nan"), (int(names[lo + e]), vectors[i].copy()), coverage)
        top = dev.max(axis=1)
        worst[lo:lo + block.size] = top
        first[lo:lo + block.size] = np.argmax(dev >= top[:, None] * (1.0 - WITNESS_SLACK),
                                              axis=1)
    peak = float(worst.max())
    if peak <= tol:
        return Report(True, peak, None, coverage)
    e = int(np.argmax(worst >= peak * (1.0 - WITNESS_SLACK)))
    return Report(False, peak, (int(names[e]), vectors[first[e]].copy()), coverage)


# --- model files -----------------------------------------------------------
#
# Line-oriented text; floats are %.17g so values round-trip exactly. A v2
# file, the only version save_model writes, holds the function the model
# declares and nothing else: the group, activation and rep specs, then per
# layer the weight matrix (and the bias vector of a hidden layer).
# `equikit check` verifies exactly those matrices, so an edit that breaks
# equivariance fails, and loading them solves no basis: the file means the
# same function whichever solver version reads it. A v1 file also carries
# each layer's basis coefficients (`weight-coeffs:`, `bias-coeffs:`), which
# depend on the solver's basis order; loading one still builds the network
# to check their counts against the solved bases and to report whether the
# declared matrices deviate from them (`LoadedModel.declared_matches`).

FORMAT_HEADER = "equikit model v2"
_FORMAT_VERSIONS = {"equikit model v1": 1, FORMAT_HEADER: 2}


def _fmt_floats(values):
    return " ".join(map("{:.17g}".format, np.asarray(values, dtype=np.float64).tolist()))


def save_model(net, path):
    """Write the function a network declares, its weight matrices and
    hidden biases, as a v2 model file. ``net`` is an EquivariantNetwork
    or a LoadedModel."""
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
    k = len(weights)
    lines = [FORMAT_HEADER, f"group: {net.group.spec}", f"activation: {net.activation}",
             f"layers: {k}"]
    lines += [f"rep: {rep.spec}" for rep in net.layer_reps]
    for i, w in enumerate(weights):
        lines.append(f"layer: {i + 1}")
        lines.append("weight-matrix: {} {}".format(*w.shape))
        lines += map(_fmt_floats, w)
        if i < k - 1:
            lines.append(f"bias-vector: {biases[i].size}")
            lines.append(_fmt_floats(biases[i]))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelFormatError(ValueError):
    """Model file failed to parse; message carries the offending line."""


@dataclass
class LoadedModel:
    """A parsed model file: the function it declares (group, rep chain,
    activation, weight matrices and hidden biases) and, for a v1 file,
    the network its coefficients realize."""

    group: object
    layer_reps: list
    activation: object
    declared_weights: list
    declared_biases: list
    network: EquivariantNetwork = None

    def weights(self):
        return self.declared_weights

    def biases(self):
        return self.declared_biases

    def declared_matches(self):
        """True when the declared matrices are within 1e-9 of the ones the
        file's coefficients realize; a v2 file has no coefficients."""
        if self.network is None:
            return True
        realized = _interleave(self.network.weights(), self.network.biases())
        declared = _interleave(self.declared_weights, self.declared_biases)
        return all(np.abs(a - b).max() <= 1e-9 for a, b in zip(realized, declared))


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
        """The ``count`` finite floats on the next line, parsed by one
        ``np.array`` call; only a line that fails is parsed token by token,
        to name its first bad token."""
        tokens = self.next().split()
        try:
            values = np.array(tokens, dtype=np.float64)
        except ValueError:
            for token in tokens:
                try:
                    float(token)
                except ValueError:
                    raise ModelFormatError(
                        f"line {self.at}: {token!r} is not a number"
                    ) from None
            raise
        if values.size != count:
            raise ModelFormatError(
                f"line {self.at}: expected {count} values, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise ModelFormatError(f"line {self.at}: values must be finite")
        return values


def load_model(path):
    """Read a model file into a LoadedModel.

    A v2 file is parsed as written: its group, reps and declared
    matrices, with hidden reps held to ``build``'s permutation rule and
    no basis solved. A v1 file is also built (``build``, seed 0) and its
    coefficients are read into that network, after their counts are
    checked against the solved bases.
    """
    r = _Reader(path)
    version = _FORMAT_VERSIONS.get(r.next())
    if version is None:
        raise ModelFormatError("not an equikit model file")
    group = group_from_spec(r.expect("group:"))
    activation = parse_activation(r.expect("activation:"))
    (k,) = r.ints("layers:")
    if k < 1:
        raise ModelFormatError("layer count must be >= 1")
    reps = parse_rep_chain(group, (r.expect("rep:") for _ in range(k + 1)))
    if version == 1:
        net = build(group, reps, activation, seed=0)
    else:
        net = None
        _require_permutation_hidden(reps)
    declared_weights = []
    declared_biases = []
    for i in range(k):
        r.expect("layer:")
        if net is not None:
            _read_coefficients(r, net, i)
        rows, cols = r.ints("weight-matrix:", 2)
        if (rows, cols) != (reps[i + 1].degree, reps[i].degree):
            raise ModelFormatError(f"layer {i + 1}: weight matrix shape mismatch")
        w = np.empty((rows, cols))
        for row in w:
            row[:] = r.floats(cols)
        declared_weights.append(w)
        if i < k - 1:
            (nb,) = r.ints("bias-vector:")
            if nb != reps[i + 1].degree:
                raise ModelFormatError(f"layer {i + 1}: bias length mismatch")
            declared_biases.append(r.floats(nb))
    if r.next() != "end":
        raise ModelFormatError("missing end marker")
    return LoadedModel(group, reps, activation, declared_weights, declared_biases, net)


def _read_coefficients(r, net, i):
    """Read layer ``i``'s v1 coefficient lines into ``net``, checking
    each count against the built network's basis dimension."""
    (d,) = r.ints("weight-coeffs:")
    if d != net.weight_bases[i].dim:
        raise ModelFormatError(
            f"layer {i + 1}: file has {d} weight coefficients but the "
            f"basis dimension is {net.weight_bases[i].dim}"
        )
    net.weight_coeffs[i] = r.floats(d)
    if i < net.k - 1:
        (db,) = r.ints("bias-coeffs:")
        if db != 1:
            raise ModelFormatError(
                f"layer {i + 1}: file has {db} bias coefficients but the "
                "bias space dimension is 1"
            )
        net.bias_coeffs[i] = r.floats(db)
