"""Equivariant feed-forward networks in intertwiner coordinates.

A network is k layers alternating with pointwise activations. A hidden
layer is the affine map ``x -> W x + b``, which is the linear map
``[W | b]`` on ``[x; 1]``, from rho_in + trivial to rho_out; the last
layer is W alone and carries no activation. Each W is a linear
combination over an intertwiner basis, and each b lies on the
all-coordinates-equal line (the threshold form), which every
permutation representation fixes: it is one coefficient c on the unit
vector of that line, ``_bias_unit(n) * c`` in every coordinate, so the
network keeps no bias basis. Because the trainable parameters are
coefficients, every realized layer is equivariant by construction and
stays so under any coefficient update.

The layer ``[W | b]`` is the one form from build to check.
``EquivariantNetwork`` keeps one flat coefficient vector, and layer i's
coefficients are the slice ``spans[i]``: its basis coefficients, then a
hidden layer's bias coefficient. ``layers()`` realizes each span,
``save_model`` writes W and b from it, ``load_model`` reads them back
into one array, and the check reads it whole. ``_forward`` is the one
forward pass for training, evaluation and the check: the input of each
hidden layer carries a constant ones row under its n rows, and one
product makes ``W @ x + b``.

Batches run feature-major: every activation, buffer and gradient is a
(width, batch) array, so BLAS takes its untransposed path with the batch
as the long contiguous axis, which at the small widths of these networks
is most of a step's cost. ``Dataset`` stores its arrays column-major, so
training reads their transposes as C-contiguous views;
``stack_forward`` takes and returns (batch, width) rows through
transposed views.

Every layer is realized and projected through per-entry terms
(``IntertwinerBasis.terms``). A network keeps each layer's basis in
``layer_bases``: a hidden layer's is the basis of ``[W | b]`` from
rho_in + trivial, W's terms with one more beside them in the ones
column of every output row, the bias's (id ``dim``, value
``_bias_unit(n_out)``). ``layers()`` realizes each span through it, and
so does training, which never scatters a dense basis.

Training runs one planned step, ``_Step``, built once per network and
dataset and shared by ``loss_grad`` and ``train``. The plan copies the
inputs once under a ones row. A step realizes each layer from its span,
and one ``project`` of ``g @ [x; 1].T`` (a gather's adjoint, one
``np.bincount``) writes the weight and the bias gradient into the span
of one flat gradient buffer: the products make the bias add and the
bias sum. A step so allocates no batch-sized array and concatenates
nothing.

A network's stack (``check_stack_equivariance``, behind ``equikit check``)
is checked at the generators first: by the homomorphism property, a map
that commutes with every generator commutes with all of G, so every
failure over G shows at some generator. A stack that passes there and
whose layers commute exactly with the generators (``_certified``, no
tolerance) passes: for ``[W | b]``, rho_in + trivial gives the ones row
a fixed coordinate, so the one test says both that W is an intertwiner
and that b is fixed, which with permutation hidden reps makes the
pointwise activation commute. Built and trained models are certified,
since each realized entry has one nonzero term. Both steps read the
reps' generator data only, so neither enumerates the group. Only a
stack that is neither refuted nor certified gets the element sweep of
``check_map_equivariance``.

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

from .activations import Report, parse_activation
from .groups import _check_fits, group_from_spec
from .intertwiners import IntertwinerBasis, solve_basis
from .numerics import check_tol
from .reps import direct_sum, is_permutation_rep, parse_rep_chain, trivial_rep


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


def _layer_inputs(x, cols):
    """Each layer's (cols, batch) input buffer for the feature-major batch
    ``x``, given each layer's column count: a hidden layer's input (every
    layer's but the last) has one more row than its width, a constant
    ones row at the bottom. ``x`` is copied into the first buffer; a
    one-layer stack reads ``x`` itself."""
    if len(cols) == 1:
        return [x]
    ins = [np.empty((n, x.shape[1])) for n in cols]
    ins[0][:-1] = x
    for buf in ins[:-1]:
        buf[-1] = 1.0
    return ins


def _forward(layers, activation, ins, out):
    """Run the stack on feature-major layer inputs ``ins`` (see
    ``_layer_inputs``): ``ins[0]`` holds the batch, and layer i writes its
    activation into the first rows of ``ins[i + 1]``, computed in place
    over its pre-activation. Returns ``out``, which receives the last
    layer's (n_k, batch) output.

    A hidden layer is ``[W | b]`` and its input has a ones row below, so
    one product makes ``W @ x + b``.
    """
    for a, x, h in zip(layers, ins, ins[1:]):
        h = h[:a.shape[0]]  # the ones row below stays
        activation.scalar(np.matmul(a, x, out=h), out=h)
    return np.matmul(layers[-1], ins[-1], out=out)


def stack_forward(layers, activation, x):
    """Apply the stack ``[A_k] sigma [A_{k-1} | b_{k-1}] ... sigma [A_1 | b_1]``
    to a vector or to each row of a (batch, n_in) array.

    The rows go in as the transposed view, under a ones row, and the
    (batch, n_out) result is the transposed view of the feature-major
    output.
    """
    h = np.asarray(x, dtype=np.float64)
    single = h.ndim == 1
    x = (h[None, :] if single else h).T
    ins = _layer_inputs(x, [a.shape[1] for a in layers])
    out = _forward(layers, activation, ins, np.empty((layers[-1].shape[0], x.shape[1]))).T
    return out[0] if single else out


def _bias_unit(n):
    """The entry of the unit vector on the all-ones line of R^n: a hidden
    bias with coefficient c is ``_bias_unit(n) * c`` in every coordinate."""
    return 1.0 / np.sqrt(n)


class EquivariantNetwork:
    """Network over a fixed representation chain rho_0 ... rho_k, with
    one flat coefficient vector ``coeffs``.

    Layer i's coefficients are ``coeffs[spans[i]]``: its basis
    coefficients and, for a hidden layer, its bias coefficient last, on
    the unit vector ``_bias_unit(n) * (1, ..., 1)`` of the all-ones line.
    ``layer_bases[i]`` is the basis they realize: ``weight_bases[i]`` for
    the last layer, and for a hidden one the basis of ``[W | b]`` over
    rho_in + trivial, with the bias's term last in each output row.
    """

    def __init__(self, group, layer_reps, weight_bases, coeffs, activation):
        self.group = group
        self.layer_reps = list(layer_reps)
        self.weight_bases = list(weight_bases)
        self.activation = activation
        self.layer_bases, self.spans, lo = [], [], 0
        for i, basis in enumerate(self.weight_bases):
            if i < self.k - 1:
                # [W | b] from rho_in + trivial: W's terms beside the ones
                # column, whose first term is the bias's, id dim and value
                # _bias_unit(n_out); a zeroed entry's id moves to dim + 1
                n_out, n_in, dim = basis.rep_out.degree, basis.rep_in.degree, basis.dim
                ids, values = (t.reshape(n_out, n_in, -1) for t in basis.terms)
                k = ids.shape[2]
                shape = (n_out, n_in + 1, max(k, 1))  # a dense dim-0 W has no terms
                affine_ids, affine_values = np.full(shape, dim + 1), np.zeros(shape)
                affine_ids[:, :n_in, :k] = ids + (ids == dim)
                affine_values[:, :n_in, :k] = values
                affine_ids[:, n_in, 0], affine_values[:, n_in, 0] = dim, _bias_unit(n_out)
                terms = (affine_ids.reshape(-1, shape[2]), affine_values.reshape(-1, shape[2]))
                basis = IntertwinerBasis(direct_sum([basis.rep_in, trivial_rep(group)]),
                                         basis.rep_out, dim + 1, terms)
            self.layer_bases.append(basis)
            self.spans.append(slice(lo, lo + basis.dim))
            lo += basis.dim
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if self.coeffs.shape != (lo,):
            raise ValueError(f"expected {lo} coefficients, got {self.coeffs.shape}")

    @property
    def k(self):
        return len(self.weight_bases)

    @property
    def widths(self):
        return [r.degree for r in self.layer_reps]

    def layers(self):
        """Realized layers, each by its ``layer_bases`` entry: ``[W | b]``
        for a hidden layer and W for the last, with W = sum_j c_j basis_j
        and b = ``_bias_unit(n) * c_b`` in every coordinate."""
        return [basis.realize(self.coeffs[span])
                for basis, span in zip(self.layer_bases, self.spans)]

    def copy(self):
        return EquivariantNetwork(self.group, self.layer_reps, self.weight_bases,
                                  self.coeffs.copy(), self.activation)

    # --- evaluation -------------------------------------------------

    def forward(self, v):
        return stack_forward(self.layers(), self.activation, v)

    # --- training ---------------------------------------------------

    def loss(self, data):
        return float(np.mean((self.forward(data.inputs) - data.targets) ** 2))

    def loss_grad(self, data):
        """Mean squared error and its gradient over ``coeffs``: one run of
        a ``_Step`` planned for this network and ``data``.
        """
        step = _Step(self, data)
        return step.run(self.coeffs), step.grad

    def train(self, data, steps, learning_rate):
        """Full-batch gradient descent; returns (trained copy, history).

        history[t] is the loss evaluated at step t before the update.
        Coefficients-only updates cannot leave the intertwiner space, so
        equivariance is preserved at every step. Each step runs one
        ``_Step`` planned up front and updates the copy's ``coeffs`` in
        place, so the loop allocates no batch-sized array. A diverging
        run overflows before its loss is checked, so the steps run with
        numpy's overflow and invalid-value warnings off; the check
        raises ``DivergenceError``.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        check_learning_rate(learning_rate)
        net = self.copy()
        history = np.empty(steps)
        step = _Step(net, data)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                mse = step.run(net.coeffs)
                if not np.isfinite(mse) or mse > 1e12:
                    raise DivergenceError(
                        f"loss {mse:.3e} at step {t}; use a smaller learning rate"
                    )
                history[t] = mse
                step.grad *= learning_rate
                net.coeffs -= step.grad
        return net, history

    def count_parameters(self):
        """Trainable-coefficient count next to the dense count.

        The dense figure is sum_i n_{i-1} n_i weights plus one bias per
        hidden width, i.e. the unconstrained network of the same shape.
        """
        widths = self.widths
        dense = sum(widths[i] * widths[i + 1] for i in range(self.k))
        dense += sum(widths[i] for i in range(1, self.k))
        return ParameterCount(self.coeffs.size, dense)


def check_learning_rate(learning_rate):
    """Reject a learning rate that is not finite and non-negative; a NaN
    one would pass a ``< 0`` test and poison the first update."""
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"learning rate must be finite and >= 0, got {learning_rate}")


class _Step:
    """One training step of ``net`` on ``data``, planned once and run at
    any coefficient vector in ``net``'s layout (``net.spans``).

    The plan holds each layer's basis (``net.layer_bases``, over
    rho_in + trivial for a hidden layer), the layer inputs
    (``_layer_inputs``, with ``data.inputs.T`` copied in once) and a
    C-contiguous copy of the first one's transpose, the output and the
    hidden gradients, and ``grad``: one flat buffer in the coefficient
    layout whose spans the projections write into. A run realizes each
    layer from its span and allocates no batch-sized array.
    """

    def __init__(self, net, data):
        self.activation = net.activation
        self.bases = net.layer_bases
        self.ins = _layer_inputs(data.inputs.T, [b.rep_in.degree for b in self.bases])
        self.targets = data.targets.T
        self.out = np.empty(self.targets.shape)
        self.deltas = [np.empty((n, len(data))) for n in net.widths[1:-1]]
        # the first input never changes, so ``g @ x.T`` reads a C-contiguous
        # copy of its transpose and skips BLAS's strided read (at batch 2000
        # and width 16 on a 2-core machine with OpenBLAS 0.3.31, 25 us
        # against 31 us)
        self.ins_t = [np.ascontiguousarray(self.ins[0].T)] + [x.T for x in self.ins[1:]]
        self.spans = net.spans
        self.grad = np.empty(net.coeffs.size)
        self.scale = 2.0 / self.out.size

    def run(self, coeffs):
        """Mean squared error at the coefficient vector ``coeffs``;
        ``grad`` receives its gradient.

        The loss is ``err @ err / size`` and the output gradient
        ``err * (2 / size)``, written over ``err``. Going back, a layer's
        gradient is ``project`` of ``g @ x.T`` (``[x; 1]`` for a hidden
        layer, so its last column is the bias sum) and the step to the
        layer below is ``g = W.T @ g`` times the activation's slope.
        """
        layers = [b.realize(coeffs[span]) for b, span in zip(self.bases, self.spans)]
        err = _forward(layers, self.activation, self.ins, self.out)
        err -= self.targets
        flat = err.reshape(-1)
        mse = float(np.dot(flat, flat) / flat.size)
        g = np.multiply(err, self.scale, out=err)
        for i in range(len(layers) - 1, -1, -1):
            self.grad[self.spans[i]] = self.bases[i].project(g @ self.ins_t[i])
            if i:
                n = self.deltas[i - 1].shape[0]  # W.T without the bias column
                g = np.matmul(layers[i][:, :n].T, g, out=self.deltas[i - 1])
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
    coeffs = []
    for i, basis in enumerate(weight_bases):
        c = rng.standard_normal(basis.dim)
        a = basis.realize(c)
        fro = np.sqrt((a * a).sum())
        if fro > 0:
            c *= np.sqrt(2.0 / layer_reps[i].degree) / fro
        coeffs.append(c)
        if i < k - 1:
            coeffs.append(np.zeros(1))
    return EquivariantNetwork(group, layer_reps, weight_bases, np.concatenate(coeffs),
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


def check_stack_equivariance(layers, activation, layer_reps, trials=8, seed=0, tol=1e-8):
    """Check the stack ``stack_forward(layers, activation, .)`` over the
    rep chain ``layer_reps``, in three steps:

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
        return stack_forward(layers, activation, x)

    report = _check_on_vectors(apply, rep_in, rep_out, (-1.0, 1.0), trials, seed, tol,
                               relative=True, generators=True)
    if not report.passed:
        return report
    if _certified(layers, layer_reps):
        report.coverage = f"certificate ({group.gen_count} generators)"
        return report
    return check_map_equivariance(apply, rep_in, rep_out, trials=trials, seed=seed, tol=tol)


def _certified(layers, layer_reps):
    """True when the stack is exactly equivariant by an algebraic
    certificate: every layer rep is a signed permutation rep, every
    hidden rep a permutation rep (so the pointwise activation commutes),
    and every layer is finite and commutes exactly with every generator
    (``_commutes_at_generators``; for ``[W | b]`` that says W is an
    intertwiner and b is fixed). Generators suffice by the homomorphism
    property."""
    if any(rep.gen_arrays is None for rep in layer_reps):
        return False
    return (all(is_permutation_rep(rep) for rep in layer_reps[1:-1])
            and all(np.isfinite(a).all() and _commutes_at_generators(a, rep_in, rep_out).all()
                    for a, rep_in, rep_out in zip(layers, layer_reps, layer_reps[1:])))


def _commutes_at_generators(a, rep_in, rep_out):
    """Per generator g, whether ``a @ rho_in(g) == rho_out(g) @ a`` holds
    exactly, for signed permutation reps, read off their ``gen_arrays``.
    A hidden layer ``a = [W | b]`` maps rho_in + trivial (``direct_sum``:
    one more coordinate, the ones row, with target n_in and sign +1), so
    its bias column holds iff rho_out fixes b.

    With rho(g) e_j = s_j e_{t_j}, the two sides agree at (t_out[i], j)
    iff a[t_out[i], t_in[j]] * s_out[i] * s_in[j] == a[i, j]. Sign
    flips are exact, so this is the dense products' equality (each of
    their entries has one nonzero term) at O(n_out * n_in) per generator.
    """
    if a.shape[1] > rep_in.degree:
        rep_in = direct_sum([rep_in, trivial_rep(rep_in.group)])
    (t_in, s_in), (t_out, s_out) = rep_in.gen_arrays, rep_out.gen_arrays
    return np.array([
        np.array_equal(a[t_out[k][:, None], t_in[k]] * (s_out[k][:, None] * s_in[k]), a)
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
    float64 (``groups._check_fits``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_tol(tol)
    width = max(rep_in.degree, rep_out.degree)
    _check_fits(f"{trials} trials of degree {width}", trials, width * 8)
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
# Line-oriented text; floats are %.17g so values round-trip exactly. A
# file holds the function the model declares and nothing else: the group,
# activation and rep specs, then per layer the weight matrix (and the bias
# vector of a hidden layer), and the end marker as its last line.
# `equikit check` verifies exactly those matrices, so an edit that breaks
# equivariance fails, and loading them solves no basis: the file means the
# same function whichever solver version reads it. Version 1 files, which
# also carried basis coefficients whose meaning depended on the solver's
# basis order, are refused.

FORMAT_HEADER = "equikit model v2"


def _fmt_floats(values):
    return " ".join(map("{:.17g}".format, np.asarray(values, dtype=np.float64).tolist()))


def save_model(net, path):
    """Write the function a network declares, its layers, as a v2 model
    file: each layer's weight matrix and, for a hidden layer, its bias
    vector (the last column of ``[W | b]``). ``net`` is an
    EquivariantNetwork or a LoadedModel."""
    for rep in net.layer_reps:
        if rep.spec is None:
            raise ValueError(
                "model serialization needs representations built from "
                "spec strings"
            )
    if net.group.spec is None:
        raise ValueError("model serialization needs a named group")
    layers = net.layers()
    k = len(layers)
    lines = [FORMAT_HEADER, f"group: {net.group.spec}", f"activation: {net.activation}",
             f"layers: {k}"]
    lines += [f"rep: {rep.spec}" for rep in net.layer_reps]
    for i, a in enumerate(layers):
        n_out, n_in = a.shape[0], net.layer_reps[i].degree
        lines.append(f"layer: {i + 1}")
        lines.append(f"weight-matrix: {n_out} {n_in}")
        lines += map(_fmt_floats, a[:, :n_in])
        if i < k - 1:
            lines.append(f"bias-vector: {n_out}")
            lines.append(_fmt_floats(a[:, n_in]))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelFormatError(ValueError):
    """Model file failed to parse; message carries the offending line."""


@dataclass
class LoadedModel:
    """A parsed model file: the function it declares, and nothing else
    (group, rep chain, activation and layers, ``[W | b]`` for a hidden
    layer)."""

    group: object
    layer_reps: list
    activation: object
    declared_layers: list

    def layers(self):
        return self.declared_layers


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
    """Read a model file into a LoadedModel, parsed as written: its
    group, reps and declared matrices, with hidden reps held to
    ``build``'s permutation rule and no basis solved. A version 1 file is
    refused before anything else is read, and so is any line after the
    end marker or a ``layer:`` line whose number is not the layer's
    position.
    """
    r = _Reader(path)
    header = r.next()
    if header == "equikit model v1":
        raise ModelFormatError("equikit model v1 files are no longer read; rebuild the "
                               f"model and save it again as {FORMAT_HEADER}")
    if header != FORMAT_HEADER:
        raise ModelFormatError("not an equikit model file")
    group = group_from_spec(r.expect("group:"))
    activation = parse_activation(r.expect("activation:"))
    (k,) = r.ints("layers:")
    if k < 1:
        raise ModelFormatError("layer count must be >= 1")
    reps = parse_rep_chain(group, (r.expect("rep:") for _ in range(k + 1)))
    _require_permutation_hidden(reps)
    layers = []
    for i in range(k):
        (n,) = r.ints("layer:")
        if n != i + 1:
            raise ModelFormatError(f"line {r.at}: expected layer {i + 1}, got {n}")
        rows, cols = r.ints("weight-matrix:", 2)
        if (rows, cols) != (reps[i + 1].degree, reps[i].degree):
            raise ModelFormatError(f"layer {i + 1}: weight matrix shape mismatch")
        hidden = i < k - 1
        a = np.empty((rows, cols + hidden))  # [W | b] for a hidden layer
        for row in a[:, :cols]:
            row[:] = r.floats(cols)
        if hidden:
            (nb,) = r.ints("bias-vector:")
            if nb != rows:
                raise ModelFormatError(f"layer {i + 1}: bias length mismatch")
            a[:, cols] = r.floats(nb)
        layers.append(a)
    if r.next() != "end":
        raise ModelFormatError("missing end marker")
    if r.at < len(r.lines):
        raise ModelFormatError(f"line {r.at + 1}: content after the end marker")
    return LoadedModel(group, reps, activation, layers)
