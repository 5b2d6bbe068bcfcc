"""Span tracer that wraps equikit's public functions from outside the package.

``Tracer.install`` replaces every public function and public method of
the layer modules with a wrapper that records a span: name, parent span
id, start and end. A function is replaced at every place it is bound,
because modules import each other's functions by name (``cli`` and
``network`` import ``solve_basis``, ``build``, ``load_model`` and
``parse_rep_spec``; ``intertwiners`` and ``reps`` import ``nullspace``),
so patching the defining module alone would miss those calls.
``uninstall`` restores the originals.

Spans stay in memory; the caller writes them out when the run ends.
Some spans also carry counts computed from the call's arguments and
result (flops, constraint cells, bytes of stored images). Computed
counts depend only on the inputs, so they repeat exactly from run to run.
"""

import functools
import inspect
import sys
import time

import numpy as np

# The package's modules, which are the benchmark's layers.
LAYERS = ("groups", "reps", "intertwiners", "numerics", "kernels",
          "activations", "network", "tasks", "config", "cli")

MIB = 2.0 ** 20


def _row_echelon_counts(args, kwargs, result):
    # Per pivot at rank r in column c, the elimination divides m-r-1
    # entries and updates an (m-r-1) x (n-c-1) block (multiply + subtract).
    m, n = args[0].shape
    pivots, rank = result
    below = m - 1 - np.arange(rank)
    flops = int((below + 2 * below * (n - 1 - pivots)).sum())
    scanned = n if rank < m else int(pivots[-1]) + 1
    return {"flops": flops, "rank": rank, "scanned": scanned}


def _orthonormal_rows_counts(args, kwargs, result):
    return {"rows": args[0].shape[0], "kept": result[1]}


def _solve_basis_counts(args, kwargs, result):
    rep_in, rep_out = args[0], args[1]
    cols = rep_in.degree * rep_out.degree
    return {"constraint_cells": rep_in.group.gen_count * cols * cols,
            "basis_dim": result.dim}


def _close_counts(args, kwargs, result):
    return {"products": result.order * result.gen_count,
            "elements_mb": result.order * result.dim ** 2 * 8 / MIB}


def _extend_counts(args, kwargs, result):
    return {"images_mb": result.group.order * result.degree ** 2 * 8 / MIB}


def _check_counts(args, kwargs, result):
    network = sys.modules["equikit.network"]
    call = inspect.signature(network.check_map_equivariance).bind(*args, **kwargs)
    call.apply_defaults()
    order = call.arguments["rep_in"].group.order
    tested = order if order <= network.EXHAUSTIVE_LIMIT else call.arguments["trials"]
    return {"elements": tested, "order": order}


def _train_counts(args, kwargs, result):
    return {"steps": args[2] if len(args) > 2 else kwargs["steps"]}


COUNTERS = {
    "kernels.row_echelon": _row_echelon_counts,
    "kernels.orthonormal_rows": _orthonormal_rows_counts,
    "intertwiners.solve_basis": _solve_basis_counts,
    "groups.close": _close_counts,
    "reps.extend": _extend_counts,
    "network.check_map_equivariance": _check_counts,
    "network.EquivariantNetwork.train": _train_counts,
}


class Tracer:
    """Records spans as lists ``[name, parent, start, end, counts]``; a
    span's id is its index in ``spans`` and ``parent`` is -1 at the root."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "equikit" or name.startswith("equikit.")]
        for layer in LAYERS:
            module = sys.modules[f"equikit.{layer}"]
            # original function id -> {name bound in the layer: wrapper}
            wrappers = {}
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
                elif callable(obj):
                    wrappers.setdefault(id(obj), {})[attr] = self._wrap(f"{layer}.{attr}", obj)
            for owner in modules:
                for attr, obj in list(vars(owner).items()):
                    byname = wrappers.get(id(obj))
                    if byname:
                        self._patch(owner, attr, byname.get(attr, next(iter(byname.values()))))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_times(spans, lo, hi):
    """Per-name totals over ``spans[lo:hi]``: calls, inclusive seconds,
    self seconds (duration minus the time its child spans cover) and
    summed counts."""
    child = {}
    for _, parent, start, end, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent] = child.get(parent, 0.0) + (end - start)
    totals = {}
    for sid in range(lo, hi):
        name, _, start, end, counts = spans[sid]
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += (end - start) - child.get(sid, 0.0)
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


# Per-layer metrics: (metric, span name or names, field of span_times,
# unit, note). "self" marks self time; "computed" marks a count derived
# from call arguments and results rather than measured.
LAYER_METRICS = (
    ("cli.main.s", "cli.main", "s", "s", ""),
    ("config.parse_config.s", "config.parse_config", "s", "s", ""),
    ("groups.close.s", "groups.close", "s", "s", ""),
    ("groups.close.calls", "groups.close", "calls", "count", ""),
    ("groups.close.products", "groups.close", "products", "count", "computed"),
    ("groups.elements_mb", "groups.close", "elements_mb", "MiB", "computed"),
    ("reps.extend.s", "reps.extend", "s", "s", ""),
    ("reps.extend.calls", "reps.extend", "calls", "count", ""),
    ("reps.images_mb", "reps.extend", "images_mb", "MiB", "computed"),
    ("reps.is_permutation_rep.s", "reps.is_permutation_rep", "s", "s", ""),
    ("intertwiners.solve_basis.s", "intertwiners.solve_basis", "self_s", "s", "self"),
    ("intertwiners.solve_basis.calls", "intertwiners.solve_basis", "calls", "count", ""),
    ("intertwiners.constraint_cells", "intertwiners.solve_basis", "constraint_cells",
     "count", "computed"),
    ("intertwiners.basis_dim", "intertwiners.solve_basis", "basis_dim", "count", ""),
    ("intertwiners.realize.s", "intertwiners.IntertwinerBasis.realize", "s", "s", ""),
    ("intertwiners.realize.calls", "intertwiners.IntertwinerBasis.realize", "calls",
     "count", ""),
    ("numerics.nullspace.s", "numerics.nullspace", "self_s", "s", "self"),
    ("kernels.row_echelon.s", "kernels.row_echelon", "s", "s", ""),
    ("kernels.row_echelon.calls", "kernels.row_echelon", "calls", "count", ""),
    ("kernels.row_echelon.flops", "kernels.row_echelon", "flops", "count", "computed"),
    ("kernels.orthonormal_rows.s", "kernels.orthonormal_rows", "s", "s", ""),
    ("activations.scalar.s", "activations.ActivationSpec.scalar", "s", "s", ""),
    ("activations.derivative.s", "activations.ActivationSpec.derivative", "s", "s", ""),
    ("activations.calls", ("activations.ActivationSpec.scalar",
                           "activations.ActivationSpec.derivative"), "calls", "count", ""),
    ("network.train.s", "network.EquivariantNetwork.train", "self_s", "s", "self"),
    ("network.train.steps", "network.EquivariantNetwork.train", "steps", "count", ""),
    ("network.build.s", "network.build", "s", "s", ""),
    ("network.save_model.s", "network.save_model", "s", "s", ""),
    ("network.load_model.s", "network.load_model", "self_s", "s", "self"),
    ("network.check.s", "network.check_map_equivariance", "s", "s", ""),
    ("network.check.elements", "network.check_map_equivariance", "elements",
     "count", "computed"),
    ("tasks.com_dataset.s", "tasks.com_dataset", "s", "s", ""),
)

# Ratios of two summed fields of one span name: (metric, span, numerator,
# denominator, note). A ratio over no calls reads 0.
LAYER_RATIOS = (
    ("kernels.row_echelon.pivot_yield", "kernels.row_echelon", "rank", "scanned", ""),
    ("kernels.orthonormal_rows.kept_ratio", "kernels.orthonormal_rows", "kept", "rows", ""),
    ("network.check.coverage", "network.check_map_equivariance", "elements", "order",
     "computed"),
)


def layer_units():
    """Metric name -> (unit, note) for every per-layer metric."""
    units = {name: (unit, note) for name, _, _, unit, note in LAYER_METRICS}
    units.update((name, ("ratio", note)) for name, _, _, _, note in LAYER_RATIOS)
    return units


def layer_metrics(totals):
    """Per-layer metric values from one cycle's ``span_times``."""
    def field(spans, key):
        names = (spans,) if isinstance(spans, str) else spans
        return sum(totals.get(name, {}).get(key, 0) for name in names)

    values = {name: field(spans, key) for name, spans, key, _, _ in LAYER_METRICS}
    for name, span, num, den, _ in LAYER_RATIOS:
        d = field(span, den)
        values[name] = field(span, num) / d if d else 0.0
    return values
