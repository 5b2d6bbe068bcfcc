"""Command-line interface.

Subcommands: ``basis`` (intertwiner dimensions for a config's rep
chain), ``check`` (equivariance report for a saved model, exit 1 on
failure), ``train`` (toy tasks), ``count`` (structured parameter
formulas) and ``demo`` (golden worked examples). Exit codes: 0 pass,
1 failed check, 2 malformed input.
"""

import argparse
import functools
import sys

import numpy as np

from .activations import ActivationSpec, apply_pointwise, parse_activation
from .config import ConfigError, parse_config
from .groups import group_from_spec
from .intertwiners import solve_basis
from .network import build, check_stack_equivariance, load_model, save_model
# parse_rep_spec stays bound here for perfbench, whose self-test checks
# that the tracer wraps it in this module
from .reps import parse_rep_chain, parse_rep_spec  # noqa: F401
from .structured import param_count
from .tasks import (
    check_antisymmetry,
    com_dataset,
    decolor,
    flip,
    random_image,
    read_image,
    slater_wavefunction,
    write_image,
)

# Defaults matched to the center-of-mass study: a deep-sets chain with a
# near-linear tanh regime trains to < 1e-3 test mse well inside 10k steps.
TRAIN_DEFAULTS = {"steps": 10000, "lr": 0.2, "train_samples": 2000, "test_samples": 500}


def _fmt(x, exact):
    return f"{x:.17g}" if exact else f"{x:.6g}"


def _fmt_vec(v, exact=False):
    return "(" + ", ".join(_fmt(x, exact) for x in v) + ")"


def _fmt_pm(v):
    return "(" + ", ".join("+1" if x > 0 else "-1" for x in v) + ")"


def _load_chain(path):
    cfg = parse_config(path)
    group = group_from_spec(cfg.group_spec)
    try:
        reps = parse_rep_chain(group, cfg.rep_specs)
    except ValueError as exc:
        raise ConfigError(f"reps: {exc}") from exc
    return cfg, group, reps


def cmd_basis(args):
    cfg, group, reps = _load_chain(args.config)
    print(f"group {cfg.group_spec} (order {group.order})")
    boundaries = range(1, len(reps))
    if args.layer is not None:
        if not 1 <= args.layer < len(reps):
            raise ConfigError(f"--layer must be in 1..{len(reps) - 1}")
        boundaries = [args.layer]
    for i in boundaries:
        basis = solve_basis(reps[i - 1], reps[i])
        print(
            f"layer {i}: {cfg.rep_specs[i - 1]} ({reps[i - 1].degree}) -> "
            f"{cfg.rep_specs[i]} ({reps[i].degree}), intertwiner dim {basis.dim}"
        )
        if args.print:
            for j in range(basis.dim):
                print(f"  basis element {j}:")
                for row in basis.basis[j]:
                    print("    " + " ".join(_fmt(x, args.exact) for x in row))
    return 0


def cmd_check(args):
    loaded = load_model(args.model)
    # the report validates --trials and --tol, so a rejected run prints nothing
    report = check_stack_equivariance(
        loaded.declared_weights, loaded.declared_biases, loaded.activation,
        loaded.layer_reps, trials=args.trials, seed=args.seed, tol=args.tol,
    )
    print(f"model {args.model}")
    print(
        f"group {loaded.group.spec}, layers {len(loaded.declared_weights)}, "
        f"activation {loaded.activation}"
    )
    if not loaded.declared_matches():
        print("note: declared weight matrices deviate from the coefficients; "
              "checking the declared function")
    print(f"coverage {report.coverage}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"residual {report.max_residual:.3e} (tol {args.tol:g}): {verdict}")
    if not report.passed:
        g, v = report.witness
        print(f"witness element {g}, v = {_fmt_vec(v, args.exact)}")
        return 1
    return 0


def cmd_train(args):
    if args.task != "center-of-mass":
        raise ConfigError(f"unknown task {args.task!r}")
    group = group_from_spec(f"symmetric:{args.m}")
    reps = parse_rep_chain(group, ["tensor:3(defining)", "tensor:3(defining)", "trivial:3"])
    activation = parse_activation(args.activation)
    net = build(group, reps, activation, seed=args.seed)
    train_data = com_dataset(args.m, args.train_samples, seed=args.seed)
    test_data = com_dataset(args.m, args.test_samples, seed=args.seed + 1)
    trained, history = net.train(train_data, args.steps, args.lr)
    counts = trained.count_parameters()
    print(f"task center-of-mass, m {args.m}, chain "
          "tensor:3(defining) -> tensor:3(defining) -> trivial:3")
    print(f"steps {args.steps}, learning rate {_fmt(args.lr, args.exact)}, "
          f"seed {args.seed}")
    print(f"train mse {_fmt(history[0], args.exact)} -> "
          f"{_fmt(trained.loss(train_data), args.exact)}")
    print(f"test mse {_fmt(trained.loss(test_data), args.exact)}")
    print(f"parameters {counts.equivariant} vs dense {counts.dense} "
          f"(ratio {_fmt(counts.ratio, args.exact)})")
    if args.out:
        save_model(trained, args.out)
        print(f"model written to {args.out}")
    return 0


def cmd_count(args):
    value = param_count(args.structure, args.k, n=args.n, m1=args.m1, m2=args.m2)
    print(value)
    return 0


DEMO_X = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
DEMO_V = np.array([2.1, 3.4, 0.2])


def _demo_sign_threshold(bias, title, s, expect_commutes, claim):
    """Print the square of sign_threshold:3 with ``bias`` (the map named
    ``s``) around the permutation DEMO_X, and exit 0 when it commutes or
    not as expected, printing ``claim``."""
    spec = ActivationSpec("sign_threshold", 3.0)
    xv = DEMO_X @ DEMO_V
    sxv = apply_pointwise(spec, bias, xv)
    back = DEMO_X.T @ sxv
    sv = apply_pointwise(spec, bias, DEMO_V)
    rows = [("v", _fmt_vec(DEMO_V)), ("X v", _fmt_vec(xv)), (f"{s}(X v)", _fmt_pm(sxv)),
            (f"X^-1 {s}(X v)", _fmt_pm(back)), (f"{s}(v)", _fmt_pm(sv))]
    width = len(rows[3][0])
    print(title)
    for label, value in rows:
        print(f"{label:<{width}} = {value}")
    commutes = np.array_equal(back, sv)
    relation = f"X^-1 {s}(X v) {'==' if commutes else '!='} {s}(v)"
    if commutes == expect_commutes:
        print(f"{relation}: {claim}")
        return 0
    print(relation)
    return 1


def _demo_decolor_flip(image=None, out=None):
    if image is not None:
        with open(image) as fh:
            candidates = [read_image(fh)]
        print(f"commuting square on {image}")
    else:
        candidates = [random_image(8, seed=seed) for seed in range(100)]
        print("commuting square on 100 seeded random 8x8 images")
    for i, img in enumerate(candidates):
        for axis in ("top_bottom", "left_right"):
            a = decolor(flip(img, axis)).values
            b = flip(decolor(img), axis).values
            if not np.array_equal(a, b):
                print(f"MISMATCH at image {i}, axis {axis}")
                return 1
    print("decolor(flip(img)) == flip(decolor(img)): bit-exact on every image")
    if out is not None:
        with open(out, "w") as fh:
            write_image(decolor(flip(candidates[0], "top_bottom")), fh)
        print(f"decolored top-bottom flip written to {out}")
    return 0


def _demo_antisymmetry():
    f = slater_wavefunction(seed=0)
    rng = np.random.default_rng(1)
    points = rng.uniform(-1.0, 1.0, size=(3, 3))
    swapped = points[[1, 0, 2]]
    print("slater determinant with monomial features, m = 3")
    print(f"f(v)        = {_fmt(f(points), False)}")
    print(f"f(swap v)   = {_fmt(f(swapped), False)}")
    report = check_antisymmetry(f, 3, trials=10, seed=2, tol=1e-10)
    print(f"max residual over S_3: {report.max_residual:.3e}")
    if report.passed:
        print("antisymmetric within 1e-10")
        return 0
    print("NOT antisymmetric")
    return 1


DEMOS = {
    "permutation-threshold": lambda: _demo_sign_threshold(
        np.zeros(3),
        "pointwise map sign_threshold:3, permutation X = rows [0 1 0; 0 0 1; 1 0 0]",
        "s", True, "the pointwise map is equivariant"),
    "bias-counterexample": lambda: _demo_sign_threshold(
        np.array([-1.0, 0.0, 0.0]), "pointwise map sign_threshold:3 with bias b = (-1, 0, 0)",
        "s_b", False, "the biased map is not equivariant"),
    "decolor-flip": _demo_decolor_flip,
    "antisymmetry": _demo_antisymmetry,
}


def cmd_demo(args):
    if args.example == "decolor-flip":
        return _demo_decolor_flip(image=args.image, out=args.out)
    if args.image or args.out:
        raise ConfigError("--image/--out only apply to the decolor-flip example")
    return DEMOS[args.example]()


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every in-process call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="equikit",
        description="Construction kit and verifier for equivariant "
        "feed-forward networks over finite matrix groups.",
    )
    parser.add_argument(
        "--exact", action="store_true",
        help="print floats with 17 significant digits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="intertwiner dimensions for a rep chain")
    p.add_argument("--config", required=True)
    p.add_argument("--layer", type=int, default=None)
    p.add_argument("--print", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("check", help="equivariance report for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("train", help="train a toy task")
    p.add_argument("--task", default="center-of-mass")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--steps", type=int, default=TRAIN_DEFAULTS["steps"])
    p.add_argument("--lr", type=float, default=TRAIN_DEFAULTS["lr"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--activation", default="tanh")
    p.add_argument("--train-samples", type=int, default=TRAIN_DEFAULTS["train_samples"])
    p.add_argument("--test-samples", type=int, default=TRAIN_DEFAULTS["test_samples"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("count", help="structured parameter-count formulas")
    p.add_argument("--structure", required=True, choices=["dense", "toeplitz", "bttb"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("demo", help="golden worked examples")
    p.add_argument("--example", required=True, choices=sorted(DEMOS))
    p.add_argument("--image", default=None,
                   help="decolor-flip: read this image text file instead of seeded images")
    p.add_argument("--out", default=None,
                   help="decolor-flip: write the decolored flipped image here")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
