"""The benchmark's workloads: inputs made from a seed, one closed-loop
cycle of equikit calls, and the checks on every output.

Every cycle drives equikit from outside: CLI commands go through
``equikit.cli.main(argv)`` in-process with stdout captured, and the one
step the CLI has no command for (building and saving a model) goes
through the public library functions. Calls are made through module
attributes at call time so that the tracer's wrappers see them.
"""

import contextlib
import io
import os
import re
import time

import numpy as np

from equikit import activations, cli, groups, intertwiners, network, reps

# Center-of-mass training must reach a test mse below this.
MSE_MAX = 1e-3

# Perturbation added to one declared weight entry of the tampered model;
# far above the check's 1e-8 tolerance, so a correct verifier must FAIL.
TAMPER = 0.25


class Checker:
    """Counts attempted and failed operations and keeps the first stdout
    of each operation, against which every repeat must be byte-identical."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._reference = {}

    def record(self, op, stdout, problems):
        self.attempted += 1
        if self._reference.setdefault(op, stdout) != stdout:
            problems.append("stdout differs from the first repeat")
        if problems:
            self.failed += 1
            self.messages.append(f"{op}: " + "; ".join(problems))


def call_cli(argv):
    """Run ``equikit <argv>`` in-process; returns (exit code, stdout,
    stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def expect_exit(code, want, stderr, problems):
    if code != want:
        problems.append(f"exit code {code}, expected {want} ({stderr.strip()})")


def relabelled_defining(group, rng):
    """``perm:`` spec of the group's defining permutation rep with its
    points relabelled by a random permutation: an isomorphic input whose
    constraint stack has the same shape and rank (its elimination flops
    differ by under 0.01% between relabellings)."""
    n = group.dim
    sigma = rng.permutation(n)
    perms = []
    for g in group.generators:
        image = np.argmax(g, axis=0)  # g e_j = e_image[j]
        q = np.empty(n, dtype=np.int64)
        q[sigma] = sigma[image]
        perms.append(",".join(str(i) for i in q))
    return "perm:" + "|".join(perms)


def oracle_dims(group_spec, rep_specs):
    """Character-formula dimension of each layer's intertwiner space."""
    group = groups.group_from_spec(group_spec)
    chain = [reps.parse_rep_spec(group, spec) for spec in rep_specs]
    return [intertwiners.hom_dim_oracle(a, b) for a, b in zip(chain, chain[1:])]


class Workload:
    """One workload at one seed. The constructor makes the inputs (the
    timed set-up); ``prepare`` computes reference answers untimed;
    ``cycle`` runs one closed-loop cycle and returns its timings."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        pass


class DeepSetsTrain(Workload):
    """``equikit train`` on center of mass, then ``equikit check`` on the
    written model."""

    name = "deepsets-train"

    def __init__(self, seed, workdir, m, steps, train_samples, test_samples,
                 params):
        super().__init__(seed, workdir)
        self.steps = steps
        self.params = params
        self.model = self.path("com.model")
        self.train_argv = [
            "train", "--task", "center-of-mass", "--m", str(m),
            "--steps", str(steps), "--lr", "0.2", "--seed", str(seed),
            "--activation", "tanh", "--train-samples", str(train_samples),
            "--test-samples", str(test_samples), "--out", self.model,
        ]
        self.check_argv = ["check", "--model", self.model, "--seed", str(seed)]

    def cycle(self, checker):
        code, out, err, train_s = call_cli(self.train_argv)
        problems = []
        expect_exit(code, 0, err, problems)
        mse = re.search(r"^test mse (\S+)$", out, re.M)
        if mse is None or not float(mse.group(1)) < MSE_MAX:
            problems.append(f"test mse not below {MSE_MAX:g}")
        want = "parameters {} vs dense {}".format(*self.params)
        if want not in out:
            problems.append(f"expected '{want}'")
        checker.record("train", out, problems)

        code, out, err, check_s = call_cli(self.check_argv)
        problems = []
        expect_exit(code, 0, err, problems)
        if ": PASS" not in out:
            problems.append("verdict is not PASS")
        checker.record("check", out, problems)
        return {"train_s": train_s, "check_s": check_s}


class BasisSolve(Workload):
    """``equikit basis`` on a config whose chain is built from the
    group's relabelled defining rep."""

    def __init__(self, seed, workdir, group):
        super().__init__(seed, workdir)
        self.group_spec = group
        point = relabelled_defining(groups.group_from_spec(group),
                                    np.random.default_rng(seed))
        self.rep_specs = self.chain(point)
        self.config = self.path("chain.cfg")
        lines = ["[model]", f"group = {group}", "", "[reps]"]
        lines += [f"{i} = {spec}" for i, spec in enumerate(self.rep_specs)]
        with open(self.config, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.oracle = None

    def prepare(self):
        self.oracle = oracle_dims(self.group_spec, self.rep_specs)

    def cycle(self, checker):
        code, out, err, basis_s = call_cli(["basis", "--config", self.config])
        problems = []
        expect_exit(code, 0, err, problems)
        dims = [int(d) for d in re.findall(r"intertwiner dim (\d+)$", out, re.M)]
        if dims != self.oracle:
            problems.append(f"basis dims {dims}, character oracle {self.oracle}")
        checker.record("basis", out, problems)
        return {"basis_s": basis_s}


class GridSolve(BasisSolve):
    name = "grid-solve"

    def chain(self, point):
        return [point, point, "trivial:1"]


class SignedSolve(BasisSolve):
    name = "signed-solve"

    def __init__(self, seed, workdir, group, tensor):
        self.tensor = tensor
        super().__init__(seed, workdir, group)

    def chain(self, point):
        signed = f"tensor:{self.tensor}(sum({point};sign))"
        return [signed, signed]


class GridVerify(Workload):
    """Build and save a model with the library, then ``equikit check`` it
    intact (must PASS) and with one declared weight entry perturbed (must
    FAIL with a witness)."""

    name = "grid-verify"
    rep_specs = ("defining", "trivial:2", "trivial:1")

    def __init__(self, seed, workdir, group):
        super().__init__(seed, workdir)
        self.group_spec = group
        self.model = self.path("grid.model")
        self.tampered = self.path("grid-tampered.model")
        self.tamper_at = np.random.default_rng(seed).random(2)
        self.oracle = None

    def prepare(self):
        self.oracle = oracle_dims(self.group_spec, self.rep_specs)

    def build_and_save(self):
        group = groups.group_from_spec(self.group_spec)
        chain = [reps.parse_rep_spec(group, spec) for spec in self.rep_specs]
        activation = activations.parse_activation("tanh")
        net = network.build(group, chain, activation, seed=self.seed)
        network.save_model(net, self.model)
        return net

    def write_tampered(self, text):
        lines = text.split("\n")
        at = next(i for i, ln in enumerate(lines) if ln.startswith("weight-matrix:"))
        rows, cols = (int(v) for v in lines[at].split()[1:])
        row, col = (int(u * n) for u, n in zip(self.tamper_at, (rows, cols)))
        values = lines[at + 1 + row].split()
        values[col] = f"{float(values[col]) + TAMPER:.17g}"
        lines[at + 1 + row] = " ".join(values)
        with open(self.tampered, "w") as fh:
            fh.write("\n".join(lines))

    def cycle(self, checker):
        start = time.perf_counter()
        net = self.build_and_save()
        build_s = time.perf_counter() - start
        with open(self.model) as fh:
            text = fh.read()
        problems = []
        dims = [basis.dim for basis in net.weight_bases]
        if dims != self.oracle:
            problems.append(f"basis dims {dims}, character oracle {self.oracle}")
        checker.record("build", text, problems)
        if not os.path.exists(self.tampered):
            self.write_tampered(text)

        code, out, err, check_s = call_cli(
            ["check", "--model", self.model, "--seed", str(self.seed)])
        problems = []
        expect_exit(code, 0, err, problems)
        if ": PASS" not in out:
            problems.append("intact model: verdict is not PASS")
        checker.record("check", out, problems)

        code, out, err, fail_s = call_cli(
            ["check", "--model", self.tampered, "--seed", str(self.seed)])
        problems = []
        expect_exit(code, 1, err, problems)
        if ": FAIL" not in out or "witness element" not in out:
            problems.append("tampered model: no FAIL verdict with a witness")
        checker.record("check-tampered", out, problems)
        return {"build_s": build_s, "check_s": check_s, "check_fail_s": fail_s}


WORKLOADS = {w.name: w for w in (DeepSetsTrain, GridSolve, SignedSolve, GridVerify)}

# Sizes of the benchmark proper. Each cycle takes 0.1-0.8 s on a 2-vCPU
# Xeon VM, so a run holds dozens to hundreds of cycles: on a shared host
# a low percentile of many short cycles varies far less from run to run
# than a few long ones (p4m:5 solves at ~1.5-2.5 s each did not hold a
# 25% bound). 500 steps reach test mse <= 3.3e-5 on seeds 0-58, well
# below the 1e-3 gate; 300 steps missed it on seed 24.
FULL = {
    "deepsets-train": dict(m=5, steps=500, train_samples=2000, test_samples=500,
                           params=(28, 285)),
    "grid-solve": dict(group="p4m:4"),
    "signed-solve": dict(group="symmetric:6", tensor=3),
    "grid-verify": dict(group="p4m:8"),
}

# Same code paths at sizes that run in milliseconds, for the self-test.
TINY = {
    "deepsets-train": dict(m=3, steps=300, train_samples=100, test_samples=50,
                           params=(28, 117)),
    "grid-solve": dict(group="p4:2"),
    "signed-solve": dict(group="symmetric:3", tensor=2),
    "grid-verify": dict(group="p4:2"),
}


def make(name, seed, workdir, sizes=FULL):
    return WORKLOADS[name](seed, workdir, **sizes[name])
