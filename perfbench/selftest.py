"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
It runs every workload's code path at sizes that take milliseconds
(p4:2, symmetric:3, a few hundred training steps), untraced and traced,
and checks that every operation passes its checks, that the tracer's
spans nest with self times >= 0 and child time <= parent time, that
tracing reaches functions imported by name and is removed afterwards,
that every per-layer metric BENCHMARK.json names is produced, and that
the correctness gate counts a changed stdout as a failure. It then runs
``run.py`` once as the benchmark's caller would, and once in a directory
holding only BENCHMARK.json and the benchmark, where it must fail.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def check_spans(name, spans, ranges):
    for lo, hi in ranges:
        child = {}
        for sid in range(lo, hi):
            label, parent, start, end, _ = spans[sid]
            expect(start <= end, f"{name}: span {sid} ({label}) ends before it starts")
            if parent == -1:
                continue
            expect(lo <= parent < sid, f"{name}: span {sid} has parent {parent} outside its cycle")
            p = spans[parent]
            expect(p[2] <= start and end <= p[3],
                   f"{name}: span {sid} ({label}) is not nested in its parent {p[0]}")
            child[parent] = child.get(parent, 0.0) + (end - start)
        for parent, covered in child.items():
            duration = spans[parent][3] - spans[parent][2]
            expect(covered <= duration,
                   f"{name}: children of span {parent} take longer than it")
        for label, t in tracing.span_times(spans, lo, hi).items():
            expect(t["self_s"] >= 0.0, f"{name}: negative self time for {label}")


def tiny_runs(per_layer):
    for name in run.WORKLOAD_NAMES:
        for traced in (False, True):
            workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.RESULTS)
            try:
                workload = workloads.make(name, 1, workdir, sizes=workloads.TINY)
                workload.prepare()
                checker = workloads.Checker()
                tracer = tracing.Tracer() if traced else None
                plain, timed, ranges, _ = run.measure(workload, checker, 0.2, tracer)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            label = f"{name} {'traced' if traced else 'untraced'}"
            expect(checker.attempted > 0 and checker.failed == 0,
                   f"{label}: {checker.failed}/{checker.attempted} failed: {checker.messages[:2]}")
            expect(all(t["cycle_s"] > 0 for t in plain), f"{label}: zero cycle time")
            if not traced:
                continue
            check_spans(label, tracer.spans, ranges)
            values, _ = run.trace_metrics(tracer, timed, ranges, plain)
            missing = [m for m in per_layer if m not in values]
            expect(not missing, f"{label}: per-layer metrics missing: {missing}")
            expect(values["cli.main.s"] > 0 and values["kernels.row_echelon.calls"] > 0,
                   f"{label}: no spans for cli.main or kernels.row_echelon")
            expect(not hasattr(equikit.cli.main, "__wrapped__"),
                   f"{label}: tracer left a wrapper installed")
            print(f"ok   {label}: {checker.attempted} operations, "
                  f"{values['trace.spans']:g} spans per traced cycle")


def binding_coverage():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in ("intertwiners", "reps", "numerics"):
            fn = getattr(sys.modules[f"equikit.{module}"], "nullspace")
            expect(hasattr(fn, "__wrapped__"), f"nullspace bound in {module} is not traced")
        for name in ("solve_basis", "build", "load_model", "parse_rep_spec"):
            expect(hasattr(getattr(equikit.cli, name), "__wrapped__"),
                   f"{name} bound in cli is not traced")
    finally:
        tracer.uninstall()
    expect(not hasattr(equikit.numerics.nullspace, "__wrapped__"), "uninstall left nullspace wrapped")


def gate_counts_changed_stdout():
    checker = workloads.Checker()
    checker.record("op", "same", [])
    checker.record("op", "different", [])
    expect((checker.attempted, checker.failed) == (2, 1), "changed stdout not counted as failed")


def cli_runs():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "signed-solve",
           "--seed", "5", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    expect(done.returncode == 0, f"run.py exited {done.returncode}: {done.stderr[-300:]}")
    result = json.loads(last) if last.startswith("{") else {}
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"run.py last line is not the result object: {last[:120]}")
    expect(result.get("correct") is True, "run.py reported an incorrect result")

    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=run.RESULTS)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "run.py without equikit sources did not fail cleanly")


def main():
    # equikit and the modules importing numpy load only after the BLAS cap
    # and the checkout's sources are in place.
    global equikit, tracing, workloads
    run.cap_blas_threads(len(os.sched_getaffinity(0)))
    run.import_equikit()
    run.RESULTS.mkdir(exist_ok=True)
    import equikit
    import tracing
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    tiny_runs(per_layer)
    binding_coverage()
    gate_counts_changed_stdout()
    cli_runs()
    print("selftest: " + ("FAILED" if FAILURES else "all checks passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
