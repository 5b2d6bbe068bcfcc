"""equikit benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-solve --seed 3 --seconds 22 --trace 0

The run imports equikit from the checkout's ``src`` and drives it from
outside, with one caller in a closed loop: each cycle of the workload
(see ``workloads.py``) starts when the previous one has finished, and
cycles repeat for ``--seconds`` after one untimed warm-up cycle. Every
output is checked; an operation with a wrong exit code, basis dimension,
verdict or stdout counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

- ``setup_s``: median over fresh processes of the time from spawning one
  to equikit imported and the inputs made. The processes start one at a
  time between cycles, spread over the run, not in one burst;
- ``cycle_p10_s``: the 10th percentile of the cycles' wall times. On a
  shared machine other tenants slow stretches of seconds to minutes by up
  to half again the normal time (CPU time rises with wall time, so the
  process is not waiting), and a run's median follows those stretches.
  A low percentile of many short cycles picks the quieter moments
  within a run, so it is the steadiest estimate of the program's own
  cost from run to run; the report still prints every median;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` alternates traced and untraced cycles and reports the
per-layer metrics from the spans of the traced ones (see
``tracing.py``); ``trace.overhead`` compares the two cycle_p10_s values.

Human-readable lines go to stdout first: each timing of the workload
(``basis_s``, ``train_steps_per_s``, ``build_s``, ``check_s``, ...) as a
median with the highest percentile that has at least ten samples beyond
it and the sample count, and the error rate. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A results file with the run record (kernel path, numpy
version, BLAS threads, nproc, seed, commit), every metric and the raw
samples, and when tracing a spans file, go to ``.bench_results/``.

Every workload in one command:

    for w in deepsets-train grid-solve signed-solve grid-verify; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 22 --trace 0; done
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("deepsets-train", "grid-solve", "signed-solve", "grid-verify")
SETUP_REPEATS = 15
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc):
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)


def import_equikit():
    """Put the checkout's sources first on the path and import them."""
    if not (SRC / "equikit" / "__init__.py").is_file():
        raise SystemExit(f"error: no equikit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import equikit

    if Path(equikit.__file__).resolve().parent != SRC / "equikit":
        raise SystemExit(f"error: imported equikit from {equikit.__file__}, not {SRC}")


def blas_threads():
    """Threads of the loaded OpenBLAS, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        so = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_record(args, nproc):
    import numpy
    from equikit import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_path": "numba" if kernels.USE_NUMBA else "numpy",
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": nproc,
        "python": sys.version.split()[0],
        "commit": commit(),
    }


def make_inputs(args, workdir):
    """The timed set-up: equikit imported (by ``workloads``), inputs made,
    and the compiled kernels warmed when numba is present."""
    import workloads
    from equikit import kernels

    workload = workloads.make(args.workload, args.seed, workdir)
    if kernels.USE_NUMBA:
        kernels.warmup()
    return workload


def setup_probe(args):
    workdir = tempfile.mkdtemp(prefix="setup-", dir=RESULTS)
    try:
        make_inputs(args, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup(args):
    """Seconds from spawning a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return seconds


def p10(values):
    """10th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def summary_line(name, values, unit, better="lower"):
    """Median, the highest percentile with at least ten samples beyond it
    on the worse side, and the sample count."""
    xs = sorted(values, reverse=better == "higher")
    n = len(xs)
    k = n - 11
    tail = (f"p{100 * (k + 1) // n} {xs[k]:.6g} {unit}" if k >= 0
            else "(fewer than 11 samples: no tail percentile)")
    return f"{name:<24} median {statistics.median(xs):.6g} {unit}   {tail}   n={n}"


def measure(workload, checker, seconds, tracer, probe=None):
    """Warm up once, then run cycles for ``seconds``. With a tracer, cycles
    alternate between traced and untraced. With a ``probe``, it is called
    SETUP_REPEATS times spread evenly over the cycles' time, so that the
    set-up samples see the same stretches of the shared machine as the
    cycles; the time spent in it does not count against ``seconds``.
    Returns the timings of the untraced cycles, those of the traced ones,
    the span index range of each traced cycle and the probe results."""
    run_cycle(workload, checker)  # fills caches; its stdout is the reference
    plain, traced, ranges, setup = [], [], [], []
    tries = {False: 0, True: 0}
    repeats = SETUP_REPEATS if probe is not None else 0
    start = time.perf_counter()
    paused = 0.0
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(setup) < repeats and elapsed >= len(setup) * seconds / repeats:
            begin = time.perf_counter()
            setup.append(probe())
            paused += time.perf_counter() - begin
            continue
        if not (elapsed < seconds or not tries[False]
                or (tracer is not None and not tries[True])):
            break
        trace = tracer is not None and tries[True] <= tries[False]
        tries[trace] += 1
        if not trace:
            plain.append(run_cycle(workload, checker))
            continue
        lo = len(tracer.spans)
        tracer.install()
        try:
            traced.append(run_cycle(workload, checker))
        finally:
            tracer.uninstall()
        ranges.append((lo, len(tracer.spans)))
    keep = [i for i, t in enumerate(traced) if t is not None]
    plain = [t for t in plain if t is not None]
    if not plain or (tracer is not None and not keep):
        raise SystemExit("error: no cycle completed\n" + "\n".join(checker.messages[:3]))
    return plain, [traced[i] for i in keep], [ranges[i] for i in keep], setup


def run_cycle(workload, checker):
    try:
        timings = workload.cycle(checker)
    except Exception:  # a crash is one failed operation; the run goes on
        checker.attempted += 1
        checker.failed += 1
        checker.messages.append(traceback.format_exc(limit=4))
        return None
    timings["cycle_s"] = sum(timings.values())
    return timings


def report_end_to_end(workload, plain, setup):
    lines = [summary_line("setup_s", setup, "s")]
    for key in plain[0]:
        values = [t[key] for t in plain]
        if key == "train_s":
            rates = [workload.steps / v for v in values]
            lines.append(summary_line("train_steps_per_s", rates, "steps/s", "higher"))
        lines.append(summary_line(key, values, "s"))
    return lines


def trace_metrics(tracer, traced, ranges, plain):
    import tracing

    per_cycle = [tracing.layer_metrics(tracing.span_times(tracer.spans, lo, hi))
                 for lo, hi in ranges]
    values = {name: statistics.median(c[name] for c in per_cycle) for name in per_cycle[0]}
    values["trace.spans"] = statistics.median(hi - lo for lo, hi in ranges)
    on = p10([t["cycle_s"] for t in traced])
    off = p10([t["cycle_s"] for t in plain])
    values["trace.overhead"] = 100.0 * (on / off - 1.0)
    units = tracing.layer_units()
    units["trace.spans"] = ("count", "")
    units["trace.overhead"] = ("%", f"cycle_p10_s traced {on:.6g} s vs untraced {off:.6g} s")
    return values, units


def write_spans(path, tracer, ranges):
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "counts"],
                   "cycles": ranges, "spans": tracer.spans}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    import_equikit()
    RESULTS.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    import workloads
    from tracing import Tracer

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        workload = make_inputs(args, workdir)
        workload.prepare()
        checker = workloads.Checker()
        tracer = Tracer() if args.trace else None
        probe = None if args.trace else lambda: time_setup(args)
        plain, traced, ranges, setup = measure(workload, checker, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = run_record(args, nproc)
    print(f"equikit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    print("run: " + ", ".join(f"{k} {v}" for k, v in record.items()
                              if k not in ("workload", "seed", "seconds", "trace")))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, units = trace_metrics(tracer, traced, ranges, plain)
        lines = [f"{name:<38} {value:.6g} {units[name][0]}"
                 + (f"   ({units[name][1]})" if units[name][1] else "")
                 for name, value in values.items()]
        chosen = spec["per_layer"]
        write_spans(RESULTS / f"{stem}-spans.json", tracer, ranges)
    else:
        values = {"setup_s": statistics.median(setup),
                  "cycle_p10_s": p10([t["cycle_s"] for t in plain]),
                  "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": ("s", "median"), "cycle_p10_s": ("s", "p10 of cycle_s"),
                 "peak_rss_mb": ("MiB", "ru_maxrss")}
        lines = report_end_to_end(workload, plain, setup)
        lines.append(f"{'cycle_p10_s':<24} {values['cycle_p10_s']:.6g} s   (p10 of cycle_s)")
        lines.append(f"{'peak_rss_mb':<24} {peak_rss_mb:.6g} MiB")
        chosen = spec["end_to_end"]
    lines.append(f"{'error_rate':<24} {checker.failed}/{checker.attempted} failed/attempted")
    for line in lines:
        print(line)
    for message in checker.messages[:20]:
        print(f"FAILED {message}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    correct = checker.failed == 0 and checker.attempted > 0
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "correct": correct, "attempted": checker.attempted,
                   "failed": checker.failed, "failures": checker.messages,
                   "metrics": {k: {"value": v, "unit": units[k][0], "note": units[k][1]}
                               for k, v in values.items()},
                   "report": lines, "setup_samples": setup,
                   "cycle_samples": plain, "traced_cycle_samples": traced}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
