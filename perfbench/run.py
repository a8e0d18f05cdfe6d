#!/usr/bin/env python3
"""exprk benchmark: one workload, closed loop, one client, BLAS pinned to one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_study --seed 1 --seconds 36 --trace 0

It imports exprk from ./src, measures set-up in fresh interpreters, then
runs passes of the workload for about --seconds, checking every
operation's output against the values recorded from the seed commit
(perfbench/expected.json). The last line of stdout is one JSON object:
end-to-end metrics with --trace 0; with --trace 1, per-layer metrics from
wrapped calls, each operation running once untraced and once traced.
See perfbench/README.md.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children:
# the box has two cores and is shared, and with two OpenBLAS threads the first
# LAPACK call alone took about a second on a 2-vCPU VM.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOADS = ("paper_study", "probe_sweep", "nonsym_kernel")
SETUP_REPEATS = 9
# Grid size of the operators the set-up measurement builds, per workload.
SETUP_N = {"paper_study": 399, "probe_sweep": 399, "nonsym_kernel": 100}
SETUP_TIMEOUT_S = 15

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(workload_n: int) -> list:
    """Set-up seconds from SETUP_REPEATS fresh interpreters, run one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), str(SRC), str(workload_n)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment() -> dict:
    """Cores, BLAS threads and library versions the numbers were taken with."""
    import ctypes

    import numpy as np

    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": np.__version__,
           "blas_thread_env": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = None
    # The OpenBLAS bundled in numpy's wheel; its symbols carry a wheel-specific prefix.
    wheel_libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(wheel_libs.glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


class Tally:
    """Operations attempted and failed, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_pass(ops, ledger, tally, tracer=None):
    """Run each operation once, in order; return (seconds per part, total seconds)."""
    parts = defaultdict(float)
    for op in ops:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(op.name):
                    result = op.run()
        except Exception:  # noqa: BLE001 - an operation that raises is a failed operation
            problems = [f"{op.name}: raised\n{traceback.format_exc()}"]
        else:
            problems = None
        parts[op.part] += time.perf_counter() - start
        if problems is None:
            problems = op.check(result, ledger)
        if problems:
            tally.failed += 1
            tally.problems += problems
    return parts, sum(parts.values())


def run_paired_pass(ops, ledger, tally, tracer, traced_first):
    """Run each operation twice back to back, untraced and traced, in the given order.

    Pairing at the operation level lets both runs of an operation see the same
    machine load, so the traced/untraced ratio measures tracing, not the box.
    Returns (untraced seconds per part, untraced total, traced total).
    """
    parts, traced = defaultdict(float), 0.0
    for op in ops:
        for with_trace in (traced_first, not traced_first):
            if with_trace:
                with tracer.installed():
                    traced += run_pass([op], ledger, tally, tracer)[1]
            else:
                parts[op.part] += run_pass([op], ledger, tally)[1]
    return parts, sum(parts.values()), traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exprk" / "__init__.py").is_file():
        print(f"error: no exprk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = measure_setup(SETUP_N[args.workload])
    start = time.perf_counter()
    import exprk.cli  # noqa: F401 - timed as cli.import_s
    import_s = time.perf_counter() - start

    import spans as tr
    import workloads as wl

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    ops = wl.build(args.workload, args.seed, expected[args.workload])
    ledger, tally = wl.Ledger(), Tally()
    parts, walls, traced, tracers = [], [], [], []
    t_start = time.perf_counter()
    while True:
        if args.trace:
            tracer = tr.Tracer()
            part, wall, traced_wall = run_paired_pass(ops, ledger, tally, tracer,
                                                      traced_first=len(tracers) % 2 == 1)
            traced.append(traced_wall)
            tracers.append(tracer)
        else:
            part, wall = run_pass(ops, ledger, tally)
        parts.append(part)
        walls.append(wall)
        # Stop before a pass that would end past --seconds, so a run lasts
        # about --seconds however slow a pass is; there is always one pass.
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} passes={len(walls)} "
          f"traced={bool(args.trace)} ops={tally.attempted} failed={tally.failed} "
          f"ops_failed={tally.failed / tally.attempted:g}")
    print(f"# setup_s {statistics.median(setup):.6f} s (median of {len(setup)} processes)")
    for name in dict.fromkeys(op.part for op in ops):
        values = [p.get(name, 0.0) for p in parts]
        print(f"# {name} {statistics.median(values):.6f} s (median of {len(values)} passes)")
    print(f"# wall_s {statistics.median(walls):.6f} s (median of {len(walls)} passes)")
    for problem in tally.problems:
        print(f"# FAILED {problem}", file=sys.stderr)

    if args.trace:
        layers = tr.median_totals([t.layer_totals() for t in tracers])
        layers["cli.import_s"] = import_s
        layers["trace.overhead"] = sum(traced) / sum(walls) - 1.0
        units = dict(tr.layer_metric_names())
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "untraced_pass_s": walls, "traced_pass_s": traced,
            "metrics": metrics, "spans": [t.columns() for t in tracers],
        }, separators=(",", ":")), encoding="utf-8")
        print(f"# trace.overhead {layers['trace.overhead']:+.4f} (traced / untraced time "
              f"of the same operations - 1); spans -> {out.relative_to(ROOT)}")
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
