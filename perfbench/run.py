"""Benchmark entry point.

    python3 perfbench/run.py --workload system_values --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout; it imports the library from ``src``.
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The line before it is a ``detail``
object with every stratum's median and sample count, the named metrics of
each workload, the failures found and a description of the machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
IMPORT_PROBE = ("import time; start = time.perf_counter(); import cpsblotto; "
                "print(time.perf_counter() - start)")
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "ok_share": "share"}


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("system_values", "paper_checks",
                                 "solve_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _commit() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose is not None:
        return loose
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or
                 "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        if level is None:
            break
        if kind != "Instruction":
            sizes[f"L{level}"] = _read(f"{base}/index{index}/size")
    return sizes


def environment() -> dict:
    import numpy
    import scipy
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": _cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def _import_times() -> list[float]:
    """Times to import cpsblotto (with numpy and scipy) from ``src``, each
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def _setup(build, seed: int, tiny: bool, traced: bool):
    """Build the inputs SETUP_REPS times; return the last build, the build
    times and, traced, the time spent in ``generate_concentric`` per build."""
    from perfbench import tracing
    times, generate = [], []
    for _ in range(SETUP_REPS):
        tracer = tracing.Tracer()
        start = perf_counter()
        if traced:
            with tracing.instrument(tracer, tracing.Probe()):
                workload = build(seed, tiny)
        else:
            workload = build(seed, tiny)
        times.append(perf_counter() - start)
        generate.append(sum((s.duration for s in tracer.spans
                             if s.name == "model.generate_concentric"), 0.0))
    return workload, times, generate


def _named(workload: str, medians: dict[str, float]) -> dict[str, float]:
    """The per-operation timings each workload is known by."""
    if workload != "solve_large":
        return dict(medians)
    out = {}
    for kind in ("solve_s", "draw_s"):
        values = [v for k, v in medians.items() if k.startswith(kind + ".")]
        if values:
            out[f"{kind}.n5000"] = statistics.fmean(values)
    return out


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cpsblotto")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import api, measure, tracing, workloads
    if not os.path.abspath(api.cpsblotto.__file__).startswith(SRC + os.sep):
        print(f"error: cpsblotto imported from {api.cpsblotto.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    import_times: list[float] = []
    build = workloads.WORKLOADS[args.workload]
    workload, setup_times, generate = _setup(build, args.seed, tiny, traced)
    outcome = measure.measure(workload, args.seconds, traced)

    medians = outcome.medians()
    traced_medians = outcome.medians(traced=True)
    repeat = {stratum.name: stratum.repeat for stratum in workload.strata}

    def pass_time(stratum_medians: dict[str, float]) -> float:
        return sum(repeat[name] * t for name, t in stratum_medians.items())

    if len(medians) < len(workload.strata):
        outcome.record("metrics", ["a stratum has no successful operation"])
    elif traced:
        untraced_pass = pass_time(medians)
        traced_pass = pass_time(traced_medians)
        metrics = dict(outcome.layers)
        metrics.update({"model.generate_s": statistics.median(generate),
                        "trace.untraced_pass_s": untraced_pass,
                        "trace.traced_pass_s": traced_pass,
                        "trace.overhead_s": traced_pass - untraced_pass})
    else:
        import_times = _import_times()
        metrics = {
            "setup_s": (statistics.median(import_times)
                        + statistics.median(setup_times)),
            "pass_s": pass_time(medians),
            "ok_share": 1.0 - outcome.failed / outcome.attempted,
        }
    units = tracing.LAYER_UNITS if traced else E2E_UNITS

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": outcome.elapsed,
        "passes": outcome.passes, "setup_import_s": import_times,
        "setup_build_s": setup_times,
        "strata": {name: {"median_s": medians.get(name),
                          "traced_median_s": traced_medians.get(name),
                          "samples": len(outcome.times[name])}
                   for name in outcome.times},
        "named": _named(args.workload, medians),
        "op_geomean_s": (math.exp(statistics.fmean(
            math.log(t) for t in medians.values())) if medians else None),
        "fail_share": outcome.failed / outcome.attempted,
        "problems": outcome.problems[:20],
        "environment": environment(),
    }
    print(json.dumps({"detail": detail}))
    if len(medians) < len(workload.strata):
        print("error: no result, see the problems above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
