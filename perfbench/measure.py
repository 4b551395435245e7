"""Closed-loop measurement of a workload, untraced or traced.

One client runs one operation at a time, so the next operation starts when
the previous one returns.  Operations run pass by pass, ``repeat`` per
stratum.  Untraced, the loop stops between strata once ``seconds`` have
passed and at least one pass is complete.  Traced, every operation is run
twice on the same input, untraced and then under ``tracing.instrument``, and
the loop stops only between passes, so that per-layer metrics come from
complete passes and the traced-minus-untraced difference gives the tracing
overhead.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from . import tracing
from .workloads import Stratum, Workload


@dataclass
class Outcome:
    times: dict[str, list[float]]
    traced_times: dict[str, list[float]]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    passes: int = 0
    elapsed: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def medians(self, traced: bool = False) -> dict[str, float]:
        times = self.traced_times if traced else self.times
        return {name: statistics.median(values)
                for name, values in times.items() if values}


def _attempt(fn, *args) -> tuple[object, float, list[str]]:
    """Run ``fn`` and time it; an exception is returned as a problem."""
    start = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        last = traceback.extract_tb(exc.__traceback__)[-1]
        return None, math.nan, [f"{type(exc).__name__}: {exc} "
                                f"({last.filename}:{last.lineno})"]
    return out, perf_counter() - start, []


def _checked(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - a failed check is counted
        return [f"check raised {type(exc).__name__}: {exc}"]


class _Run:
    def __init__(self, workload: Workload, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        names = [s.name for s in workload.strata]
        self.outcome = Outcome({n: [] for n in names}, {n: [] for n in names})
        self.tracer = tracing.Tracer()
        self.probe = tracing.Probe()
        self.op_pass: dict[int, int] = {}
        self.op_stratum: dict[int, str] = {}

    def operation(self, stratum: Stratum, index: int, pass_index: int) -> None:
        inp = stratum.inputs[index % len(stratum.inputs)]
        out, seconds, problems = _attempt(stratum.run, inp)
        if not problems:
            self.outcome.times[stratum.name].append(seconds)
            problems = _checked(stratum.check, inp, out)
        self.outcome.record(stratum.name, problems)
        if self.traced and out is not None:
            self.traced_operation(stratum, pass_index, inp, out)

    def traced_operation(self, stratum: Stratum, pass_index: int, inp,
                         untraced) -> None:
        op = len(self.op_pass)
        self.tracer.op = op
        self.op_pass[op] = pass_index
        self.op_stratum[op] = stratum.name
        run = stratum.traced_run or stratum.run
        with tracing.instrument(self.tracer, self.probe):
            with self.tracer.span(stratum.name, "bench") as root:
                out, _, problems = _attempt(run, inp)
        if not problems:
            self.outcome.traced_times[stratum.name].append(root.duration)
            if stratum.traced_check is not None:
                problems = _checked(stratum.traced_check, inp, out, untraced)
            else:
                problems = _checked(stratum.check, inp, out)
        problems += self.probe.problems
        self.probe.problems = []
        self.outcome.record(f"traced {stratum.name}", problems)

    def loop(self, seconds: float) -> None:
        start = perf_counter()
        pass_index = 0
        while True:
            for stratum in self.workload.strata:
                if (not self.traced and pass_index > 0
                        and perf_counter() - start >= seconds):
                    break
                for k in range(stratum.repeat):
                    self.operation(stratum, pass_index * stratum.repeat + k,
                                   pass_index)
            else:
                pass_index += 1
            if perf_counter() - start >= seconds:
                break
        self.outcome.passes = pass_index
        self.outcome.elapsed = perf_counter() - start

    def verify(self) -> None:
        try:
            found = self.workload.verify()
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            found = {"verify": [f"{type(exc).__name__}: {exc}"]}
        for name, problems in found.items():
            self.outcome.record(f"verify {name}", problems)


def measure(workload: Workload, seconds: float, traced: bool) -> Outcome:
    """Run ``workload`` for ``seconds``, then its post-run checks."""
    run = _Run(workload, traced)
    run.loop(seconds)
    run.verify()
    if traced and run.op_pass:
        run.outcome.layers = tracing.layer_metrics(
            run.tracer.spans, run.op_pass, run.op_stratum)
    return run.outcome
