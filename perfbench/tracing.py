"""Spans around calls into the library's layers, and the metrics they give.

A traced operation runs inside ``instrument``, which replaces each function
named in ``api.TRACED`` by a wrapper in every library module that refers to
it, so calls the library makes internally (``physical_effect_matrix`` calling
``cascade_failure``) are recorded as well as the benchmark's own calls.  Each
span stores its name, layer, start, end, parent span and operation id; counts
are taken from the call's arguments and result by a ``Probe`` method inside
a child span of layer ``trace``, so probe time is not charged to a layer.
Spans are kept in memory and reduced to metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import api, checks

LIBRARY_LAYERS = ("model", "cascade", "metrics", "equilibrium", "sampling",
                  "oracle", "experiments")
AFFECTED_STRATA = ("n41", "n131", "n301", "n301w")

# Every per-layer metric with its unit.  Times and counts are per pass over
# the workload's strata (median over passes); ``metrics.apsp_s`` is per call
# and ``model.generate_s`` per set-up.  Byte counts are computed from array
# sizes, not measured.
LAYER_UNITS = {
    "model.generate_s": "s",
    "cascade.effect_s": "s",
    "cascade.failure_calls": "count",
    "cascade.nodes_processed": "count",
    "cascade.rebalances": "count",
    "cascade.useful_ratio": "share",
    "metrics.cyber_s": "s",
    "metrics.apsp_calls": "count",
    "metrics.apsp_s": "s",
    "metrics.blend_s": "s",
    "metrics.cyber_affected_share": "share",
    **{f"metrics.cyber_affected_share.{s}": "share" for s in AFFECTED_STRATA},
    "equilibrium.solve_s": "s",
    "equilibrium.solve_calls": "count",
    "equilibrium.partitions_scanned": "count",
    "equilibrium.omega_a_size": "count",
    "equilibrium.cubic_residual_max": "ratio",
    "equilibrium.identity_residual_max": "ratio",
    "sampling.sample_s": "s",
    "sampling.rows": "count",
    "sampling.rows_per_s": "1/s",
    "sampling.mean_err_max": "ratio",
    "oracle.payoff_matrix_s": "s",
    "oracle.fictitious_play_s": "s",
    "oracle.strategies_d": "count",
    "oracle.strategies_a": "count",
    "oracle.iterations": "count",
    "oracle.converged_share": "share",
    "oracle.matrix_bytes": "bytes",
    "oracle.fp_bytes": "bytes",
    "oracle.gap_max": "payoff",
    "experiments.driver_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LIBRARY_LAYERS[:-1]},
    "bench.glue_s": "s",
    "trace.probe_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    op: int
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` is the id of the running operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()


class Probe:
    """Counts and output checks taken at layer boundaries.

    Each method is named after the traced function and returns the span's
    attributes; problems found in outputs are appended to ``problems``.
    """

    def __init__(self) -> None:
        self.problems: list[str] = []
        self._apsp_base: tuple[np.ndarray, np.ndarray] | None = None

    def cascade_failure(self, args, result) -> dict:
        return {"nodes_processed": sum(len(group) for group in
                                       result.processing_order),
                "rebalances": len(result.records)}

    def all_pairs_shortest_paths(self, args, result) -> dict:
        adjacency, removed = args["adjacency"], args["removed"]
        if removed is None:
            self._apsp_base = (adjacency, result.lengths)
            return {}
        if self._apsp_base is None or self._apsp_base[0] is not adjacency:
            return {}
        base = self._apsp_base[1]
        differs = result.lengths != base
        differs[removed, :] = False
        differs[:, removed] = False
        return {"rows": base.shape[0] - 1,
                "changed_rows": int(differs.any(axis=1).sum())}

    def solve_equilibrium(self, args, result) -> dict:
        residual, identity = checks.solution_residuals(
            result, args["budget_d"], args["budget_a"])
        self.problems += checks.solution_problems(result, args["budget_d"],
                                                  args["budget_a"])
        return {"omega_a_size": len(result.omega_a),
                "partitions_scanned": checks.partitions_scanned(result),
                "cubic_residual": residual, "identity_residual": identity}

    def sample_allocations(self, args, result) -> dict:
        self.problems += checks.row_sum_problems(result, args["budget"])
        return {"sample_rows": result.shape[0],
                "mean_err": checks.sampled_mean_error(
                    args["marginals"], args["budget"], result)}

    def payoff_matrices(self, args, result) -> dict:
        U_d, U_a = result
        return {"strategies_d": U_d.shape[0], "strategies_a": U_d.shape[1],
                "matrix_bytes": U_d.nbytes + U_a.nbytes}

    def fictitious_play(self, args, result) -> dict:
        iterations = args["iterations"]
        n_d, n_a = result.mixed_d.size, result.mixed_a.size
        step = max(1, iterations // 200)
        checkpoints = -(-iterations // step)
        # Computed, not measured: each iteration reads one payoff column
        # and row and reads, updates and scans both score vectors (4 float64
        # passes over n_d + n_a entries); each checkpoint reads both
        # matrices once.
        fp_bytes = (iterations * 4 * 8 * (n_d + n_a)
                    + checkpoints * 2 * 8 * n_d * n_a)
        return {"iterations": iterations, "converged": bool(result.converged),
                "fp_bytes": fp_bytes}

    def cross_validate(self, args, result) -> dict:
        gap = max(result.abs_diff_d, result.abs_diff_a)
        self.problems += checks.oracle_problems(gap)
        return {"gap": gap}


def _wrap(tracer: Tracer, probe: Probe, fn, name: str, layer: str):
    hook = getattr(probe, fn.__name__, None)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, layer) as record:
            result = fn(*args, **kwargs)
        if hook is not None:
            with tracer.span(name + ".probe", "trace"):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record.attrs.update(hook(bound.arguments, result))
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, probe: Probe):
    """Route every call of an ``api.TRACED`` function through a span."""
    patched = []
    try:
        for holder, attr, layer in api.TRACED:
            fn = holder.__dict__[attr]
            wrapper = _wrap(tracer, probe, fn, f"{layer}.{attr}", layer)
            holders = [holder] + [module for module in api.MODULES
                                  if module is not holder
                                  and module.__dict__.get(attr) is fn]
            for target in holders:
                setattr(target, attr, wrapper)
                patched.append((target, attr, fn))
        yield
    finally:
        for target, attr, fn in reversed(patched):
            setattr(target, attr, fn)


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    covered = [0.0] * len(spans)
    for record in spans:
        if record.parent is not None:
            covered[record.parent] += record.duration
    return [record.duration - covered[i] for i, record in enumerate(spans)]


def _pass_totals(spans: list[Span], op_pass: dict[int, int],
                 op_stratum: dict[int, str]) -> dict[int, dict[str, float]]:
    totals: dict[int, dict[str, float]] = {}
    maxima = ("omega_a_size", "cubic_residual", "identity_residual",
              "mean_err", "strategies_d", "strategies_a", "matrix_bytes",
              "gap")
    for record, own in zip(spans, self_times(spans)):
        acc = totals.setdefault(op_pass[record.op], {})

        def add(key: str, value: float) -> None:
            acc[key] = acc.get(key, 0.0) + value

        add(f"self.{record.layer}", own)
        add(f"self.{record.name}", own)
        add(f"time.{record.name}", record.duration)
        add(f"calls.{record.name}", 1)
        for key, value in record.attrs.items():
            if key in maxima:
                acc[key] = max(acc.get(key, 0.0), float(value))
            else:
                add(key, float(value))
        if "changed_rows" in record.attrs:
            stratum = op_stratum[record.op].rsplit(".", 1)[-1]
            add(f"changed_rows.{stratum}", record.attrs["changed_rows"])
            add(f"rows.{stratum}", record.attrs["rows"])
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_pass(acc: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's strata."""
    get = acc.get
    out = {
        "cascade.effect_s": get("time.cascade.physical_effect_matrix", 0.0),
        "cascade.failure_calls": get("calls.cascade.cascade_failure", 0.0),
        "cascade.nodes_processed": get("nodes_processed", 0.0),
        "cascade.rebalances": get("rebalances", 0.0),
        "cascade.useful_ratio": _ratio(get("rebalances", 0.0),
                                       get("nodes_processed", 0.0)),
        "metrics.cyber_s": get("time.metrics.cyber_effect_matrix", 0.0),
        "metrics.apsp_calls": get("calls.metrics.all_pairs_shortest_paths",
                                  0.0),
        "metrics.blend_s": (get("time.metrics.interdependency_matrix", 0.0)
                            + get("time.metrics.effective_values", 0.0)),
        "metrics.cyber_affected_share": _ratio(get("changed_rows", 0.0),
                                               get("rows", 0.0)),
        "equilibrium.solve_s": get("time.equilibrium.solve_equilibrium", 0.0),
        "equilibrium.solve_calls": get("calls.equilibrium.solve_equilibrium",
                                       0.0),
        "equilibrium.partitions_scanned": get("partitions_scanned", 0.0),
        "equilibrium.omega_a_size": get("omega_a_size", 0.0),
        "equilibrium.cubic_residual_max": get("cubic_residual", 0.0),
        "equilibrium.identity_residual_max": get("identity_residual", 0.0),
        "sampling.sample_s": get("time.sampling.sample_allocations", 0.0),
        "sampling.rows": get("sample_rows", 0.0),
        "sampling.rows_per_s": _ratio(
            get("sample_rows", 0.0),
            get("time.sampling.sample_allocations", 0.0)),
        "sampling.mean_err_max": get("mean_err", 0.0),
        "oracle.payoff_matrix_s": get("time.oracle.payoff_matrices", 0.0),
        "oracle.fictitious_play_s": get("self.oracle.fictitious_play", 0.0),
        "oracle.strategies_d": get("strategies_d", 0.0),
        "oracle.strategies_a": get("strategies_a", 0.0),
        "oracle.iterations": get("iterations", 0.0),
        "oracle.converged_share": _ratio(
            get("converged", 0.0), get("calls.oracle.fictitious_play", 0.0)),
        "oracle.matrix_bytes": get("matrix_bytes", 0.0),
        "oracle.fp_bytes": get("fp_bytes", 0.0),
        "oracle.gap_max": get("gap", 0.0),
        "experiments.driver_self_s": get("self.experiments", 0.0),
        "bench.glue_s": get("self.bench", 0.0),
        "trace.probe_s": get("self.trace", 0.0),
        "trace.layer_self_sum_s": sum(get(f"self.{layer}", 0.0)
                                      for layer in LIBRARY_LAYERS),
    }
    for layer in LIBRARY_LAYERS[:-1]:
        out[f"{layer}.self_s"] = get(f"self.{layer}", 0.0)
    for stratum in AFFECTED_STRATA:
        out[f"metrics.cyber_affected_share.{stratum}"] = _ratio(
            get(f"changed_rows.{stratum}", 0.0), get(f"rows.{stratum}", 0.0))
    return out


def layer_metrics(spans: list[Span], op_pass: dict[int, int],
                  op_stratum: dict[int, str]) -> dict[str, float]:
    """Median over complete passes of each per-pass layer metric."""
    per_pass = [_per_pass(acc) for _, acc in
                sorted(_pass_totals(spans, op_pass, op_stratum).items())]
    out = {key: statistics.median(p[key] for p in per_pass)
           for key in per_pass[0]}
    apsp = [s.duration for s in spans
            if s.name == "metrics.all_pairs_shortest_paths"]
    out["metrics.apsp_s"] = statistics.median(apsp) if apsp else 0.0
    return out
