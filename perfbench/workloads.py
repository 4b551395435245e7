"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Each workload is a fixed list of strata.  A stratum names one kind of
operation at one size; the seed draws only the values inside it (tier
weights, flow fill, cyber link weights, value vectors, oracle instances),
never the sizes, so the time of an operation depends on the stratum and
barely on the seed.  A pass runs ``repeat`` operations of every stratum,
cycling through a pool of distinct inputs so that no input repeats within a
pass; cheap strata repeat so that their medians rest on more samples.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import api, checks

CHECK_SEED = 20261017
POOL = 4
BUDGET_A = 1.0


@dataclass(frozen=True)
class Stratum:
    """One kind of operation; ``run`` is timed, ``check`` is not.

    A pass runs ``repeat`` operations, on consecutive inputs of the pool.
    ``traced_run`` replaces ``run`` under tracing, and ``traced_check``
    also receives the untraced output for the same input.
    """

    name: str
    inputs: tuple
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    traced_run: Callable[[Any], Any] | None = None
    traced_check: Callable[[Any, Any, Any], list[str]] | None = None
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[Stratum, ...]
    verify: Callable[[], dict[str, list[str]]]


# ---------------------------------------------------------------------------
# system_values: battlefield_values -> solve_equilibrium on concentric systems
# ---------------------------------------------------------------------------

SV_TIERS = {"n41": (1, 8, 32), "n131": (1, 10, 40, 80),
            "n301": (1, 12, 48, 240)}
SV_TINY_TIERS = {"n41": (1, 2, 4), "n131": (1, 3, 6), "n301": (1, 3, 9)}
SV_REPEAT = {"n41": 8, "n131": 2, "n301": 1, "n301w": 1}


@dataclass(frozen=True)
class System:
    topology: Any
    params: Any
    levels: tuple


def _levels(rng: np.random.Generator, tiers: tuple[int, ...]) -> tuple:
    """Tier weights: reference in [3, 5], inner tiers [1.5, 3], leaves
    [0.5, 1.5]."""
    ranges = ([(3.0, 5.0)] + [(1.5, 3.0)] * (len(tiers) - 2)
              + [(0.5, 1.5)])
    return tuple((count, float(rng.uniform(lo, hi)))
                 for count, (lo, hi) in zip(tiers, ranges))


def _system(rng: np.random.Generator, tiers: tuple[int, ...],
            flow_fill: float | None = None) -> System:
    levels = _levels(rng, tiers)
    if flow_fill is None:
        flow_fill = float(rng.uniform(0.5, 0.9))
    topology = api.model.generate_concentric(list(levels), flow_fill)
    return System(topology, api.model.default_params(topology.n), levels)


def _weighted(rng: np.random.Generator, system: System) -> System:
    """The same skeleton with cyber link weights drawn from [0.5, 2]."""
    A = system.topology.cyber_adjacency
    W = np.triu(np.where(A > 0, rng.uniform(0.5, 2.0, A.shape), 0.0), 1)
    topology = dataclasses.replace(system.topology, cyber_adjacency=W + W.T)
    problems = api.model.validate(topology)
    if problems:
        raise api.model.ValidationError("; ".join(problems))
    return dataclasses.replace(system, topology=topology)


def _values(system: System):
    values = api.metrics.battlefield_values(system.topology, system.params)
    p = system.params
    solution = api.equilibrium.solve_equilibrium(
        values.defender, values.attacker, p.budget_d, p.budget_a)
    return values.defender, solution


def _values_by_layer(system: System):
    """The composition ``battlefield_values`` performs, one layer at a time."""
    topology, p = system.topology, system.params
    h = topology.human_interaction
    E = api.cascade.physical_effect_matrix(topology)
    T = api.metrics.cyber_effect_matrix(topology, p.t0)
    V = api.metrics.interdependency_matrix(E, T, p.alpha, p.beta)
    g = api.metrics.effective_values(h, V)
    solution = api.equilibrium.solve_equilibrium(g, h, p.budget_d,
                                                 p.budget_a)
    return E, T, g, solution


def _check_values(system: System, out) -> list[str]:
    g, solution = out
    p = system.params
    return (checks.values_problems(g)
            + checks.solution_problems(solution, p.budget_d, p.budget_a))


def _check_values_by_layer(system: System, out, untraced) -> list[str]:
    E, T, g, solution = out
    problems = checks.effect_problems(E, T, system.params.t0)
    problems += _check_values(system, (g, solution))
    if not np.array_equal(g, untraced[0]):
        problems.append("layer-by-layer g differs from battlefield_values g")
    return problems


def _system_pools(seed: int, tiny: bool) -> dict[str, tuple[System, ...]]:
    rng = np.random.default_rng(seed)
    tiers = SV_TINY_TIERS if tiny else SV_TIERS
    pools = {name: tuple(_system(rng, t)
                         for _ in range(max(POOL, SV_REPEAT[name])))
             for name, t in tiers.items()}
    pools["n301w"] = tuple(_weighted(rng, s) for s in pools["n301"])
    return pools


def _system_outputs(seed: int) -> dict[str, np.ndarray]:
    """E, T, g, mu and payoffs of the small check systems at ``seed``."""
    rng = np.random.default_rng(seed)
    n41 = _system(rng, SV_TIERS["n41"])
    n131 = _system(rng, SV_TIERS["n131"])
    out = {}
    for name, system in (("n41", n41), ("n41w", _weighted(rng, n41)),
                         ("n131", n131)):
        E, T, g, solution = _values_by_layer(system)
        key = f"system_values.{name}"
        out.update({f"{key}.E": E, f"{key}.T": T, f"{key}.g": g,
                    f"{key}.mu": np.array(solution.mu),
                    f"{key}.payoffs": np.array([solution.payoff_d,
                                                solution.payoff_a])})
    return out


def _verify_systems(seed: int) -> dict[str, list[str]]:
    rng = np.random.default_rng(seed)
    n41 = _system(rng, SV_TIERS["n41"])
    found = {}
    for name, system in (("n41", n41), ("n41w", _weighted(rng, n41))):
        E, T, g, solution = _values_by_layer(system)
        found[f"effects.{name}"] = _check_values_by_layer(
            system, (E, T, g, solution), _values(system))
    found["reference"] = checks.reference_problems(
        _system_outputs(CHECK_SEED), checks.load_reference())
    return found


def system_values(seed: int, tiny: bool = False) -> Workload:
    pools = _system_pools(seed, tiny)
    strata = tuple(
        Stratum(f"values_s.{name}", pool, _values, _check_values,
                _values_by_layer, _check_values_by_layer, SV_REPEAT[name])
        for name, pool in pools.items())
    return Workload("system_values", strata, lambda: _verify_systems(seed))


# ---------------------------------------------------------------------------
# paper_checks: sweeps, fig4 table and oracle cross-checks on 9 nodes
# ---------------------------------------------------------------------------

NINE_TIERS = (1, 3, 5)
FIG4_NODES = (0, 1, 4)
ORACLE_UNITS_A = 20


@dataclass(frozen=True)
class PaperSystem:
    system: System
    h: np.ndarray
    g: np.ndarray
    sample_seed: int


@dataclass(frozen=True)
class OracleInstance:
    g: np.ndarray
    h: np.ndarray
    units_d: int


def _paper_system(rng: np.random.Generator) -> PaperSystem:
    system = _system(rng, NINE_TIERS, flow_fill=0.7)
    values = api.metrics.battlefield_values(system.topology, system.params)
    return PaperSystem(system, values.attacker, values.defender,
                       int(rng.integers(0, 2**31)))


def _two_field(rng: np.random.Generator) -> OracleInstance:
    h_major = float(rng.uniform(0.50, 0.53))
    g_major = float(rng.uniform(0.47, 0.53))
    return OracleInstance(np.array([g_major, 1.0 - g_major]),
                          np.array([h_major, 1.0 - h_major]),
                          int(rng.integers(22, 26)))


def _three_field(rng: np.random.Generator) -> OracleInstance:
    """Values whose equilibrium supports fit inside the attacker budget."""
    units_d = int(rng.integers(22, 29))
    while True:
        h = api.model.normalize_weights(rng.uniform(0.2, 1.0, 3))
        g = api.model.normalize_weights(rng.uniform(0.2, 1.0, 3))
        solution = api.equilibrium.solve_equilibrium(
            g, h, float(units_d), float(ORACLE_UNITS_A))
        upper = max(m.support_upper for m in solution.marginals_d)
        if upper <= ORACLE_UNITS_A:
            return OracleInstance(g, h, units_d)


def _check_rows(rows, count: int, ok: Callable[[tuple], bool],
                what: str) -> list[str]:
    if len(rows) != count or not all(ok(row) for row in rows):
        return [f"{what}: malformed or out-of-range rows"]
    return []


def _flow_sweep(points: tuple[float, ...]):
    def run(paper: PaperSystem):
        return api.experiments.flow_capacity_sweep(
            points=points, levels=paper.system.levels)

    def check(paper: PaperSystem, rows) -> list[str]:
        return _check_rows(rows, len(points),
                           lambda r: 0.0 < r[1] < np.inf and 0.0 < r[2] < np.inf,
                           "flow sweep")
    return run, check


def _symmetry(paper: PaperSystem):
    return api.experiments.symmetry_sweep(paper.h, g_base=paper.g)


def _check_symmetry(paper: PaperSystem, rows) -> list[str]:
    problems = _check_rows(
        rows, len(api.experiments.DEFAULT_SWEEP_POINTS),
        lambda r: 0.0 < r[2] < np.inf and 0.0 < r[3] < np.inf,
        "symmetry sweep")
    spread = [row[1] for row in rows]
    if any(b > a for a, b in zip(spread, spread[1:])):
        problems.append("symmetry sweep: value spread grows with theta")
    return problems


def _fig4(points: tuple[float, ...], samples: int):
    def run(paper: PaperSystem):
        return api.experiments.band_probability_table(
            paper.h, FIG4_NODES, points=points, samples=samples,
            seed=paper.sample_seed, g_base=paper.g)

    def check(paper: PaperSystem, rows) -> list[str]:
        return _check_rows(rows, len(points) * len(FIG4_NODES) * 2,
                           lambda r: 0.0 <= r[5] <= 1.0, "fig4 table")
    return run, check


def _cross_validate(instance: OracleInstance):
    return api.oracle.cross_validate(
        instance.g, instance.h, float(instance.units_d),
        float(ORACLE_UNITS_A), grid_units=ORACLE_UNITS_A)


def _check_cross_validate(instance: OracleInstance, report) -> list[str]:
    return checks.oracle_problems(max(report.abs_diff_d, report.abs_diff_a))


def _paper_outputs(seed: int) -> dict[str, np.ndarray]:
    """g, mu, payoffs and both sweeps of the check system at ``seed``."""
    paper = _paper_system(np.random.default_rng(seed))
    p = paper.system.params
    solution = api.equilibrium.solve_equilibrium(paper.g, paper.h,
                                                 p.budget_d, p.budget_a)
    flow, _ = _flow_sweep(api.experiments.DEFAULT_SWEEP_POINTS)
    return {"paper_checks.g": paper.g,
            "paper_checks.mu": np.array(solution.mu),
            "paper_checks.payoffs": np.array([solution.payoff_d,
                                              solution.payoff_a]),
            "paper_checks.flow_sweep": np.array(flow(paper)),
            "paper_checks.symmetry_sweep": np.array(_symmetry(paper))}


def _verify_paper(seed: int) -> dict[str, list[str]]:
    system = _paper_system(np.random.default_rng(seed)).system
    E, T, g, solution = _values_by_layer(system)
    return {"effects.n9": _check_values_by_layer(system, (E, T, g, solution),
                                                 _values(system)),
            "reference": checks.reference_problems(
                _paper_outputs(CHECK_SEED), checks.load_reference())}


def paper_checks(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    papers = tuple(_paper_system(rng) for _ in range(POOL))
    two = tuple(_two_field(rng) for _ in range(POOL))
    three = tuple(_three_field(rng) for _ in range(POOL))
    points = (0.5, 1.0) if tiny else api.experiments.DEFAULT_SWEEP_POINTS
    samples = api.sampling.MIN_BAND_SAMPLES if tiny else 100_000
    strata = (
        Stratum("flow_sweep_s", papers, *_flow_sweep(points), repeat=2),
        Stratum("symmetry_sweep_s", papers, _symmetry, _check_symmetry,
                repeat=4),
        Stratum("fig4_s", papers, *_fig4(points, samples)),
        Stratum("oracle_s.f2", two, _cross_validate, _check_cross_validate),
        Stratum("oracle_s.f3", three, _cross_validate, _check_cross_validate),
    )
    return Workload("paper_checks", strata, lambda: _verify_paper(seed))


# ---------------------------------------------------------------------------
# solve_large: solve_equilibrium + sample_allocations on random values
# ---------------------------------------------------------------------------

RATIOS = (1.0, 1.5, 2.5, 4.0)
DISPERSIONS = (0.3, 1.0, 10.0)
LARGE_N, LARGE_ROWS = 5000, 1000


class Instance:
    """Dirichlet (g, h) at one budget ratio; ``solution`` is filled by the
    stratum's solve operation and read by its draw operation."""

    def __init__(self, rng: np.random.Generator, n: int, ratio: float,
                 dispersion: float, rows: int) -> None:
        alpha = np.full(n, dispersion)
        self.g = api.model.normalize_weights(rng.dirichlet(alpha))
        self.h = api.model.normalize_weights(rng.dirichlet(alpha))
        self.budget_d = ratio * BUDGET_A
        self.rows = rows
        self.draw_seed = int(rng.integers(0, 2**31))
        self.solution = None


def _solve(inst: Instance):
    solution = api.equilibrium.solve_equilibrium(inst.g, inst.h,
                                                 inst.budget_d, BUDGET_A)
    inst.solution = solution
    return solution


def _check_solve(inst: Instance, solution) -> list[str]:
    return checks.solution_problems(solution, inst.budget_d, BUDGET_A)


def _draw(inst: Instance):
    return api.sampling.sample_allocations(
        inst.solution.marginals_d, inst.budget_d, inst.rows,
        np.random.default_rng(inst.draw_seed))


def _check_draw(inst: Instance, rows) -> list[str]:
    if rows.shape != (inst.rows, inst.g.size):
        return [f"draw returned shape {rows.shape}"]
    return checks.row_sum_problems(rows, inst.budget_d)


def _large_pools(seed: int, n: int, rows: int) -> dict[tuple, tuple]:
    rng = np.random.default_rng(seed)
    return {(ratio, dispersion):
            tuple(Instance(rng, n, ratio, dispersion, rows)
                  for _ in range(2))
            for ratio in RATIOS for dispersion in DISPERSIONS}


def _large_outputs(seed: int) -> dict[str, np.ndarray]:
    """mu and payoffs of two cheap grid points at ``seed``."""
    out = {}
    for (ratio, dispersion), pool in _large_pools(seed, LARGE_N,
                                                  LARGE_ROWS).items():
        if ratio >= 2.5 and dispersion == 10.0:
            solution = _solve(pool[0])
            key = f"solve_large.q{ratio}.d{dispersion}"
            out[f"{key}.mu"] = np.array(solution.mu)
            out[f"{key}.payoffs"] = np.array([solution.payoff_d,
                                              solution.payoff_a])
    return out


def solve_large(seed: int, tiny: bool = False) -> Workload:
    n, rows = (200, 50) if tiny else (LARGE_N, LARGE_ROWS)
    strata = []
    for (ratio, dispersion), pool in _large_pools(seed, n, rows).items():
        key = f"q{ratio}.d{dispersion}"
        # Solves at q >= 2.5 take tens of milliseconds; two per pass.
        strata.append(Stratum(f"solve_s.{key}", pool, _solve, _check_solve,
                              repeat=1 if ratio < 2.5 else 2))
        strata.append(Stratum(f"draw_s.{key}", pool, _draw, _check_draw))

    def verify() -> dict[str, list[str]]:
        return {"reference": checks.reference_problems(
            _large_outputs(CHECK_SEED), checks.load_reference())}
    return Workload("solve_large", tuple(strata), verify)


WORKLOADS = {"system_values": system_values, "paper_checks": paper_checks,
             "solve_large": solve_large}


def reference_outputs() -> dict[str, np.ndarray]:
    """Every value compared against ``reference.npz``, at the check seed."""
    return {**_system_outputs(CHECK_SEED), **_paper_outputs(CHECK_SEED),
            **_large_outputs(CHECK_SEED)}
