"""Independent numerical check of the analytic solver.

The continuous game is discretized onto an integer grid: each player's pure
strategies are the compositions of their (integer) budget over the
battlefields.  Simultaneous fictitious play on the discrete game approximates
the mixed equilibrium, and its time-averaged payoffs are compared against the
analytic ones.  This route shares no code with the analytic solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .equilibrium import solve_equilibrium

MAX_STRATEGIES = 1_000_000
MAX_MATRIX_ENTRIES = 20_000_000
PAYOFF_TOLERANCE = 0.03
CONVERGENCE_GAP = 0.01


def enumerate_strategies(units: int, battlefields: int) -> np.ndarray:
    """All ways to split `units` indivisible units over battlefields.

    Rows are in ascending lexicographic order.

    Raises:
        ValueError: the composition count exceeds MAX_STRATEGIES.
    """
    if units < 0 or battlefields < 1:
        raise ValueError("units must be >= 0 and battlefields >= 1")
    count = comb(units + battlefields - 1, battlefields - 1)
    if count > MAX_STRATEGIES:
        raise ValueError(
            f"{count} strategies exceed the {MAX_STRATEGIES} cap")
    # Stars and bars: the parts are the gaps between battlefields - 1 bars
    # among `slots` positions; combinations() keeps lexicographic order.
    slots = units + battlefields - 1
    bars = np.fromiter(
        chain.from_iterable(combinations(range(slots), battlefields - 1)),
        dtype=np.int64, count=count * (battlefields - 1))
    edges = np.pad(bars.reshape(count, battlefields - 1), ((0, 0), (1, 1)),
                   constant_values=(-1, slots))
    return np.diff(edges, axis=1) - 1


@dataclass(frozen=True)
class DiscreteGame:
    """Discrete allocation game on an integer grid.

    The strictly larger allocation wins a battlefield; ties pay nobody.
    """

    values_d: np.ndarray
    values_a: np.ndarray
    units_d: int
    units_a: int

    def payoff_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_D, U_A), indexed [defender strategy, attacker strategy]."""
        S_d = enumerate_strategies(self.units_d, self.values_d.size)
        S_a = enumerate_strategies(self.units_a, self.values_a.size)
        if S_d.shape[0] * S_a.shape[0] > MAX_MATRIX_ENTRIES:
            raise ValueError("payoff matrix would exceed the memory cap")
        U_d = np.zeros((S_d.shape[0], S_a.shape[0]))
        U_a = np.zeros_like(U_d)
        for i in range(self.values_d.size):
            d_col = S_d[:, i][:, None]
            a_row = S_a[:, i][None, :]
            U_d += self.values_d[i] * (d_col > a_row)
            U_a += self.values_a[i] * (a_row > d_col)
        return U_d, U_a


@dataclass(frozen=True)
class FictitiousPlayResult:
    payoff_d: float
    payoff_a: float
    mixed_d: np.ndarray
    mixed_a: np.ndarray
    converged: bool
    convergence_gap: float


def fictitious_play(game: DiscreteGame, iterations: int = 40_000
                    ) -> FictitiousPlayResult:
    """Simultaneous fictitious play with uniform initial beliefs.

    Both players best-respond to the opponent's empirical mixture (seeded
    with one uniform pseudo-observation); best-response ties break toward the
    lower lexicographic strategy, so the run is fully deterministic.
    Convergence is judged by the maximum change of the time-averaged payoffs
    over the last 10% of iterations; a gap above CONVERGENCE_GAP is
    reported, not fatal.
    """
    if iterations < 10:
        raise ValueError("iterations must be at least 10")
    U_d, U_a = game.payoff_matrices()
    n_d, n_a = U_d.shape

    # Accumulated payoff against the opponent's history, seeded uniform.
    score_d = U_d.mean(axis=1)
    score_a = U_a.mean(axis=0)
    counts_d = np.zeros(n_d)
    counts_a = np.zeros(n_a)
    # The loop is Python-bound at these sizes: bound argmax methods skip
    # numpy's dispatch wrapper, the transposed copy makes the defender's
    # payoff read a contiguous row, and the best responses are counted once
    # per checkpoint instead of once per iteration.
    argmax_d = score_d.argmax
    argmax_a = score_a.argmax
    U_d_by_attack = np.ascontiguousarray(U_d.T)
    played_d: list[int] = []
    played_a: list[int] = []

    checkpoints: list[tuple[float, float]] = []
    step = max(1, iterations // 200)
    t = 0
    for end in (*range(step, iterations, step), iterations):
        for _ in range(end - t):
            br_d = argmax_d()
            br_a = argmax_a()
            played_d.append(br_d)
            played_a.append(br_a)
            score_d += U_d_by_attack[br_a]
            score_a += U_a[br_d]
        t = end
        counts_d += np.bincount(played_d, minlength=n_d)
        counts_a += np.bincount(played_a, minlength=n_a)
        played_d.clear()
        played_a.clear()
        p_d = counts_d / t
        p_a = counts_a / t
        checkpoints.append((float(p_d @ U_d @ p_a),
                            float(p_d @ U_a @ p_a)))

    tail = checkpoints[max(0, int(len(checkpoints) * 0.9) - 1):]
    series = np.array(tail)
    gap = float((series.max(axis=0) - series.min(axis=0)).max())
    payoff_d, payoff_a = checkpoints[-1]
    return FictitiousPlayResult(
        payoff_d=payoff_d, payoff_a=payoff_a,
        mixed_d=counts_d / iterations, mixed_a=counts_a / iterations,
        converged=gap <= CONVERGENCE_GAP, convergence_gap=gap)


@dataclass(frozen=True)
class CrossValidationReport:
    analytic_payoff_d: float
    analytic_payoff_a: float
    oracle_payoff_d: float
    oracle_payoff_a: float
    abs_diff_d: float
    abs_diff_a: float
    converged: bool
    grid_units: int

    @property
    def passed(self) -> bool:
        return max(self.abs_diff_d, self.abs_diff_a) <= PAYOFF_TOLERANCE

    def document(self) -> dict:
        return {
            "analytic": {"payoff_D": self.analytic_payoff_d,
                         "payoff_A": self.analytic_payoff_a},
            "oracle": {"payoff_D": self.oracle_payoff_d,
                       "payoff_A": self.oracle_payoff_a},
            "abs_diff": max(self.abs_diff_d, self.abs_diff_a),
            "converged": self.converged,
            "grid_units": self.grid_units,
        }


def cross_validate(g: np.ndarray, h: np.ndarray, budget_d: float,
                   budget_a: float, grid_units: int = 25,
                   iterations: int = 60_000) -> CrossValidationReport:
    """Compare analytic payoffs against the discrete fictitious-play oracle.

    The attacker budget maps to `grid_units` integer units and the defender
    budget to the rounded scaled count; the analytic game is solved at the
    effective integer budgets so discretization of the ratio does not enter
    the comparison.

    Args:
        grid_units: units for the smaller (attacker) budget, at least 20.
    """
    if grid_units < 20:
        raise ValueError("grid_units must be at least 20 to bound grid error")
    units_a = grid_units
    units_d = int(round(grid_units * budget_d / budget_a))
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)

    analytic = solve_equilibrium(g, h, float(units_d), float(units_a))
    game = DiscreteGame(values_d=g, values_a=h,
                        units_d=units_d, units_a=units_a)
    played = fictitious_play(game, iterations=iterations)
    return CrossValidationReport(
        analytic_payoff_d=analytic.payoff_d,
        analytic_payoff_a=analytic.payoff_a,
        oracle_payoff_d=played.payoff_d,
        oracle_payoff_a=played.payoff_a,
        abs_diff_d=abs(analytic.payoff_d - played.payoff_d),
        abs_diff_a=abs(analytic.payoff_a - played.payoff_a),
        converged=played.converged, grid_units=grid_units)
