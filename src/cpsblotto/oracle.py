"""Independent numerical check of the analytic solver.

The continuous game is discretized onto an integer grid: each player's pure
strategies are the compositions of their (integer) budget over the
battlefields.  Simultaneous fictitious play on the discrete game approximates
the mixed equilibrium, and its time-averaged payoffs are compared against the
analytic ones.  This route shares no code with the analytic solver.  The
discrete game is exact-budget Colonel Blotto, the analytic one General Lotto
(budgets bind in expectation), so they can differ beyond grid error: on one
battlefield at R_D / R_A = 2.5, Blotto pays 1.0 / 0.0 and Lotto 0.8 / 0.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import ceil, comb, inf

import numpy as np

from .equilibrium import solve_equilibrium
from .model import check_budgets, is_integer

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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class FictitiousPlayResult:
    payoff_d: float
    payoff_a: float
    mixed_d: np.ndarray
    mixed_a: np.ndarray
    converged: bool
    convergence_gap: float
    # (payoff_d, payoff_a) of the time-averaged mixtures at each checkpoint.
    series: tuple[tuple[float, float], ...] = ()


def fictitious_play(game: DiscreteGame, iterations: int
                    ) -> FictitiousPlayResult:
    """Simultaneous fictitious play with uniform initial beliefs.

    Both players best-respond to the opponent's empirical mixture (seeded
    with one uniform pseudo-observation); best-response ties break toward the
    lower lexicographic strategy, so the run is fully deterministic.  The
    time-averaged payoffs are recorded every max(1, iterations // 200)
    iterations and at the end (`series`).  Convergence is judged by their
    maximum change over the last 10% of the checkpoints; a gap above
    CONVERGENCE_GAP is reported, not fatal.

    The result is bitwise that of the plain loop, which calls `argmax` on
    both score vectors and then adds the best responses' payoff column and
    row at every iteration.  Here both score vectors are views of one
    array, and one step is one in-place add of the stacked increment.
    While the pair of best responses stays the same, the loop repeats that
    add without calling `argmax`:

    - Each player's leader is its argmax, the lowest index on ties.  For
      every other entry j of that player, gap_j is the leader's score minus
      j's, and rate_j is j's increment minus the leader's.
    - With L steps left before the next checkpoint and t steps played, let
      tol = 2·L·eps·(S0 + (t + L)·P), where S0 is the largest initial
      |score| and P the largest |payoff|.  S0 + (t + L)·P bounds every
      score the run can reach, and each add rounds by at most eps/2 of it.
      So over L adds two entries' rounded gap moves at most L·eps·bound
      away from its exact value; the factor 2 covers the rounding of gap,
      rate and the bound itself.
    - A run of 1 + m steps keeps the pair when every j satisfies
      gap_j - k·rate_j > tol for each k in 1..m, i.e. the leader still
      leads after each of the first m adds.  A twin (gap_j = 0 and
      rate_j = 0) is exempt: its adds are bitwise the leader's, and its
      higher index keeps it behind.

    A run never crosses a checkpoint, and the best-response counts are
    exact integers, so the checkpoints, mixtures and gap are bitwise the
    plain loop's.
    """
    if not is_integer(iterations) or iterations < 10:
        raise ValueError("iterations must be an integer of at least 10")
    U_d, U_a = game.payoff_matrices()
    n_d, n_a = U_d.shape
    U_d_by_attack = np.ascontiguousarray(U_d.T)

    # Accumulated payoff against the opponent's history, seeded uniform.
    score = np.concatenate((U_d.mean(axis=1), U_a.mean(axis=0)))
    inc = np.empty_like(score)
    leaders = np.empty(score.size, dtype=np.intp)
    counts_d = np.zeros(n_d)
    counts_a = np.zeros(n_a)
    argmax_d = score[:n_d].argmax
    argmax_a = score[n_d:].argmax
    add = score.__iadd__
    eps = np.finfo(float).eps
    score_bound = float(np.abs(score).max())
    payoff_bound = float(max(np.abs(U_d).max(), np.abs(U_a).max()))

    pair = None
    checkpoints: list[tuple[float, float]] = []
    step = max(1, iterations // 200)
    t = 0
    for end in (*range(step, iterations, step), iterations):
        while t < end:
            br_d = argmax_d()
            br_a = argmax_a()
            if (br_d, br_a) != pair:
                pair = (br_d, br_a)
                inc[:n_d] = U_d_by_attack[br_a]
                inc[n_d:] = U_a[br_d]
                leaders[:n_d] = br_d
                leaders[n_d:] = n_d + br_a
                rate = inc - inc[leaders]
            left = end - t
            run = _safe_run(score[leaders] - score, rate, left,
                            2.0 * left * eps
                            * (score_bound + end * payoff_bound))
            for _ in range(run):
                add(inc)
            counts_d[br_d] += run
            counts_a[br_a] += run
            t += run
        p_d = counts_d / t
        p_a = counts_a / t
        checkpoints.append((float(p_d @ U_d @ p_a),
                            float(p_d @ U_a @ p_a)))

    tail = np.array(checkpoints[max(0, int(len(checkpoints) * 0.9) - 1):])
    gap = float((tail.max(axis=0) - tail.min(axis=0)).max())
    payoff_d, payoff_a = checkpoints[-1]
    return FictitiousPlayResult(
        payoff_d=payoff_d, payoff_a=payoff_a,
        mixed_d=counts_d / iterations, mixed_a=counts_a / iterations,
        converged=gap <= CONVERGENCE_GAP, convergence_gap=gap,
        series=tuple(checkpoints))


def _safe_run(gap: np.ndarray, rate: np.ndarray, left: int,
              tol: float) -> int:
    """Steps, 1 to `left`, over which the current best responses hold.

    `gap` and `rate` give each score entry's gap and rate to its player's
    leader (see `fictitious_play`); `tol` is the rounding bound over
    `left` adds.
    """
    closing = rate > 0.0
    # An entry that is not closing in is nearest after one add, at
    # gap - rate; a twin sits at exactly 0 there and is exempt.
    slack = (gap - rate)[~closing]
    if ((slack > 0.0) & (slack <= tol)).any():
        return 1
    if not closing.any():
        return left
    # A closing entry allows the k-th add only for k < (gap - tol) / rate.
    horizon = float(((gap[closing] - tol) / rate[closing]).min())
    return 1 + min(left - 1, max(0, ceil(horizon) - 1))


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
        grid_units: units for the smaller (attacker) budget, an integer of
            at least 20; 20 is a floor, not a bound on grid error.
        iterations: fictitious-play steps, an integer of at least 10.

    Raises:
        ValidationError: a budget, g or h is invalid (as in solve_equilibrium).
        ValueError: grid_units or iterations is not an integer or below its
            floor, or grid_units * R_D / R_A is not finite.
    """
    if not is_integer(grid_units) or grid_units < 20:
        raise ValueError("grid_units must be an integer of at least 20, a "
                         "floor, not an error bound")
    check_budgets(budget_d, budget_a)
    units_a = grid_units
    try:
        scaled_d = grid_units * float(budget_d) / float(budget_a)
    except OverflowError:   # grid_units is too large for a float
        scaled_d = inf
    if not np.isfinite(scaled_d):
        raise ValueError(f"defender units {grid_units} * R_D / R_A "
                         "must be finite")
    units_d = int(round(scaled_d))
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
