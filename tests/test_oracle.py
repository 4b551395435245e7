"""Discrete-grid oracle: enumeration, payoff matrices, fictitious play."""

import itertools

import numpy as np
import pytest

from cpsblotto import ValidationError, cross_validate, single_dependency_case
from cpsblotto.oracle import (CONVERGENCE_GAP, DiscreteGame, _safe_run,
                              enumerate_strategies, fictitious_play)

UNIFORM3 = np.full(3, 1.0 / 3.0)


def test_enumerate_strategies_counts_and_order():
    S = enumerate_strategies(3, 2)
    assert np.array_equal(S, [[0, 3], [1, 2], [2, 1], [3, 0]])
    S = enumerate_strategies(5, 3)
    assert S.shape == (21, 3)          # C(7, 2)
    assert np.all(S.sum(axis=1) == 5)
    assert np.array_equal(S[0], [0, 0, 5])
    assert np.array_equal(S[-1], [5, 0, 0])
    # ascending lexicographic order
    as_tuples = [tuple(row) for row in S]
    assert as_tuples == sorted(as_tuples)
    # every composition, in the order a filtered product yields them
    for units in range(9):
        for battlefields in range(1, 5):
            expected = [row for row in itertools.product(
                range(units + 1), repeat=battlefields) if sum(row) == units]
            S = enumerate_strategies(units, battlefields)
            assert S.dtype == np.int64
            assert np.array_equal(S, np.array(expected, dtype=np.int64))


def test_enumerate_strategies_guards():
    with pytest.raises(ValueError):
        enumerate_strategies(-1, 2)
    with pytest.raises(ValueError):
        enumerate_strategies(3, 0)
    with pytest.raises(ValueError, match="exceed"):
        enumerate_strategies(60, 6)    # C(65, 5) is over the cap


def test_payoff_matrices_by_hand():
    game = DiscreteGame(values_d=np.array([0.6, 0.4]),
                        values_a=np.array([0.5, 0.5]),
                        units_d=1, units_a=1)
    U_d, U_a = game.payoff_matrices()
    # strategies on both sides: [0,1], [1,0]; ties pay nobody
    assert np.allclose(U_d, [[0.0, 0.4], [0.6, 0.0]])
    assert np.allclose(U_a, [[0.0, 0.5], [0.5, 0.0]])


def test_matrix_memory_guard():
    game = DiscreteGame(values_d=np.full(4, 0.25), values_a=np.full(4, 0.25),
                        units_d=100, units_a=100)
    with pytest.raises(ValueError, match="memory cap"):
        game.payoff_matrices()


def test_payoff_matrices_are_sized_before_enumerating(monkeypatch):
    calls = []
    monkeypatch.setattr("cpsblotto.oracle.enumerate_strategies",
                        lambda *args: calls.append(args))
    values = np.array([0.4, 0.35, 0.25])
    with pytest.raises(ValueError, match="^payoff matrix of 721801 x 231 "
                       "strategies would exceed the memory cap"):
        cross_validate(values, values, budget_d=60.0, budget_a=1.0,
                       grid_units=20)
    assert calls == []


def test_single_battlefield_richer_player_always_wins():
    game = DiscreteGame(values_d=np.array([1.0]), values_a=np.array([1.0]),
                        units_d=2, units_a=1)
    result = fictitious_play(game, iterations=100)
    assert result.payoff_d == 1.0
    assert result.payoff_a == 0.0
    assert result.converged


def test_fictitious_play_is_deterministic():
    game = DiscreteGame(values_d=UNIFORM3, values_a=UNIFORM3,
                        units_d=6, units_a=5)
    a = fictitious_play(game, iterations=2000)
    b = fictitious_play(game, iterations=2000)
    assert a.payoff_d == b.payoff_d
    assert np.array_equal(a.mixed_d, b.mixed_d)
    assert 0.0 <= a.payoff_a <= 1.0 and 0.0 <= a.payoff_d <= 1.0
    assert np.isclose(a.mixed_d.sum(), 1.0)
    with pytest.raises(ValueError):
        fictitious_play(game, iterations=5)


def reference_fictitious_play(game, iterations):
    """Fictitious play before the lean loop: module-level argmax, a strided
    column read and a per-iteration count update."""
    U_d, U_a = game.payoff_matrices()
    score_d = U_d.mean(axis=1)
    score_a = U_a.mean(axis=0)
    counts_d = np.zeros(U_d.shape[0])
    counts_a = np.zeros(U_d.shape[1])
    checkpoints = []
    step = max(1, iterations // 200)
    for t in range(1, iterations + 1):
        br_d = int(np.argmax(score_d))
        br_a = int(np.argmax(score_a))
        counts_d[br_d] += 1.0
        counts_a[br_a] += 1.0
        score_d += U_d[:, br_a]
        score_a += U_a[br_d, :]
        if t % step == 0 or t == iterations:
            p_d = counts_d / t
            p_a = counts_a / t
            checkpoints.append((float(p_d @ U_d @ p_a),
                                float(p_d @ U_a @ p_a)))
    series = np.array(checkpoints[max(0, int(len(checkpoints) * 0.9) - 1):])
    gap = float((series.max(axis=0) - series.min(axis=0)).max())
    return (*checkpoints[-1], counts_d / iterations, counts_a / iterations,
            gap)


@pytest.mark.parametrize("iterations", [10, 1999, 3000])
def test_fictitious_play_matches_the_reference_bitwise(iterations):
    for game in (DiscreteGame(values_d=np.array([0.52, 0.48]),
                              values_a=np.array([0.51, 0.49]),
                              units_d=24, units_a=20),
                 DiscreteGame(values_d=np.array([0.4, 0.35, 0.25]),
                              values_a=np.array([0.5, 0.3, 0.2]),
                              units_d=25, units_a=20)):
        result = fictitious_play(game, iterations=iterations)
        payoff_d, payoff_a, mixed_d, mixed_a, gap = reference_fictitious_play(
            game, iterations)
        assert result.payoff_d == payoff_d
        assert result.payoff_a == payoff_a
        assert result.mixed_d.tobytes() == mixed_d.tobytes()
        assert result.mixed_a.tobytes() == mixed_a.tobytes()
        assert result.convergence_gap == gap


def test_fictitious_play_matches_the_reference_on_random_games():
    # the run-skipping loop must stay bitwise the per-step loop, also when
    # equal values make strategies tie exactly (twins) and when the
    # iteration count is short or not a multiple of the checkpoint step
    rng = np.random.default_rng(13)
    for index in range(100):
        fields = int(rng.integers(1, 4))
        if index % 3 == 0:
            values_d = values_a = np.full(fields, 1.0 / fields)
        else:
            values_d = rng.dirichlet(np.ones(fields))
            values_a = rng.dirichlet(np.ones(fields))
        game = DiscreteGame(values_d=values_d, values_a=values_a,
                            units_d=int(rng.integers(1, 14)),
                            units_a=int(rng.integers(1, 14)))
        iterations = int(rng.integers(10, 200) if index % 2 else
                         rng.integers(200, 3001))
        result = fictitious_play(game, iterations=iterations)
        payoff_d, payoff_a, mixed_d, mixed_a, gap = reference_fictitious_play(
            game, iterations)
        assert result.payoff_d == payoff_d, index
        assert result.payoff_a == payoff_a, index
        assert result.mixed_d.tobytes() == mixed_d.tobytes(), index
        assert result.mixed_a.tobytes() == mixed_a.tobytes(), index
        assert result.convergence_gap == gap, index
        assert result.converged == (gap <= CONVERGENCE_GAP), index


def test_safe_runs_keep_the_leader_on_near_ties():
    # entries a few ulps behind a leader just below a power of two tie or
    # overtake it once the sums cross into the next binade; over every
    # run _safe_run grants, the plain loop's argmax must stay the leader
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        lead = int(rng.integers(n))
        top = 2.0 ** int(rng.integers(1, 14)) * (1.0 - rng.uniform(0, 1e-3))
        inc_lead = rng.uniform(0.0, 1.0)
        kinds = rng.choice(["far", "near", "near", "near", "closing"], n)
        # entries after the leader may equal it: twins when "near"
        ulps = rng.integers(0, 4, n)
        ulps[:lead] = np.maximum(ulps[:lead], 1)
        score = np.where(kinds == "far", rng.uniform(0.0, top, n),
                         top - ulps * np.spacing(top))
        score[lead] = top
        inc = np.where(kinds == "closing", np.nextafter(inc_lead, 2.0),
                       inc_lead)
        inc[lead] = inc_lead
        leaders = np.full(n, lead)
        rate = inc - inc_lead
        # left = 1 first: its run of 1 leaves score untouched
        for left in (1, 50):
            tol = 2.0 * left * np.finfo(float).eps * (top + left * inc.max())
            run = _safe_run(score[leaders] - score, rate, left, tol)
            assert 1 <= run <= left
            for _ in range(run - 1):
                score += inc
                assert score.argmax() == lead


def test_fictitious_play_reports_its_checkpoint_series():
    game = DiscreteGame(values_d=np.array([0.4, 0.35, 0.25]),
                        values_a=np.array([0.5, 0.3, 0.2]),
                        units_d=25, units_a=20)
    result = fictitious_play(game, iterations=2999)
    step = 2999 // 200
    assert len(result.series) == -(-2999 // step)
    assert result.series[-1] == (result.payoff_d, result.payoff_a)
    tail = np.array(result.series[int(len(result.series) * 0.9) - 1:])
    assert result.convergence_gap == (tail.max(axis=0)
                                      - tail.min(axis=0)).max()


def test_two_field_shutout_is_reported_honestly():
    # with twice the budget on two equal fields the defender can cover both
    # possible attacks outright; the relaxed analytic value cannot see that,
    # and the report must say so rather than paper over it
    report = cross_validate([0.5, 0.5], [0.5, 0.5], budget_d=25.0,
                            budget_a=10.0, grid_units=25)
    assert report.oracle_payoff_d == 1.0
    assert report.oracle_payoff_a == 0.0
    assert abs(report.abs_diff_a - 0.201613) < 1e-6
    assert not report.passed
    assert report.converged
    doc = report.document()
    assert set(doc) == {"analytic", "oracle", "abs_diff", "converged",
                        "grid_units"}
    assert doc["abs_diff"] == max(report.abs_diff_d, report.abs_diff_a)


def test_one_field_lotto_and_blotto_values_differ():
    # The solver solves General Lotto, where a budget binds in expectation:
    # on one field the defender draws uniformly on [0, 2 R_D], the attacker
    # does the same with probability R_A / R_D and bids 0 otherwise, and so
    # wins R_A / (2 R_D) = 0.2.  The oracle plays exact-budget Blotto, where
    # the richer defender bids all of R_D and takes the field outright.
    report = cross_validate([1.0], [1.0], 2.5, 1.0, 20, 2000)
    assert (report.analytic_payoff_d, report.analytic_payoff_a) == (0.8, 0.2)
    assert (report.oracle_payoff_d, report.oracle_payoff_a) == (1.0, 0.0)
    assert report.abs_diff_a == 0.2
    assert not report.passed


def test_cross_validation_in_the_feasible_regime():
    # moderate budget advantage, no extreme value skew: both routes agree
    h = np.array([0.5, 0.3, 0.2])
    g = single_dependency_case(h, 24.0, 20.0).g
    report = cross_validate(g, h, budget_d=24.0, budget_a=20.0, grid_units=20)
    assert report.passed
    assert abs(report.abs_diff_d - 0.029210) < 1e-5
    assert abs(report.abs_diff_a - 0.006267) < 1e-5

    uniform = cross_validate(UNIFORM3, UNIFORM3, 25.0, 20.0, grid_units=20)
    assert uniform.passed
    assert max(uniform.abs_diff_d, uniform.abs_diff_a) < 0.006


def test_grid_floor_is_enforced():
    with pytest.raises(ValueError, match="at least 20"):
        cross_validate([0.5, 0.5], [0.5, 0.5], 2.5, 1.0, grid_units=19)


@pytest.mark.parametrize("keyword, value, floor", [
    ("grid_units", 25.0, 20),
    ("grid_units", np.float64(25), 20),
    ("iterations", 100.5, 10),
])
def test_unit_and_iteration_counts_must_be_integers(keyword, value, floor):
    # A float count once reached math.comb and raised TypeError there.
    with pytest.raises(ValueError,
                       match=f"^{keyword} must be an integer of at least "
                             f"{floor}"):
        cross_validate([0.5, 0.5], [0.5, 0.5], 2.5, 1.0, **{keyword: value})


@pytest.mark.parametrize("budget_d, budget_a, message", [
    (np.inf, 1.0, "R_D must be finite"),
    (np.nan, 1.0, "R_D must be finite"),
    (2.5, 0.0, "R_A must be finite and positive, got 0.0"),
])
def test_cross_validate_checks_budgets_before_gridding(budget_d, budget_a,
                                                       message):
    # Turning these budgets into grid units once raised OverflowError,
    # "cannot convert float NaN to integer" and ZeroDivisionError.
    with pytest.raises(ValidationError, match=f"^{message}$"):
        cross_validate(UNIFORM3, UNIFORM3, budget_d, budget_a, grid_units=20)


def test_finer_grids_track_the_analytic_value_more_closely():
    errors = []
    for grid, iters in ((20, 60_000), (32, 90_000)):
        report = cross_validate(UNIFORM3, UNIFORM3, 1.25, 1.0,
                                grid_units=grid, iterations=iters)
        errors.append(max(report.abs_diff_d, report.abs_diff_a))
    assert errors[1] < errors[0]
    assert abs(errors[0] - 0.00578) < 1e-4
    assert abs(errors[1] - 0.00332) < 1e-4
