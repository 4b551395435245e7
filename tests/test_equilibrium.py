"""Analytic equilibrium: multipliers, marginals, payoffs, closed forms."""

import json
import warnings

import numpy as np
import pytest

from cpsblotto import (EquilibriumRegimeError, complete_info_payoffs,
                       normalize_weights, single_dependency_case,
                       solution_document, solution_from_document,
                       solution_to_json, solve_equilibrium)
from cpsblotto import equilibrium
from cpsblotto.equilibrium import (CUBIC_RESIDUAL_RTOL, _cubic_scale,
                                   _cubic_value, _head_sums,
                                   _passes_residual_gate, _polish_root,
                                   _real_roots, _scan_partitions, _tail_sums)

UNIFORM4 = np.full(4, 0.25)


def test_symmetric_values_collapse_to_budget_ratio():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, budget_d=2.5, budget_a=1.0)
    assert sol.omega_a == frozenset()
    assert abs(sol.mu - 2.5) < 1e-12
    assert abs(sol.lambda_a - 0.2) < 1e-15   # 1 / (2 R_D)
    assert abs(sol.lambda_d - 0.08) < 1e-15
    assert abs(sol.payoff_a - 0.2) < 1e-15
    assert abs(sol.payoff_d - 0.8) < 1e-15
    for marginal in sol.marginals_a:
        assert abs(marginal.atom_at_zero - 0.6) < 1e-12
        assert abs(marginal.support_upper - 1.25) < 1e-12
    for marginal in sol.marginals_d:
        assert marginal.atom_at_zero == 0.0


def test_any_g_equals_h_matches_complete_info():
    # equal values wash out the asymmetry no matter how skewed they are
    h = np.array([0.4, 0.3, 0.2, 0.1])
    for budget_d, budget_a in ((2.5, 1.0), (1.0, 1.0), (7.0, 2.0)):
        sol = solve_equilibrium(h, h, budget_d, budget_a)
        expect_d, expect_a = complete_info_payoffs(budget_d, budget_a)
        assert abs(sol.payoff_d - expect_d) < 1e-12
        assert abs(sol.payoff_a - expect_a) < 1e-12
        assert abs(sol.mu - budget_d / budget_a) < 1e-12


def test_complete_info_closed_form():
    assert complete_info_payoffs(2.5, 1.0) == (0.8, 0.2)
    assert complete_info_payoffs(1.0, 1.0) == (0.5, 0.5)
    with pytest.raises(ValueError):
        complete_info_payoffs(1.0, 2.0)


def test_marginal_means_recover_both_budgets():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        g = normalize_weights(rng.uniform(0.1, 1.0, n))
        h = normalize_weights(rng.uniform(0.1, 1.0, n))
        budget_a = float(rng.uniform(0.5, 2.0))
        budget_d = budget_a * float(rng.uniform(1.0, 3.0))
        try:
            sol = solve_equilibrium(g, h, budget_d, budget_a)
        except EquilibriumRegimeError:
            continue
        spend_d = sum(m.mean() for m in sol.marginals_d)
        spend_a = sum(m.mean() for m in sol.marginals_a)
        assert abs(spend_d - budget_d) < 1e-9 * budget_d
        assert abs(spend_a - budget_a) < 1e-9 * budget_a


def test_partition_matches_ratio_threshold():
    g = np.array([0.2, 0.4, 0.4])
    h = np.array([0.7, 0.2, 0.1])
    sol = solve_equilibrium(g, h, budget_d=1.0, budget_a=1.0)
    ratios = h / g
    assert sol.omega_a == frozenset(np.flatnonzero(ratios > sol.mu).tolist())
    assert len(sol.omega_a) > 0  # the 3.5x battlefield is attacker-favored
    for marginal in sol.marginals_d + sol.marginals_a:
        assert 0.0 <= marginal.atom_at_zero <= 1.0
        assert marginal.support_upper > 0.0
    assert 0.0 <= sol.payoff_a <= 1.0 and 0.0 <= sol.payoff_d <= 1.0


def test_cubic_residual_against_independent_recompute():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = normalize_weights(rng.uniform(0.05, 1.0, n))
        h = normalize_weights(rng.uniform(0.05, 1.0, n))
        budget_a = float(rng.uniform(0.5, 3.0))
        budget_d = budget_a * float(rng.uniform(1.0, 4.0))
        try:
            sol = solve_equilibrium(g, h, budget_d, budget_a)
        except EquilibriumRegimeError:
            continue
        q = budget_d / budget_a
        inside = np.zeros(n, dtype=bool)
        inside[list(sol.omega_a)] = True
        a = (g[inside] ** 2 / h[inside]).sum()
        b = -q * g[inside].sum()
        c = h[~inside].sum()
        d = -q * (h[~inside] ** 2 / g[~inside]).sum()
        value = ((a * sol.mu + b) * sol.mu + c) * sol.mu + d
        scale = max(abs(a * sol.mu ** 3), abs(b * sol.mu ** 2),
                    abs(c * sol.mu), abs(d))
        assert abs(value) <= 1e-10 * scale
        assert sol.cubic_residual <= 1e-10
        checked += 1
    assert checked >= 25


def _masked_scan_reference(g, h, q):
    """The per-partition scan that re-sums each partition's cubic over a
    fresh mask; returns (mu, mask, lambda_d, lambda_a, payoff_d, payoff_a),
    with the budget normalized to R_A = 1."""
    n = g.size
    ratios = h / g
    order = np.argsort(ratios, kind="stable")
    sorted_ratios = ratios[order]
    for split in range(n, -1, -1):
        inside = np.zeros(n, dtype=bool)
        inside[order[split:]] = True
        outside = ~inside
        lo = float(sorted_ratios[split - 1]) if split >= 1 else 0.0
        hi = float(sorted_ratios[split]) if split < n else np.inf
        if split < n and hi <= lo:
            continue
        coeffs = (float((g[inside] ** 2 / h[inside]).sum()),
                  float(-q * g[inside].sum()),
                  float(h[outside].sum()),
                  float(-q * (h[outside] ** 2 / g[outside]).sum()))
        for root in _real_roots(coeffs):
            if root <= 0.0:
                continue
            mu = _polish_root(coeffs, root,
                              max(lo, np.nextafter(0.0, 1.0)), hi)
            if not (lo <= mu < hi) or mu <= 0.0:
                continue
            if abs(_cubic_value(coeffs, mu)) > (CUBIC_RESIDUAL_RTOL
                                                * _cubic_scale(coeffs, mu)):
                continue
            if not np.array_equal(ratios > mu, inside):
                continue
            lambda_d = (g[inside].sum() / 2.0
                        + (h[outside] ** 2 / g[outside]).sum()
                        / (2.0 * mu ** 2))
            p_attacker = np.where(inside, 1.0 - g * mu / (2.0 * h),
                                  h / (2.0 * g * mu))
            return (mu, inside, lambda_d, mu * lambda_d,
                    float((g * (1.0 - p_attacker)).sum()),
                    float((h * p_attacker).sum()))
    return None


def _scan_cases():
    rng = np.random.default_rng(20261018)
    for n in (1, 2, 3, 9, 50, 500):
        for dispersion in (0.3, 1.0, 10.0):
            for _ in range(3):
                alpha = np.full(n, dispersion)
                g = normalize_weights(rng.dirichlet(alpha))
                h = normalize_weights(rng.dirichlet(alpha))
                yield g, h, float(rng.uniform(1.0, 4.0))
    for n in (2, 3, 9, 50, 500):
        for _ in range(4):
            # Repeated values give repeated ratios; g permutes h on the moved
            # entries and equals it everywhere else.
            h = normalize_weights(rng.choice([1.0, 2.0, 8.0], size=n))
            g = h.copy()
            moved = np.flatnonzero(rng.random(n) < 0.5)
            g[moved] = h[rng.permutation(moved)]
            yield g, h, float(rng.uniform(1.0, 4.0))


def test_prefix_sum_scan_matches_masked_reference():
    solved = 0
    for g, h, q in _scan_cases():
        expected = _masked_scan_reference(g, h, q)
        if expected is None:
            with pytest.raises(EquilibriumRegimeError):
                solve_equilibrium(g, h, q, 1.0)
            continue
        mu, inside, lambda_d, lambda_a, payoff_d, payoff_a = expected
        sol = solve_equilibrium(g, h, q, 1.0)
        assert sol.omega_a == frozenset(np.flatnonzero(inside).tolist())
        for got, want in ((sol.mu, mu), (sol.lambda_d, lambda_d),
                          (sol.lambda_a, lambda_a), (sol.payoff_d, payoff_d),
                          (sol.payoff_a, payoff_a)):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(sol.lambda_a / sol.lambda_d - sol.mu) <= 1e-12 * sol.mu
        solved += 1
    assert solved >= 60


def _unscreened_scan_reference(g, h, q):
    """The prefix-sum scan without the bracket screen: every split from n
    down to 0 goes through the root solve.  Returns (mu, mask) or None."""
    n = g.size
    ratios = h / g
    order = np.argsort(ratios, kind="stable")
    sorted_ratios = ratios[order].tolist()
    gs, hs = g[order], h[order]
    coeff_series = list(zip(
        _tail_sums(gs ** 2 / hs).tolist(), (-q * _tail_sums(gs)).tolist(),
        _head_sums(hs).tolist(), (-q * _head_sums(hs ** 2 / gs)).tolist()))
    for split in range(n, -1, -1):
        lo = sorted_ratios[split - 1] if split >= 1 else 0.0
        hi = sorted_ratios[split] if split < n else np.inf
        if split < n and hi <= lo:
            continue
        coeffs = coeff_series[split]
        for root in _real_roots(coeffs):
            if root <= 0.0:
                continue
            mu = _polish_root(coeffs, root,
                              max(lo, np.nextafter(0.0, 1.0)), hi)
            if not (lo <= mu < hi) or mu <= 0.0:
                continue
            if abs(_cubic_value(coeffs, mu)) > (CUBIC_RESIDUAL_RTOL
                                                * _cubic_scale(coeffs, mu)):
                continue
            members = np.zeros(n, dtype=bool)
            members[order[split:]] = True
            if np.array_equal(ratios > mu, members):
                return mu, members
    return None


def _positive_dirichlet(rng, n, dispersion):
    # Small dispersions underflow some draws to zero; values must stay
    # positive.
    return normalize_weights(
        np.maximum(rng.dirichlet(np.full(n, dispersion)), 1e-12))


def _screen_cases():
    rng = np.random.default_rng(20261019)
    for n in (1, 2, 3, 9, 50, 500, 2000):
        for dispersion in (0.05, 0.3, 1.0, 10.0):
            g = _positive_dirichlet(rng, n, dispersion)
            h = _positive_dirichlet(rng, n, dispersion)
            for q in (1.0, float(rng.uniform(1.0, 4.0)), 10.0):
                yield g, h, q
            yield g, g.copy(), float(rng.uniform(1.0, 4.0))
    for n in (2, 3, 9, 50, 500, 2000):
        for _ in range(3):
            # Copies of a few battlefields: each copy's ratio ties with its
            # source or sits one ulp above or below it.
            g = _positive_dirichlet(rng, n, 1.0)
            h = _positive_dirichlet(rng, n, 1.0)
            picked = rng.permutation(n)
            copies = max(1, n // 4)
            for src, dst, step in zip(picked[:copies],
                                      picked[copies:2 * copies],
                                      rng.integers(-1, 2, size=copies)):
                g[dst] = g[src]
                h[dst] = h[src] if step == 0 else np.nextafter(
                    h[src], step * np.inf)
            ratios = np.sort(h / g)
            assert (np.diff(ratios) <= 2 * np.spacing(ratios[1:])).any()
            for q in (1.0, float(rng.uniform(1.0, 4.0)), 10.0):
                yield g, h, q
    for n in (2, 3, 9, 50):
        for _ in range(40):
            # q puts a root of split s's cubic on the interval's lower end,
            # so rounding alone decides whether p changes sign inside it.
            g = _positive_dirichlet(rng, n, 1.0)
            h = _positive_dirichlet(rng, n, 1.0)
            order = np.argsort(h / g, kind="stable")
            gs, hs = g[order], h[order]
            split = int(rng.integers(1, n))
            lo = hs[split - 1] / gs[split - 1]
            q = (((gs[split:] ** 2 / hs[split:]).sum() * lo ** 2
                  + hs[:split].sum()) * lo
                 / (gs[split:].sum() * lo ** 2
                    + (hs[:split] ** 2 / gs[:split]).sum()))
            if q >= 1.0:
                yield g, h, float(q)


def test_bracket_screen_keeps_the_unscreened_result():
    solved = 0
    for g, h, q in _screen_cases():
        expected = _unscreened_scan_reference(g, h, q)
        if expected is None:
            with pytest.raises(EquilibriumRegimeError):
                _scan_partitions(g, h, q)
            continue
        mu, members = _scan_partitions(g, h, q)
        assert mu == expected[0]
        assert (members == expected[1]).all()
        solved += 1
    assert solved >= 180


def test_bracket_screen_skips_root_solves(monkeypatch):
    rng = np.random.default_rng(7)
    g = _positive_dirichlet(rng, 2000, 0.3)
    h = _positive_dirichlet(rng, 2000, 0.3)
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return _real_roots(coeffs)

    monkeypatch.setattr(equilibrium, "_real_roots", counted)
    sol = solve_equilibrium(g, h, 1.0, 1.0)
    assert len(sol.omega_a) >= 100   # the unscreened scan solves 101+ cubics
    assert len(calls) <= 10


# With omega_a empty each of these has a consistent root of order 1 / tiny,
# whose cubic terms overflow; the solve must move on to the partition that
# gives the tiny battlefields to the attacker.  In the three-battlefield
# case the split with only battlefield 2 attacker-favored has a subnormal
# leading coefficient, which overflows np.roots' companion matrix.
@pytest.mark.parametrize("g, h, omega_a, mu", [
    ([1.0 - 1e-170, 1e-170], [0.5, 0.5], {1}, 1.25),
    ([1.0 - 1e-200, 1e-200], [0.5, 0.5], {1}, 1.25),
    ([1.0 - 1e-300, 1e-300], [0.5, 0.5], {1}, 1.25),
    ([1.0, 5e-171, 5e-171], [0.25, 0.25, 0.5], {1, 2}, 0.625),
])
def test_tiny_values_find_a_partition_without_overflow(g, h, omega_a, mu):
    sol = solve_equilibrium(np.array(g), np.array(h), 2.5, 1.0)
    assert sol.omega_a == frozenset(omega_a)
    assert sol.mu == pytest.approx(mu, rel=1e-12)
    assert sol.cubic_residual <= CUBIC_RESIDUAL_RTOL
    assert np.isfinite([sol.payoff_d, sol.payoff_a]).all()


def test_tiny_values_without_a_measurable_partition_are_a_regime_error():
    g, h = np.array([1.0 - 1e-300, 1e-300]), np.array([1e-170, 1.0 - 1e-170])
    with pytest.raises(EquilibriumRegimeError):
        solve_equilibrium(g, h, 2.5, 1.0)


def test_subnormal_value_solves_without_runtime_warnings():
    # The chosen partition leaves both battlefields defender-favored, so the
    # attacker-favored expressions (g_i mu / h_i, g_i^2 / h_i) would overflow
    # at h_1 = 1e-310; the solve must not evaluate them there.
    g, h = np.array([0.5, 0.5]), np.array([1.0 - 1e-310, 1e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_equilibrium(g, h, 2.5, 1.0)
    assert sol.mu == 5.0
    assert sol.omega_a == frozenset()
    assert sol.payoff_d == pytest.approx(0.9, abs=1e-12)
    assert [m.atom_at_zero for m in sol.marginals_a] == pytest.approx(
        [0.6, 1.0], abs=1e-12)


def test_overflowing_root_fails_the_residual_gate():
    coeffs = (1.0, -1.0, 1.0, -1.0)
    assert _cubic_scale(coeffs, 1e200) == np.inf
    assert not _passes_residual_gate(coeffs, 1e200)
    assert _passes_residual_gate(coeffs, 1.0)
    # A leading coefficient this small overflows np.roots' companion matrix.
    assert _real_roots((5e-324, -1.0, 1.0, -1.0)) == []


def test_input_validation():
    with pytest.raises(ValueError):
        solve_equilibrium([0.5, 0.4], [0.5, 0.5], 2.0, 1.0)  # g sums to 0.9
    with pytest.raises(EquilibriumRegimeError):
        solve_equilibrium([1.5, -0.5], [0.5, 0.5], 2.0, 1.0)
    with pytest.raises(ValueError):
        solve_equilibrium([0.5, 0.5], [0.5, 0.5], 1.0, 2.0)  # R_D < R_A
    with pytest.raises(ValueError):
        solve_equilibrium([0.5, 0.5], [0.5, 0.5], -1.0, -2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["g", "h", "R_D", "R_A"])
def test_non_finite_input_is_named(name, bad):
    args = {"g": np.array([0.5, 0.5]), "h": np.array([0.5, 0.5]),
            "R_D": 2.0, "R_A": 1.0}
    if name in ("g", "h"):
        args[name][0] = bad
    else:
        args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        solve_equilibrium(args["g"], args["h"], args["R_D"], args["R_A"])


def test_single_dependency_closed_forms():
    h = np.array([0.5, 0.3, 0.2])
    report = single_dependency_case(h, budget_d=2.5, budget_a=1.0)
    assert np.allclose(report.g, [0.7 / 1.2, 0.3 / 1.2, 0.2 / 1.2])
    assert abs(report.payoff_a - 0.2) < 1e-15
    assert abs(report.lambda_a - 0.2) < 1e-15

    sol = solve_equilibrium(report.g, h, 2.5, 1.0)
    assert sol.omega_a == frozenset()
    assert abs(sol.mu - report.mu) < 1e-10
    assert abs(sol.payoff_d - report.payoff_d) < 1e-12
    assert abs(sol.payoff_a - report.payoff_a) < 1e-15
    assert abs(sol.lambda_d - report.lambda_d) < 1e-12
    # the top battlefield's support stretches to 2 R_D h_m
    assert abs(sol.marginals_a[0].support_upper - 2.5) < 1e-9

    assert abs(report.payoff_d_baseline - 0.8) < 1e-15
    assert report.defender_gain > 0.0
    assert report.payoff_d > report.payoff_d_baseline


def test_single_dependency_regime_bound():
    h = np.array([0.5, 0.3, 0.2])
    # bound = (h_m + h_l) / (h_m + h_l - h_m h_l) = 0.7 / 0.6
    with pytest.raises(ValueError, match="outside theorem regime"):
        single_dependency_case(h, budget_d=1.1, budget_a=1.0)
    report = single_dependency_case(h, budget_d=1.2, budget_a=1.0)
    assert report.payoff_d >= 0.0


def test_single_dependency_variant_is_flagged_not_trusted():
    h = np.array([0.5, 0.3, 0.2])
    report = single_dependency_case(h, budget_d=2.5, budget_a=1.0)
    assert not report.variant_consistent
    assert abs(report.variant_payoff_d - report.payoff_d) > 1e-3


def test_single_dependency_rejects_degenerate_h():
    with pytest.raises(ValueError):
        single_dependency_case([1.0], 2.0, 1.0)
    with pytest.raises(ValueError):
        single_dependency_case([0.5, 0.5], 2.0, 1.0)  # max == min
    with pytest.raises(ValueError):
        single_dependency_case([0.9, 0.2], 2.0, 1.0)  # not normalized


def test_solution_document_round_trip():
    g = np.array([0.2, 0.4, 0.4])
    h = np.array([0.7, 0.2, 0.1])
    sol = solve_equilibrium(g, h, 1.5, 1.0)
    doc = json.loads(solution_to_json(sol))
    assert set(doc) == {"mu", "lambda_A", "lambda_D", "omega_A", "marginals",
                        "payoff_D", "payoff_A"}
    rebuilt = solution_from_document(solution_document(sol))
    assert rebuilt.mu == sol.mu
    assert rebuilt.omega_a == sol.omega_a
    assert rebuilt.marginals_d == sol.marginals_d
    assert rebuilt.marginals_a == sol.marginals_a
    assert rebuilt.payoff_d == sol.payoff_d


def test_marginal_distribution_cdf_shape():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, 2.5, 1.0)
    marginal = sol.marginals_a[0]  # atom 0.6, uniform tail up to 1.25
    assert marginal.cdf(-0.1) == 0.0
    assert abs(marginal.cdf(0.0) - 0.6) < 1e-12
    assert abs(marginal.cdf(0.625) - 0.8) < 1e-12
    assert marginal.cdf(1.25) == 1.0
    assert abs(marginal.mean() - 0.25) < 1e-12  # budget 1 over 4 fields
