"""Analytic equilibrium: multipliers, marginals, payoffs, closed forms."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from cpsblotto import (EquilibriumRegimeError, complete_info_payoffs,
                       single_dependency_case, solve_equilibrium)
from cpsblotto import equilibrium
from cpsblotto.equilibrium import (_BREAKPOINT_RTOL, CUBIC_RESIDUAL_RTOL,
                                   MarginalDistribution, Marginals,
                                   _cubic_scale,
                                   _cubic_value, _head_sums,
                                   _passes_residual_gate, _scan_partitions,
                                   _tail_sums, solution_document)
from cpsblotto.model import GameParams, ValidationError, normalize_weights
from cpsblotto.sampling import allocation_band_probability

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
    for side in (sol.marginals_d, sol.marginals_a):
        for marginal in side:
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


def _real_roots(coeffs):
    """The real roots of a cubic from numpy.roots, for the references below,
    which solve each partition's cubic independently of the solver."""
    poly = np.array(coeffs, dtype=float)
    nonzero = np.flatnonzero(poly != 0.0)
    if nonzero.size == 0:
        return []
    poly = poly[nonzero[0]:]
    if poly.size == 1:
        return []
    with np.errstate(over="ignore"):
        try:
            roots = np.roots(poly)
        except np.linalg.LinAlgError:
            # Dividing by a vanishing leading coefficient overflowed the
            # companion matrix, so no root of this cubic can be measured.
            return []
    return [float(root.real) for root in roots
            if abs(root.imag) < 1e-9 * max(1.0, abs(root.real))]


def _polish_root(coeffs, mu, lo, hi):
    """Newton refinement of a cubic root, kept inside [lo, hi]."""
    a, b, c, _ = coeffs
    for _ in range(60):
        value = _cubic_value(coeffs, mu)
        if value == 0.0:
            break
        slope = (3.0 * a * mu + 2.0 * b) * mu + c
        if slope == 0.0:
            break
        nxt = min(max(mu - value / slope, lo), hi)
        if nxt == mu:
            break
        mu = nxt
    return mu


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


def _np_roots_scan_reference(g, h, q):
    """A prefix-sum scan that solves every split's cubic with numpy.roots,
    from split n down to 0, and keeps the first consistent root; a root
    just below a split's lower breakpoint is moved onto it.  Returns
    (mu, mask) or None."""
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
            if lo * (1.0 - _BREAKPOINT_RTOL) <= root < lo:
                root = lo
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


def _bracket_cases():
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


def test_bracketed_scan_agrees_with_the_np_roots_reference():
    solved = 0
    for g, h, q in _bracket_cases():
        expected = _np_roots_scan_reference(g, h, q)
        if expected is None:
            with pytest.raises(EquilibriumRegimeError):
                _scan_partitions(g, h, q)
            continue
        mu, members = _scan_partitions(g, h, q)
        assert abs(mu - expected[0]) <= 1e-12 * expected[0]
        assert (members == expected[1]).all()
        solved += 1
    assert solved >= 180


def test_bracketed_scan_makes_few_bracket_solves(monkeypatch):
    rng = np.random.default_rng(7)
    g = _positive_dirichlet(rng, 2000, 0.3)
    h = _positive_dirichlet(rng, 2000, 0.3)
    calls = []

    def counted(*args):
        calls.append(args)
        return bracketed_root(*args)

    bracketed_root = equilibrium._bracketed_root
    monkeypatch.setattr(equilibrium, "_bracketed_root", counted)
    sol = solve_equilibrium(g, h, 1.0, 1.0)
    assert len(sol.omega_a) >= 100   # a scan over every split solves 101+
    assert 1 <= len(calls) <= 10


# With omega_a empty each of these has a consistent root of order 1 / tiny,
# whose cubic terms overflow; the solve must move on to the partition that
# gives the tiny battlefields to the attacker.  In the three-battlefield
# case the split with only battlefield 2 attacker-favored has a subnormal
# leading coefficient.
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


def _property_cases():
    """Seeded finite positive inputs: n 1-300, Dirichlet dispersions
    0.05-10, a fifth with g = h and a fifth with tied ratios, at budget
    ratios 1, 1 + 1e-12, 1.5, 2.5 and U[1, 4]."""
    rng = np.random.default_rng(20261020)
    for k in range(300):
        n = int(rng.integers(1, 301))
        dispersion = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        g = _positive_dirichlet(rng, n, dispersion)
        if k % 5 == 0:
            h = g.copy()
        else:
            h = _positive_dirichlet(rng, n, dispersion)
            if k % 5 == 1 and n > 1:
                # Copied battlefields tie their ratios with the source's.
                picked = rng.permutation(n)
                copies = max(1, n // 4)
                g[picked[copies:2 * copies]] = g[picked[:copies]]
                h[picked[copies:2 * copies]] = h[picked[:copies]]
                g, h = normalize_weights(g), normalize_weights(h)
        q = (1.0, 1.0 + 1e-12, 1.5, 2.5, float(rng.uniform(1.0, 4.0)))[k // 60]
        yield g, h, q


def test_finite_positive_inputs_always_solve():
    # F(mu), the cubic of the partition mu induces, is continuous, negative
    # near 0 and positive above every ratio, so a consistent root exists.
    tied = 0
    for g, h, q in _property_cases():
        sol = solve_equilibrium(g, h, q, 1.0)
        ratios = h / g
        assert sol.omega_a == frozenset(
            np.flatnonzero(ratios > sol.mu).tolist())
        assert sol.cubic_residual <= CUBIC_RESIDUAL_RTOL
        tied += np.unique(ratios).size < ratios.size
    assert tied >= 60


def test_lost_root_of_a_tiny_leading_coefficient_solves():
    # Split 1's cubic has a = 3.8e-66; numpy.roots returned only 0.0 for
    # it, so a scan built on it found no consistent partition.
    g, h = np.array([2.7e-34, 1.0]), np.array([0.019, 0.981])
    sol = solve_equilibrium(g, h, 2.89, 1.0)
    assert sol.omega_a == frozenset({0})
    assert sol.mu == pytest.approx(2.83509, rel=1e-12)
    assert sol.cubic_residual <= CUBIC_RESIDUAL_RTOL
    assert _np_roots_scan_reference(g, h, 2.89) is None


def test_root_on_a_breakpoint_solves_with_finite_multipliers():
    # Input 171's root is the breakpoint h_1/g_1.  Rounding puts the upper
    # partition's root one ulp below it and clamps the lower one's onto its
    # excluded end; the solve must not fall through to the double root at
    # zero of the all-attacker partition.
    g, h, q = list(_bracket_cases())[171]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_equilibrium(g, h, q, 1.0)
    assert sol.mu == h[1] / g[1]
    assert sol.omega_a == frozenset({0})
    assert np.isfinite([sol.lambda_d, sol.lambda_a]).all()
    assert sol.lambda_d > 0.0 and sol.lambda_a > 0.0
    assert sol.cubic_residual <= CUBIC_RESIDUAL_RTOL
    assert 0.0 < sol.payoff_a < 1.0


def test_equal_values_at_equal_budgets_split_the_payoff():
    # g = h puts every ratio on the breakpoint mu = 1, the paper's
    # symmetric baseline
    rng = np.random.default_rng(22)
    for n in (1, 2, 3, 9, 50, 100, 300, 500):
        for _ in range(5):
            g = _positive_dirichlet(rng, n, 1.0)
            sol = solve_equilibrium(g, g.copy(), 1.0, 1.0)
            assert sol.payoff_d == pytest.approx(0.5, abs=1e-12)
            assert sol.payoff_a == pytest.approx(0.5, abs=1e-12)
            assert sol.mu == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("field", ["lambda_d", "upper"])
def test_non_finite_multiplier_or_support_is_a_regime_error(monkeypatch,
                                                            field):
    # A scan that hands back a mu whose multiplier or support is not finite
    # must end in a typed error, never in a returned solution.
    g, h = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    mu, members = _scan_partitions(g, h, 2.5)
    if field == "lambda_d":
        bad = (5e-324, members)          # mu ** 2 underflows: lambda_D inf
    else:
        bad = (mu, np.zeros(2, dtype=bool))
        monkeypatch.setattr(equilibrium, "_by_side",
                            lambda m, inside, outside: np.full(2, np.inf))
    monkeypatch.setattr(equilibrium, "_scan_partitions",
                        lambda *args: bad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EquilibriumRegimeError, match="finite"):
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
    # Every term underflows, so the cubic vanishes without a root.
    assert not _passes_residual_gate((0.0, -2.5e-300, 1e-170, 0.0), 1e-170)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_equilibrium([0.5, 0.4], [0.5, 0.5], 2.0, 1.0)  # g sums to 0.9
    with pytest.raises(ValidationError, match="^g must be positive$"):
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


_H3 = np.array([0.5, 0.3, 0.2])
_BUDGET_CHECKS = {
    "GameParams": lambda d, a: GameParams(0.3, 0.7, 0.1, d, a),
    "solve_equilibrium": lambda d, a: solve_equilibrium(_H3, _H3, d, a),
    "complete_info_payoffs": complete_info_payoffs,
    "single_dependency_case": lambda d, a: single_dependency_case(_H3, d, a),
}


@pytest.mark.parametrize("caller", sorted(_BUDGET_CHECKS))
@pytest.mark.parametrize("budget_d, budget_a, message", [
    (np.nan, 1.0, "R_D must be finite"),
    (np.inf, 1.0, "R_D must be finite"),
    (2.5, np.inf, "R_A must be finite"),
    (-1.0, -2.0, "budgets must be positive"),
    (0.0, 0.0, "budgets must be positive"),
    (2.5, 0.0, "budgets must be positive"),
    (1.0, 2.0, "defender budget must be >= attacker budget"),
])
def test_every_budget_check_is_the_same_typed_error(caller, budget_d,
                                                    budget_a, message):
    # The closed forms once answered NaN, inf, (0, 1) or a bare
    # ZeroDivisionError here.
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _BUDGET_CHECKS[caller](budget_d, budget_a)


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
    assert abs(sol.marginals_a.upper[0] - 2.5) < 1e-9

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
    doc = json.loads(json.dumps(solution_document(sol), indent=2))
    assert set(doc) == {"mu", "lambda_A", "lambda_D", "omega_A", "marginals",
                        "payoff_D", "payoff_A", "cubic_residual"}
    assert sol.cubic_residual > 0.0
    assert doc["cubic_residual"] == sol.cubic_residual
    assert doc["mu"] == sol.mu
    assert (doc["lambda_A"], doc["lambda_D"]) == (sol.lambda_a, sol.lambda_d)
    assert doc["omega_A"] == sorted(sol.omega_a)
    assert (doc["payoff_D"], doc["payoff_A"]) == (sol.payoff_d, sol.payoff_a)
    assert [(entry["owner"], entry["i"], entry["atom"], entry["upper"])
            for entry in doc["marginals"]] == [
        (owner, i, marginal.atom_at_zero, marginal.support_upper)
        for owner, side in (("attacker", sol.marginals_a),
                            ("defender", sol.marginals_d))
        for i, marginal in enumerate(side)]


def test_solution_document_lists_attacker_then_defender_by_position():
    g = np.array([0.2, 0.4, 0.4])
    h = np.array([0.7, 0.2, 0.1])
    sol = solve_equilibrium(g, h, 1.2, 1.0)
    assert sol.omega_a == frozenset({0})  # the two sides' atoms differ
    assert [field.name for field in dataclasses.fields(MarginalDistribution)
            ] == ["atom_at_zero", "support_upper"]
    entries = solution_document(sol)["marginals"]
    assert [(entry["owner"], entry["i"]) for entry in entries] == [
        ("attacker", 0), ("attacker", 1), ("attacker", 2),
        ("defender", 0), ("defender", 1), ("defender", 2)]
    for entry in entries:
        side = sol.marginals_a if entry["owner"] == "attacker" else (
            sol.marginals_d)
        assert (entry["atom"], entry["upper"]) == (
            side.atom[entry["i"]], side.upper[entry["i"]])


def test_marginal_distribution_cdf_shape():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, 2.5, 1.0)
    marginal = next(iter(sol.marginals_a))  # atom 0.6, uniform up to 1.25
    assert abs(marginal.mean() - 0.25) < 1e-12  # budget 1 over 4 fields

    def band(share, epsilon, budget=1.0):
        return allocation_band_probability(sol.marginals_a, 0, share,
                                           epsilon, budget)

    # the CDF read through bands: the atom of 0.6 at zero, 0.1 on each of
    # (0, 0.3125] and (0.3125, 0.625], so F(0.625) = 0.8, and F(1.25) = 1
    assert abs(band(0.15625, 0.15625) - 0.7) < 1e-12  # [0, 0.3125]
    assert abs(band(0.46875, 0.15625) - 0.1) < 1e-12  # [0.3125, 0.625]
    assert abs(band(0.3125, 0.3125) - 0.8) < 1e-12  # [0, 0.625]
    assert band(0.625, 0.625) == 1.0  # [0, 1.25]
    assert band(0.95, 0.01, 2.0) == 0.0  # [1.88, 1.92]: above the support


def record_tuple(marginals):
    """The marginals as the tuple of per-battlefield records they stand
    for, built from the arrays without going through Marginals."""
    return tuple(MarginalDistribution(atom, upper) for atom, upper in zip(
        marginals.atom.tolist(), marginals.upper.tolist()))


def test_marginals_arrays_are_read_only_copies():
    sol = solve_equilibrium(np.array([0.2, 0.4, 0.4]),
                            np.array([0.7, 0.2, 0.1]), 1.2, 1.0)
    for side in (sol.marginals_d, sol.marginals_a):
        assert side.atom.dtype == side.upper.dtype == np.float64
        for values in (side.atom, side.upper):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
    atom, upper = np.array([0.25, 0.0]), np.array([2.0, 1.0])
    marginals = Marginals(atom, upper)
    atom[0] = 0.5  # the caller's arrays stay writable and unshared
    assert atom.flags.writeable and marginals.atom.tolist() == [0.25, 0.0]
    for bad in (([0.1, 0.2], [1.0]), ([[0.1]], [[1.0]])):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Marginals(*bad)


def test_marginals_read_as_the_tuple_of_records():
    g = np.array([0.2, 0.4, 0.4, 0.3, 0.1, 0.6]) / 2.0
    h = np.array([0.7, 0.2, 0.1, 0.3, 0.5, 0.2]) / 2.0
    sol = solve_equilibrium(g, h, 1.2, 1.0)
    assert sol.omega_a  # the two sides' atoms differ
    old_d, old_a = record_tuple(sol.marginals_d), record_tuple(sol.marginals_a)
    for side, old in ((sol.marginals_d, old_d), (sol.marginals_a, old_a)):
        assert len(side) == len(old) == 6
        assert tuple(side) == old
        assert type(next(iter(side)).atom_at_zero) is float
    assert sum(m.mean() for side in (sol.marginals_d, sol.marginals_a)
               for m in side) == pytest.approx(2.2, rel=1e-12)


def test_solutions_compare_and_hash_by_value():
    g = np.array([0.2, 0.4, 0.4])
    h = np.array([0.7, 0.2, 0.1])
    first, again = (solve_equilibrium(g, h, 1.2, 1.0) for _ in range(2))
    other = solve_equilibrium(g, h, 1.3, 1.0)
    assert first == again and first != other
    assert first.marginals_d == again.marginals_d
    assert first.marginals_d != first.marginals_a
    assert first.marginals_d != Marginals(first.marginals_d.atom[:2],
                                          first.marginals_d.upper[:2])
    assert first.marginals_d != record_tuple(first.marginals_d)
    assert hash(first) == hash(again)
    assert len({first, again, other}) == 2


def test_large_solve_builds_no_per_battlefield_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a MarginalDistribution was built")

    monkeypatch.setattr(MarginalDistribution, "__init__", refuse)
    rng = np.random.default_rng(5)
    g = normalize_weights(rng.dirichlet(np.ones(5000)))
    h = normalize_weights(rng.dirichlet(np.ones(5000)))
    sol = solve_equilibrium(g, h, 1.5, 1.0)
    assert len(sol.marginals_d) == len(sol.marginals_a) == 5000
    assert sol.omega_a
    with pytest.raises(AssertionError, match="was built"):
        next(iter(sol.marginals_d))
