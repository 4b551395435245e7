"""Joint allocation sampling from the equilibrium marginals."""

import numpy as np
import pytest

from cpsblotto import (MarginalDistribution, allocation_band_probability,
                       battlefield_values, default_nine_node, default_params,
                       draw_marginals, sample_allocation, sample_allocations,
                       solve_equilibrium)

UNIFORM4 = np.full(4, 0.25)


def uniform_marginals(n: int, upper: float = 1.0):
    return (MarginalDistribution(atom_at_zero=0.0, support_upper=upper),) * n


def test_rows_land_exactly_on_the_budget_simplex():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, 2.5, 1.0)
    rng = np.random.default_rng(0)
    rows = sample_allocations(sol.marginals_a, 1.0, 500, rng)
    assert rows.shape == (500, 4)
    assert np.all(rows >= 0.0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    rows_d = sample_allocations(sol.marginals_d, 2.5, 500, rng)
    assert np.allclose(rows_d.sum(axis=1), 2.5, atol=1e-9)


def test_single_battlefield_gets_the_whole_budget():
    marginals = uniform_marginals(1, upper=0.7)
    allocation = sample_allocation(marginals, 3.0, rng=5)
    assert np.allclose(allocation, [3.0])


def test_sampling_is_deterministic_per_seed():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, 2.5, 1.0)
    a = sample_allocation(sol.marginals_a, 1.0, rng=42)
    b = sample_allocation(sol.marginals_a, 1.0, rng=42)
    c = sample_allocation(sol.marginals_a, 1.0, rng=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_defender_sample_means_track_the_marginal_means():
    # q = 2, n = 4 uniform: defender spreads 0.5 per battlefield on average;
    # simplex projection is exact here because defender rows never hit atoms
    h = UNIFORM4
    sol = solve_equilibrium(h, h, 2.0, 1.0)
    rng = np.random.default_rng(5)
    rows = sample_allocations(sol.marginals_d, 2.0, 100_000, rng)
    means = rows.mean(axis=0)
    se = rows.std(axis=0) / np.sqrt(rows.shape[0])
    assert np.all(np.abs(means - 0.5) <= 3.0 * se)


def test_band_probability_degenerate_and_seeded():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, 2.5, 1.0)
    # a half-budget-wide band around a quarter share swallows everything
    assert allocation_band_probability(sol.marginals_a, 0, 0.5, 0.5,
                                       2000, seed=1) == 1.0
    p1 = allocation_band_probability(sol.marginals_a, 2, 0.25, 0.05,
                                     5000, seed=9)
    p2 = allocation_band_probability(sol.marginals_a, 2, 0.25, 0.05,
                                     5000, seed=9)
    assert p1 == p2
    assert 0.0 < p1 < 1.0


def test_band_probability_validates_inputs():
    marginals = uniform_marginals(3)
    with pytest.raises(ValueError, match="samples"):
        allocation_band_probability(marginals, 0, 0.3, 0.05, 999)
    with pytest.raises(ValueError, match="share and epsilon"):
        allocation_band_probability(marginals, 0, 1.5, 0.05, 2000)
    with pytest.raises(ValueError, match="share and epsilon"):
        allocation_band_probability(marginals, 0, 0.3, 0.0, 2000)
    with pytest.raises(ValueError, match="budget"):
        sample_allocations(marginals, 0.0, 10, np.random.default_rng(0))


def test_band_probability_rejects_unknown_battlefields():
    values = battlefield_values(default_nine_node(), default_params(9))
    sol = solve_equilibrium(values.defender, values.attacker, 2.5, 1.0)
    for battlefield in (-1, 9):
        with pytest.raises(ValueError, match=rf"battlefield {battlefield} "
                           r"is not a battlefield id .*\(0..8\)"):
            allocation_band_probability(sol.marginals_a, battlefield, 0.2,
                                        0.05, 2000)


def test_all_atom_marginals_exhaust_the_resampler():
    dead = (MarginalDistribution(atom_at_zero=1.0, support_upper=1.0),) * 3
    with pytest.raises(RuntimeError, match="non-zero allocation"):
        sample_allocations(dead, 1.0, 4, np.random.default_rng(2))


def test_draw_marginals_respects_atoms_and_supports():
    marginals = (MarginalDistribution(0.6, 1.25),
                 MarginalDistribution(0.0, 0.5))
    rng = np.random.default_rng(7)
    draws = draw_marginals(marginals, rng, 20_000)
    zero_rate = np.mean(draws[:, 0] == 0.0)
    assert abs(zero_rate - 0.6) < 0.02
    assert draws[:, 1].max() <= 0.5
    assert draws[:, 1].min() > 0.0
    assert draws[:, 0].max() <= 1.25


def reference_sample_allocations(marginals, budget, count, rng):
    """The sampler before the one-pass rewrite: two fresh uniform arrays and
    np.where per draw, and every row re-summed on each resample round."""
    def draw(k):
        atoms = np.array([m.atom_at_zero for m in marginals])
        uppers = np.array([m.support_upper for m in marginals])
        hit_atom = rng.random((k, len(marginals))) < atoms
        values = rng.random((k, len(marginals))) * uppers
        return np.where(hit_atom, 0.0, values)

    samples = draw(count)
    while True:
        dead = samples.sum(axis=1) == 0.0
        if not dead.any():
            break
        samples[dead] = draw(int(dead.sum()))
    return samples * (budget / samples.sum(axis=1, keepdims=True))


def test_resampler_matches_the_reference_bitwise():
    # an all-atom row has probability 0.8**3 = 0.512, so about half the rows
    # are redrawn in the first round and several rounds follow
    heavy = tuple(MarginalDistribution(0.8, 1.0 + 0.5 * i)
                  for i in range(3))
    for seed in range(4):
        for count in (1, 5, 4000):
            rows = sample_allocations(heavy, 2.5, count,
                                      np.random.default_rng(seed))
            expected = reference_sample_allocations(
                heavy, 2.5, count, np.random.default_rng(seed))
            assert rows.tobytes() == expected.tobytes()
        for battlefield in range(3):
            rows = sample_allocations(heavy, 1.0, 5000,
                                      np.random.default_rng(seed))
            band = float(np.mean(np.abs(rows[:, battlefield] - 0.4) <= 0.1))
            assert allocation_band_probability(heavy, battlefield, 0.4, 0.1,
                                               5000, seed=seed) == band


def test_draws_keep_each_marginal_within_monte_carlo_error():
    values = battlefield_values(default_nine_node(), default_params(9))
    sol = solve_equilibrium(values.defender, values.attacker, 2.5, 1.0)
    count = 200_000
    for marginals in (sol.marginals_d, sol.marginals_a):
        draws = draw_marginals(marginals, np.random.default_rng(11), count)
        for m, column in zip(marginals, draws.T):
            atom, upper = m.atom_at_zero, m.support_upper
            atom_se = np.sqrt(atom * (1.0 - atom) / count)
            assert abs(np.mean(column == 0.0) - atom) <= 4.0 * atom_se
            variance = (1.0 - atom) * upper**2 / 3.0 - m.mean()**2
            assert abs(column.mean() - m.mean()) <= 4.0 * np.sqrt(
                variance / count)
