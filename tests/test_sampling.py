"""Joint allocation sampling from the equilibrium marginals."""

import re

import numpy as np
import pytest

from cpsblotto import (band_probability_table, battlefield_values,
                       default_nine_node, default_params, sample_allocations,
                       solve_equilibrium)
from cpsblotto.equilibrium import Marginals
from cpsblotto.experiments import DEFAULT_SWEEP_POINTS
from cpsblotto.sampling import allocation_band_probability, draw_marginals

UNIFORM4 = np.full(4, 0.25)


def uniform_marginals(n: int, upper: float = 1.0):
    return Marginals(np.zeros(n), np.full(n, upper))


def marginal_cdf(atom: float, upper: float, r: float) -> float:
    """The CDF of an atom at zero plus a uniform segment up to upper, with
    the float operations the band probability is pinned to."""
    if r < 0.0:
        return 0.0
    if r >= upper or upper == 0.0:
        return 1.0
    return atom + (1.0 - atom) * (r / upper)


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
    allocation = sample_allocations(marginals, 3.0, 1,
                                    np.random.default_rng(5))[0]
    assert np.allclose(allocation, [3.0])


def test_sampling_is_deterministic_per_seed():
    sol = solve_equilibrium(UNIFORM4, UNIFORM4, 2.5, 1.0)
    a, b, c = (sample_allocations(sol.marginals_a, 1.0, 1,
                                  np.random.default_rng(seed))[0]
               for seed in (42, 42, 43))
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


def test_band_probability_matches_hand_values():
    # atom 1/4 at zero, uniform on (0, 2]; the band is share +- epsilon of R
    m = Marginals([0.25], [2.0])

    def band(share, epsilon, budget):
        return allocation_band_probability(m, 0, share, epsilon, budget)

    # [-0.4, 1.2] straddles 0: the atom plus 1.2 of the 2.0 segment
    assert band(0.1, 0.2, 4.0) == pytest.approx(0.25 + 0.75 * 0.6,
                                                abs=1e-15)
    # lo = 0 exactly still counts the atom: [0, 1]
    assert band(0.25, 0.25, 2.0) == pytest.approx(0.25 + 0.75 * 0.5,
                                                  abs=1e-15)
    # inside the segment: [0.8, 1.2]; clipped at u: [1.4, 2.2]
    assert band(0.25, 0.05, 4.0) == pytest.approx(0.75 * 0.2, abs=1e-15)
    assert band(0.45, 0.1, 4.0) == pytest.approx(0.75 * 0.3, abs=1e-15)
    # above the support: [2.8, 3.6]
    assert band(0.8, 0.1, 4.0) == 0.0
    # covering [0, u]: [-2, 2.8] and [0, 2.4]
    assert band(0.2, 0.5, 4.0) == 1.0
    assert band(0.3, 0.3, 4.0) == 1.0
    # u = 0 is a point mass at zero, whatever the atom reads
    for atom in (0.0, 1.0):
        point = Marginals([atom], [0.0])
        assert allocation_band_probability(point, 0, 0.1, 0.2, 4.0) == 1.0
        assert allocation_band_probability(point, 0, 0.1, 0.1, 4.0) == 1.0
        assert allocation_band_probability(point, 0, 0.3, 0.1, 4.0) == 0.0


def test_band_probability_validates_inputs():
    marginals = uniform_marginals(3)
    for budget in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="budget must be finite"):
            allocation_band_probability(marginals, 0, 0.3, 0.05, budget)
    for share in (1.5, 0.0):
        with pytest.raises(ValueError, match=re.escape(
                f"share must lie in (0, 1], got {share}")):
            allocation_band_probability(marginals, 0, share, 0.05, 1.0)
    for epsilon in (0.0, 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"epsilon must lie in (0, 1), got {epsilon}")):
            allocation_band_probability(marginals, 0, 0.3, epsilon, 1.0)
    # a one-node system's only value share is 1
    assert allocation_band_probability(marginals, 0, 1.0, 0.05,
                                       1.0) == pytest.approx(0.05, abs=1e-15)
    for budget in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="budget must be finite"):
            sample_allocations(marginals, budget, 10,
                               np.random.default_rng(0))


def test_band_probability_rejects_unknown_battlefields():
    values = battlefield_values(default_nine_node(), default_params(9))
    sol = solve_equilibrium(values.defender, values.attacker, 2.5, 1.0)
    for battlefield in (-1, 9, True, 1.0):
        with pytest.raises(ValueError, match=rf"battlefield node id "
                           rf"{battlefield} out of range 0\.\.8"):
            allocation_band_probability(sol.marginals_a, battlefield, 0.2,
                                        0.05, 1.0)
        with pytest.raises(ValueError, match=rf"watched node id "
                           rf"{battlefield} out of range 0\.\.8"):
            band_probability_table(values.attacker, (0, battlefield),
                                   points=(1.0,))


def test_band_table_on_a_one_node_system():
    rows = band_probability_table(np.array([1.0]), (0,), points=(1.0,))
    sol = solve_equilibrium(np.array([1.0]), np.array([1.0]), 2.5, 1.0)
    assert [row[:5] for row in rows] == [(1.0, 0.0, 0, "defender", 1.0),
                                         (1.0, 0.0, 0, "attacker", 1.0)]
    for row, side, budget in zip(rows, (sol.marginals_d, sol.marginals_a),
                                 (2.5, 1.0)):
        atom, upper = side.atom.item(0), side.upper.item(0)
        # F is continuous above 0, so F(lo-) = F(lo) at lo = 0.95 R
        assert row[5] == (marginal_cdf(atom, upper, (1.0 + 0.05) * budget)
                          - marginal_cdf(atom, upper, (1.0 - 0.05) * budget))


def reference_band(atom, upper, share, epsilon, budget):
    """F(hi) - F(lo-) through marginal_cdf, with F(lo-) = 0 for lo <= 0."""
    lo = (share - epsilon) * budget
    below = marginal_cdf(atom, upper, lo) if lo > 0.0 else 0.0
    return marginal_cdf(atom, upper, (share + epsilon) * budget) - below


def test_band_table_matches_the_reference_cdf_bitwise():
    # the fig4 CSV prints 9 digits, so only this test sees a change in the
    # band probability's last bits
    values = battlefield_values(default_nine_node(), default_params(9))
    nodes = tuple(range(9))
    rows = band_probability_table(values.attacker, nodes,
                                  g_base=values.defender)
    # g(theta) as the library builds it: theta * (1 / n) is bitwise
    # theta * np.full(n, 1 / n), and theta / n is not
    h, g_base = values.attacker, values.defender
    path = [(1.0 - theta) * g_base + theta * (1.0 / h.size)
            for theta in DEFAULT_SWEEP_POINTS]
    assert len(rows) == len(path) * len(nodes) * 2
    rows = iter(rows)
    for g in path:
        sol = solve_equilibrium(g, h, 2.5, 1.0)
        for node in nodes:
            for owner, side, share, budget in (
                    ("defender", sol.marginals_d, float(g[node]), 2.5),
                    ("attacker", sol.marginals_a, float(h[node]), 1.0)):
                row = next(rows)
                assert row[2:5] == (node, owner, share)
                assert row[5] == reference_band(
                    side.atom.item(node), side.upper.item(node), share,
                    0.05, budget), row


def test_band_probability_matches_the_reference_cdf_at_the_edges():
    # atoms 0 and 1, an upper end of 0, bands whose lo is exactly 0, and
    # bands whose hi meets or passes the upper end
    atoms = (0.0, 1.0, 0.25, 0.6, 1.0 - 2**-52)
    uppers = (0.0, 2.0, 1.25, 1e-300, 3.0)
    bands = ((0.25, 0.25, 2.0), (0.5, 0.5, 2.0), (0.25, 0.25, 4.0),
             (0.5, 0.25, 4.0), (0.9, 0.1, 4.0), (0.1, 0.2, 4.0),
             (0.3, 0.05, 4.0), (0.8, 0.1, 4.0), (1.0, 0.05, 1.0),
             (0.3, 0.1, 3.0), (0.1, 0.1, 1e-300))
    for atom in atoms:
        marginals = Marginals(np.full(len(uppers), atom), uppers)
        for i, upper in enumerate(uppers):
            for share, epsilon, budget in bands:
                assert allocation_band_probability(
                    marginals, i, share, epsilon, budget) == reference_band(
                    atom, upper, share, epsilon, budget), (
                    atom, upper, share, epsilon, budget)


def test_band_table_agrees_with_independent_marginal_draws():
    # the band probability depends only on the marginal, so independent
    # draw_marginals rows (not the rescaled sample_allocations rows) must
    # agree with the closed form within Monte Carlo error
    values = battlefield_values(default_nine_node(), default_params(9))
    nodes, points, epsilon, count = (0, 1, 4), (0.2, 0.6, 1.0), 0.05, 100_000
    rows = band_probability_table(values.attacker, nodes, points=points,
                                  epsilon=epsilon, g_base=values.defender)
    uniform = np.full(9, 1.0 / 9.0)
    checked = 0
    for index, theta in enumerate(points):
        g = (1.0 - theta) * values.defender + theta * uniform
        sol = solve_equilibrium(g, values.attacker, 2.5, 1.0)
        for owner, marginals, budget in (("defender", sol.marginals_d, 2.5),
                                         ("attacker", sol.marginals_a, 1.0)):
            fractions = draw_marginals(marginals,
                                       np.random.default_rng(index),
                                       count) / budget
            for row in rows:
                if row[0] != theta or row[3] != owner:
                    continue
                node, share, prob = row[2], row[4], row[5]
                hits = np.mean(np.abs(fractions[:, node] - share) <= epsilon)
                se = np.sqrt(prob * (1.0 - prob) / count)
                assert 0.0 < prob < 1.0
                assert abs(hits - prob) <= 4.0 * se, (theta, owner, node)
                checked += 1
    assert checked == 18


def test_all_atom_marginals_exhaust_the_resampler():
    dead = Marginals(np.ones(3), np.ones(3))
    with pytest.raises(RuntimeError, match="non-zero allocation"):
        sample_allocations(dead, 1.0, 4, np.random.default_rng(2))


def test_draw_marginals_respects_atoms_and_supports():
    marginals = Marginals([0.6, 0.0], [1.25, 0.5])
    rng = np.random.default_rng(7)
    draws = draw_marginals(marginals, rng, 20_000)
    zero_rate = np.mean(draws[:, 0] == 0.0)
    assert abs(zero_rate - 0.6) < 0.02
    assert draws[:, 1].max() <= 0.5
    assert draws[:, 1].min() > 0.0
    assert draws[:, 0].max() <= 1.25


def reference_sample_allocations(marginals, budget, count, rng):
    """The sampler in plain form: one fresh uniform array per draw, read
    through np.where as the atom where u < a and as (u - a) / (1 - a) of the
    support otherwise, and every row re-summed on each resample round."""
    def draw(k):
        atoms = np.array([m.atom_at_zero for m in marginals])
        uppers = np.array([m.support_upper for m in marginals])
        u = rng.random((k, len(marginals)))
        return np.where(u < atoms, 0.0, (u - atoms) / (1.0 - atoms) * uppers)

    samples = draw(count)
    while True:
        dead = samples.sum(axis=1) == 0.0
        if not dead.any():
            break
        samples[dead] = draw(int(dead.sum()))
    return samples * (budget / samples.sum(axis=1, keepdims=True))


def test_resampler_matches_the_reference_bitwise():
    # an all-atom row has probability 0.8**3 = 0.512, so about half the rows
    # are redrawn in the first round and several rounds follow; the
    # 30 000-row count draws 90 000 entries, so a large draw is compared too
    heavy = Marginals(np.full(3, 0.8), [1.0 + 0.5 * i for i in range(3)])
    for seed in range(4):
        for count in (1, 5, 4000, 30_000):
            rows = sample_allocations(heavy, 2.5, count,
                                      np.random.default_rng(seed))
            expected = reference_sample_allocations(
                heavy, 2.5, count, np.random.default_rng(seed))
            assert rows.tobytes() == expected.tobytes()


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


def test_draws_pass_a_kolmogorov_smirnov_test_against_each_marginal_cdf():
    # D = sup |F_n - F| per battlefield.  F has an atom at zero, where F_n
    # jumps by the share of zero draws; above zero F is continuous, so the
    # supremum is taken at the draws, on both sides of each step.
    # sqrt(count) * D > 2 has limiting probability 7e-4 for a continuous F
    # and less with an atom; 2 / sqrt(count) is four of F_n's standard
    # errors at their widest, sqrt(0.25 / count).
    values = battlefield_values(default_nine_node(), default_params(9))
    sol = solve_equilibrium(values.defender, values.attacker, 2.5, 1.0)
    count = 200_000
    critical = 2.0 / np.sqrt(count)
    assert max(m.atom_at_zero for m in sol.marginals_a) > 0.7
    for marginals in (sol.marginals_d, sol.marginals_a):
        draws = draw_marginals(marginals, np.random.default_rng(12), count)
        for m, column in zip(marginals, draws.T):
            assert column.min() >= 0.0
            assert column.max() <= m.support_upper
            points, hits = np.unique(column, return_counts=True)
            after = np.cumsum(hits) / count
            before = after - hits / count
            cdf = np.array([marginal_cdf(m.atom_at_zero, m.support_upper, x)
                            for x in points.tolist()])
            cdf_before = np.where(points > 0.0, cdf, 0.0)
            distance = max(np.abs(after - cdf).max(),
                           np.abs(before - cdf_before).max())
            assert distance <= critical, (m, distance)


class FixedUniforms:
    """A stand-in generator whose random() returns one row of uniforms
    for every requested row, and counts its calls."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return np.tile(self.row, (size[0], 1))


def test_draws_stay_in_the_support_at_extreme_uniforms():
    # the largest uniform a generator returns, 1 - 2**-53, and an atom's
    # edge: no warning on atoms 0 or 1, and no draw above its support
    atoms = [0.0, 0.0, 1e-300, 0.1, 0.3, 0.5, 0.7, 1.0 - 2**-52, 1.0, 1.0]
    uppers = [1.0, 0.0, 3.0, 1e-300, 0.7, 1.9, 1.1, 2.5, 1.0, 0.0]
    marginals = Marginals(atoms, uppers)
    top = 1.0 - 2**-53
    for u in (0.0, 2**-53, 0.3, 0.5, 0.7, top):
        rng = FixedUniforms(np.full(len(atoms), u))
        draws = draw_marginals(marginals, rng, 3)
        assert rng.calls == 1
        assert np.all(draws >= 0.0) and np.all(draws <= uppers)
        hit = u < np.array(atoms)
        assert np.all((draws == 0.0)[:, hit])
    draws = draw_marginals(marginals, FixedUniforms(np.full(len(atoms), top)))
    assert draws[0, 0] == top and draws[0, -2:].tolist() == [0.0, 0.0]


def test_each_draw_makes_one_generator_call():
    class Counting:
        def __init__(self, seed):
            self.rng, self.calls = np.random.default_rng(seed), 0

        def random(self, size):
            self.calls += 1
            return self.rng.random(size)

    values = battlefield_values(default_nine_node(), default_params(9))
    sol = solve_equilibrium(values.defender, values.attacker, 2.5, 1.0)
    rng = Counting(1)
    draw_marginals(sol.marginals_a, rng, 5000)
    assert rng.calls == 1
    # the defender has no atom, so no row is redrawn
    rows = sample_allocations(sol.marginals_d, 2.5, 5000, rng)
    assert rng.calls == 2
    assert np.abs(rows.sum(axis=1) - 2.5).max() <= 1e-9 * 2.5
