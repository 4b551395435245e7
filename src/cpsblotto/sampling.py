"""Joint allocations drawn from equilibrium marginals, and exact band
probabilities read from one marginal."""

from __future__ import annotations

import math

import numpy as np

from .equilibrium import MarginalDistribution

# Read only by the benchmark harness, which sizes its fig4 stratum with it;
# ROADMAP item 5 deletes it.
MIN_BAND_SAMPLES = 1000
_MAX_RESAMPLE = 1000


def draw_marginals(marginals: tuple[MarginalDistribution, ...],
                   rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Independent draws from each marginal, one row per sample.

    Atom draws yield 0; otherwise the value is uniform on the support.
    """
    atoms = np.array([m.atom_at_zero for m in marginals])
    uppers = np.array([m.support_upper for m in marginals])
    draws = rng.random((count, len(marginals)))
    kept = draws >= atoms
    # Refilling the first buffer draws the same stream as a second array.
    rng.random(out=draws)
    draws *= uppers
    # Exact zeroing: the scaled values are finite and non-negative.
    draws *= kept
    return draws


def sample_allocations(marginals: tuple[MarginalDistribution, ...],
                       budget: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw joint allocations on the budget simplex.

    Each row is drawn independently from the marginals and rescaled by
    budget / row-sum so it lands exactly on the simplex; all-zero rows (every
    marginal hit its atom) are redrawn.  Each row is summed once: a resample
    round sums only the rows it redraws.

    The rows sit exactly on the budget but do not keep the marginals: the
    rescaling moves each battlefield's mean.  On the nine-node system
    (200k rows) the attacker's means move by -20% to +31% and the
    defender's by -4.5% to +3.4%.  Use draw_marginals for draws with the
    equilibrium marginals.

    Returns:
        (count, n) array whose rows sum to `budget`.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    samples = draw_marginals(marginals, rng, count)
    sums = samples.sum(axis=1)
    for _ in range(_MAX_RESAMPLE):
        dead = np.flatnonzero(sums == 0.0)
        if dead.size == 0:
            break
        redrawn = draw_marginals(marginals, rng, dead.size)
        samples[dead] = redrawn
        sums[dead] = redrawn.sum(axis=1)
    else:
        raise RuntimeError("could not draw a non-zero allocation")
    samples *= (budget / sums)[:, None]
    return samples


def sample_allocation(marginals: tuple[MarginalDistribution, ...],
                      budget: float, rng: np.random.Generator | int | None = None
                      ) -> np.ndarray:
    """Single joint allocation summing exactly to `budget`."""
    return sample_allocations(marginals, budget, 1,
                              np.random.default_rng(rng))[0]


def allocation_band_probability(marginals: tuple[MarginalDistribution, ...],
                                battlefield: int, share: float,
                                epsilon: float, budget: float) -> float:
    """P(|r_i / budget - share| <= epsilon) under the equilibrium marginal.

    The probability depends only on the law of r_i, so it is the same for
    every joint allocation that keeps the marginals.  With
    lo = (share - epsilon) * budget and hi = (share + epsilon) * budget it is
    F(hi) - F(lo-), where F is the marginal's CDF: for atom a at zero and
    support upper bound u,

        P = a * [lo <= 0] + (1 - a) * max(0, min(hi, u) - max(lo, 0)) / u,

    and P = [lo <= 0] when u = 0 (a point mass at zero).

    Args:
        marginals: one player's marginals, one per battlefield, in budget
            units.
        battlefield: index of the battlefield to watch.
        share: target budget fraction, in (0, 1).
        epsilon: half-width of the acceptance band, in (0, 1).
        budget: the owner's budget R, finite and positive.

    Returns:
        The exact probability.

    Raises:
        ValueError: battlefield lies outside 0..n-1, share or epsilon lies
            outside (0, 1), or budget is not finite and positive.
    """
    n = len(marginals)
    if not 0 <= battlefield < n:
        raise ValueError(f"battlefield {battlefield} is not a battlefield "
                         f"id of these {n} marginals (0..{n - 1})")
    if not (0.0 < share < 1.0 and 0.0 < epsilon < 1.0):
        raise ValueError("share and epsilon must lie in (0, 1)")
    if not (math.isfinite(budget) and budget > 0.0):
        raise ValueError(f"budget must be finite and positive, got {budget}")
    marginal = marginals[battlefield]
    lo = (share - epsilon) * budget
    # F is continuous above 0, and F(lo-) = 0 for lo <= 0 keeps the atom in.
    below = marginal.cdf(lo) if lo > 0.0 else 0.0
    return marginal.cdf((share + epsilon) * budget) - below
