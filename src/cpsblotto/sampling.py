"""Monte Carlo sampling of joint allocations from equilibrium marginals."""

from __future__ import annotations

import numpy as np

from .equilibrium import MarginalDistribution

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
                                epsilon: float, samples: int,
                                seed: int | None = 0) -> float:
    """Estimate P(|r_i / budget - share| <= epsilon) under joint sampling.

    Args:
        marginals: one player's marginals, one per battlefield.
        battlefield: index of the battlefield to watch.
        share: target budget fraction, in (0, 1).
        epsilon: half-width of the acceptance band, in (0, 1).
        samples: Monte Carlo sample count, at least MIN_BAND_SAMPLES.
        seed: RNG seed (or a Generator).

    Returns:
        The estimated probability.

    Raises:
        ValueError: battlefield lies outside 0..n-1, samples is below
            MIN_BAND_SAMPLES, or share or epsilon lies outside (0, 1).
    """
    n = len(marginals)
    if not 0 <= battlefield < n:
        raise ValueError(f"battlefield {battlefield} is not a battlefield "
                         f"id of these {n} marginals (0..{n - 1})")
    if samples < MIN_BAND_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_BAND_SAMPLES}")
    if not (0.0 < share < 1.0 and 0.0 < epsilon < 1.0):
        raise ValueError("share and epsilon must lie in (0, 1)")
    # The budget cancels out of r_i / budget, so sample on the unit simplex.
    allocations = sample_allocations(marginals, 1.0, samples,
                                     np.random.default_rng(seed))
    fractions = allocations[:, battlefield]
    return float(np.mean(np.abs(fractions - share) <= epsilon))
