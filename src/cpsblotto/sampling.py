"""Joint allocations drawn from equilibrium marginals, and exact band
probabilities read from one marginal."""

from __future__ import annotations

import numpy as np

from .equilibrium import Marginals
from .model import check_budget, check_node_id

# Read only by the benchmark harness, which sizes its fig4 stratum with it;
# ROADMAP item 1 deletes it.
MIN_BAND_SAMPLES = 1000
_MAX_RESAMPLE = 1000
# Entries per block of draw_marginals' passes: 512 KiB of float64.
_BLOCK_ENTRIES = 1 << 16


def _cdf(atom: float, upper: float, r: float) -> float:
    """CDF at r > 0 of an atom `atom` at zero plus a uniform segment up to
    `upper`; a zero upper end is a point mass at zero."""
    if r >= upper or upper == 0.0:
        return 1.0
    return atom + (1.0 - atom) * (r / upper)


def draw_marginals(marginals: Marginals, rng: np.random.Generator,
                   count: int = 1) -> np.ndarray:
    """Independent draws from one player's marginals, one row per sample.

    One uniform u per entry serves both the atom and the value: with atom
    a and support upper end u_max, the draw is 0 where u < a and
    (u - a) / (1 - a) * u_max otherwise.  P(u < a) = a, and given u >= a,
    (u - a) / (1 - a) is uniform on [0, 1), so each entry has its
    marginal's law.  Dividing by 1 - a before scaling keeps every draw at
    or below u_max, since u - a rounds to at most 1 - a; a column with
    a = 1 divides by 1 instead and gives only zeros.
    """
    atom, upper = marginals.atom, marginals.upper
    divisor = np.where(atom < 1.0, 1.0 - atom, 1.0)
    draws = rng.random((count, atom.size))
    # Four passes over one block of rows at a time, which stays in cache.
    rows = max(1, _BLOCK_ENTRIES // max(1, atom.size))
    for start in range(0, count, rows):
        block = draws[start:start + rows]
        block -= atom
        # Exact zeroing: u - a is negative exactly where u < a.
        np.maximum(block, 0.0, out=block)
        block /= divisor
        block *= upper
    return draws


def sample_allocations(marginals: Marginals, budget: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Joint allocations of one player's marginals on the budget simplex.

    Each row is drawn independently from the marginals (draw_marginals:
    one uniform per entry, which keeps each marginal's law) and rescaled by
    budget / row-sum so it lands exactly on the simplex; all-zero rows (every
    marginal hit its atom) are redrawn.  Each row is summed once: a resample
    round sums only the rows it redraws.

    The rows sit exactly on the budget but do not keep the marginals: the
    rescaling moves each battlefield's mean.  On the nine-node system
    (200k rows, seed 0) the attacker's means move by -19.5% to +30.4% and
    the defender's by -4.3% to +3.3%.  Use draw_marginals for draws with
    the equilibrium marginals.

    Returns:
        (count, n) array whose rows sum to `budget`.

    Raises:
        ValueError: budget is not finite and positive.
    """
    check_budget("budget", budget)
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


def allocation_band_probability(marginals: Marginals, battlefield: int,
                                share: float, epsilon: float,
                                budget: float) -> float:
    """P(|r_i / budget - share| <= epsilon) under the equilibrium marginal.

    The probability depends only on the law of r_i, so it is the same for
    every joint allocation that keeps the marginals.  With
    lo = (share - epsilon) * budget and hi = (share + epsilon) * budget it is
    F(hi) - F(lo-), where F is the marginal's CDF: for atom a at zero and
    support upper bound u,

        P = a * [lo <= 0] + (1 - a) * max(0, min(hi, u) - max(lo, 0)) / u,

    and P = [lo <= 0] when u = 0 (a point mass at zero).

    Args:
        marginals: one player's marginals, whose atom and upper arrays
            are read at `battlefield`; the upper ends are in budget units.
        battlefield: index of the battlefield to watch.
        share: target budget fraction, in (0, 1]; a one-node system's
            only share is 1.
        epsilon: half-width of the acceptance band, in (0, 1).
        budget: the owner's budget R, finite and positive.

    Returns:
        The exact probability.

    Raises:
        ValueError: battlefield is not an integer id in 0..n-1, share lies
            outside (0, 1], epsilon lies outside (0, 1), or budget is not
            finite and positive.
    """
    check_node_id(battlefield, len(marginals), "battlefield")
    if not (0.0 < share <= 1.0 and 0.0 < epsilon < 1.0):
        raise ValueError("share and epsilon must lie in (0, 1] and (0, 1)")
    check_budget("budget", budget)
    # Python floats: _cdf on numpy scalars is several times slower.
    atom = marginals.atom.item(battlefield)
    upper = marginals.upper.item(battlefield)
    lo = (share - epsilon) * budget
    # F is continuous above 0, and F(lo-) = 0 for lo <= 0 keeps the atom in.
    below = _cdf(atom, upper, lo) if lo > 0.0 else 0.0
    return _cdf(atom, upper, (share + epsilon) * budget) - below
