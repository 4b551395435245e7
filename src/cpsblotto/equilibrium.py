"""Analytic equilibrium of the two-player resource-allocation game.

Battlefield i is worth g_i to the defender and h_i to the attacker (both
vectors positive and summing to 1).  Players split budgets R_D >= R_A across
battlefields simultaneously; the larger allocation wins a battlefield, ties
pay nobody.  The mixed equilibrium is characterized by two multipliers
(lambda_D, lambda_A): on battlefields the defender favors, the defender
randomizes uniformly on [0, h_i/lambda_A] while the attacker mixes an atom at
zero with a uniform part on the same support; on attacker-favored
battlefields (those in omega_a, where h_i/g_i exceeds mu = lambda_A/lambda_D)
the roles mirror.  mu solves a cubic determined by the budget ratio and the
partition; the partition in turn is fixed by mu, so the solver scans all
threshold partitions of the sorted ratios h_i/g_i.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

CUBIC_RESIDUAL_RTOL = 1e-10
BUDGET_IDENTITY_RTOL = 1e-9
# The bracket screen keeps a split whose smallest |cubic| on its interval is
# within this multiple of the residual gate; the slack dwarfs the rounding
# of the screen's own evaluations.
_SCREEN_MARGIN = 1e3


class EquilibriumRegimeError(RuntimeError):
    """No consistent partition/multiplier pair exists for these inputs."""


@dataclass(frozen=True)
class MarginalDistribution:
    """One player's equilibrium marginal on one battlefield.

    CDF(r) = atom_at_zero + (1 - atom_at_zero) * r / support_upper for
    r in [0, support_upper], so the distribution is an atom at zero plus a
    uniform segment.
    """

    battlefield: int
    owner: str  # "defender" or "attacker"
    atom_at_zero: float
    support_upper: float

    def cdf(self, r: float) -> float:
        if r < 0.0:
            return 0.0
        if r >= self.support_upper or self.support_upper == 0.0:
            return 1.0
        return self.atom_at_zero + (1.0 - self.atom_at_zero) * (
            r / self.support_upper)

    def mean(self) -> float:
        return (1.0 - self.atom_at_zero) * self.support_upper / 2.0


@dataclass(frozen=True)
class EquilibriumSolution:
    """Full analytic solution of one game instance."""

    mu: float
    lambda_d: float
    lambda_a: float
    omega_a: frozenset[int]
    marginals_d: tuple[MarginalDistribution, ...]
    marginals_a: tuple[MarginalDistribution, ...]
    payoff_d: float
    payoff_a: float
    cubic_residual: float


def _check_values(g: np.ndarray, h: np.ndarray, budget_d: float,
                  budget_a: float) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != h.shape or g.ndim != 1 or g.size == 0:
        raise ValueError("g and h must be equal-length non-empty vectors")
    for name, value in (("g", g), ("h", h), ("R_D", budget_d),
                        ("R_A", budget_a)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    if (g <= 0).any() or (h <= 0).any():
        raise EquilibriumRegimeError("battlefield values must be positive")
    if abs(g.sum() - 1.0) > 1e-6 or abs(h.sum() - 1.0) > 1e-6:
        raise ValueError("g and h must each sum to 1")
    if budget_d <= 0 or budget_a <= 0:
        raise ValueError("budgets must be positive")
    if budget_d < budget_a:
        raise ValueError("defender budget must be >= attacker budget")
    return g, h


def _cubic_value(coeffs: tuple[float, float, float, float],
                 mu: float) -> float:
    a, b, c, d = coeffs
    return ((a * mu + b) * mu + c) * mu + d


def _cubic_scale(coeffs: tuple[float, float, float, float],
                 mu: float) -> float:
    """The largest term of the cubic at mu; inf when a term overflows."""
    a, b, c, d = coeffs
    try:
        return max(abs(a * mu ** 3), abs(b * mu ** 2), abs(c * mu), abs(d),
                   1e-300)
    except OverflowError:
        return math.inf


def _passes_residual_gate(coeffs: tuple[float, float, float, float],
                          mu: float) -> bool:
    """Whether mu is a genuine root of the cubic, relative to its terms.

    A root whose terms overflow fails: its residual cannot be measured.
    """
    scale = _cubic_scale(coeffs, mu)
    return (scale < math.inf and abs(_cubic_value(coeffs, mu))
            <= CUBIC_RESIDUAL_RTOL * scale)


def _polish_root(coeffs: tuple[float, float, float, float], mu: float,
                 lo: float, hi: float) -> float:
    """Newton refinement of a cubic root, kept inside [lo, hi]."""
    a, b, c, _ = coeffs
    for _ in range(60):
        value = _cubic_value(coeffs, mu)
        if value == 0.0:
            break
        slope = (3.0 * a * mu + 2.0 * b) * mu + c
        if slope == 0.0:
            break
        step = value / slope
        nxt = mu - step
        if not (lo <= nxt <= hi):
            nxt = min(max(nxt, lo), hi)
        if nxt == mu:
            break
        mu = nxt
    return mu


def _real_roots(coeffs: tuple[float, float, float, float]) -> list[float]:
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
    out = []
    for root in roots:
        if abs(root.imag) < 1e-9 * max(1.0, abs(root.real)):
            out.append(float(root.real))
    return out


def _head_sums(x: np.ndarray) -> np.ndarray:
    """out[s] = x[:s].sum() for s = 0..len(x)."""
    return np.concatenate(([0.0], np.cumsum(x)))


def _tail_sums(x: np.ndarray) -> np.ndarray:
    """out[s] = x[s:].sum() for s = 0..len(x), summed from the tail so a
    small tail keeps its precision."""
    return np.concatenate((np.cumsum(x[::-1])[::-1], [0.0]))


def _screen_inner_splits(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                         d: np.ndarray, sorted_ratios: np.ndarray
                         ) -> np.ndarray:
    """Flags the inner splits s = 1..n-1 (entry s - 1) whose consistency
    interval [lo, hi] = [sorted_ratios[s-1], sorted_ratios[s]] can hold a
    root of the split's cubic p that passes the residual gate.

    An accepted mu lies in [lo, hi) with |p(mu)| <= rtol * scale(mu), and
    every term of the scale grows with mu > 0, so scale(mu) <= scale(hi).
    Where p keeps its sign on [lo, hi], the smallest |p| lies at an end or
    at a critical point.  A split is dropped only when p keeps one sign at
    both ends and at its critical points clipped into [lo, hi], all of
    those values are finite, and the smallest exceeds _SCREEN_MARGIN times
    rtol * scale(hi).
    """
    a, b, c, d = a[1:-1], b[1:-1], c[1:-1], d[1:-1]
    lo, hi = sorted_ratios[:-1], sorted_ratios[1:]
    with np.errstate(all="ignore"):
        # Roots of p' = 3a x^2 + 2b x + c in the cancellation-free form
        # (b = -q * sum g <= 0); where p' has no real roots these are two
        # more points of the interval, which only add to the check.
        big = np.sqrt(np.maximum(b * b - 3.0 * a * c, 0.0)) - b
        points = np.stack((lo, hi, np.clip(big / (3.0 * a), lo, hi),
                           np.clip(c / big, lo, hi)))
        values = ((a * points + b) * points + c) * points + d
        scale = np.maximum.reduce((np.abs(a) * hi ** 3, np.abs(b) * hi ** 2,
                                   np.abs(c) * hi, np.abs(d),
                                   np.full(hi.shape, 1e-300)))
        finite = np.isfinite(values).all(axis=0) & np.isfinite(scale)
        crosses = (values.min(axis=0) <= 0.0) & (values.max(axis=0) >= 0.0)
        near = (np.abs(values).min(axis=0)
                <= _SCREEN_MARGIN * CUBIC_RESIDUAL_RTOL * scale)
    return ~finite | crosses | near


def _scan_order(series: np.ndarray, sorted_ratios: np.ndarray):
    """Splits in scan order: n, then the inner splits the bracket screen
    keeps, from the top down, then 0.  The screen runs only once split n
    has failed."""
    n = sorted_ratios.size
    yield n
    kept = np.flatnonzero(_screen_inner_splits(*series, sorted_ratios)) + 1
    yield from kept[::-1].tolist()
    yield 0


def _scan_partitions(g: np.ndarray, h: np.ndarray, q: float
                     ) -> tuple[float, np.ndarray]:
    """The multiplier ratio mu and the attacker-favored mask.

    Scans the threshold partitions of the sorted ratios h_i/g_i, from every
    battlefield defender-favored (split n) to every battlefield
    attacker-favored (split 0), and keeps the first root of a partition's
    cubic a mu^3 + b mu^2 + c mu + d = 0 that lies in the partition's
    consistency interval.  a, b come from the attacker-favored side and
    c, d from the defender-favored side; all four are read from cumulative
    sums over the sorted order.  Inner splits whose interval cannot hold a
    gate-passing root are screened out before any root solve.
    """
    n = g.size
    ratios = h / g
    order = np.argsort(ratios, kind="stable")
    sorted_ratios = ratios[order]
    gs, hs = g[order], h[order]
    # Split s puts order[s:] in omega_a and order[:s] on the defender side.
    # A subnormal value overflows a squared ratio to inf; the scan handles
    # non-finite coefficients.
    with np.errstate(over="ignore"):
        series = np.stack((_tail_sums(gs ** 2 / hs), -q * _tail_sums(gs),
                           _head_sums(hs), -q * _head_sums(hs ** 2 / gs)))

    for split in _scan_order(series, sorted_ratios):
        lo = float(sorted_ratios[split - 1]) if split >= 1 else 0.0
        hi = float(sorted_ratios[split]) if split < n else np.inf
        if split < n and hi <= lo:
            # Tied ratios collapse this interval; the shared boundary value
            # is reachable through the interval that starts at it.
            continue
        coeffs = tuple(series[:, split].tolist())
        for root in _real_roots(coeffs):
            if root <= 0.0:
                continue
            mu = _polish_root(coeffs, root,
                              max(lo, np.nextafter(0.0, 1.0)), hi)
            if not (lo <= mu < hi) or mu <= 0.0:
                continue
            # Polishing clamps into the interval, so a root belonging to a
            # different partition can land on the boundary; only a genuine
            # root of this partition's cubic counts.
            if not _passes_residual_gate(coeffs, mu):
                continue
            members = np.zeros(n, dtype=bool)
            members[order[split:]] = True
            if np.array_equal(ratios > mu, members):
                return mu, members
    raise EquilibriumRegimeError(
        "no equilibrium in solver's regime: no threshold partition of "
        "h_i/g_i admits a consistent multiplier ratio")


def _by_side(members: np.ndarray, inside: np.ndarray,
             outside: np.ndarray) -> np.ndarray:
    """One array from the values on the members and on the rest."""
    out = np.empty(members.size)
    out[members] = inside
    out[~members] = outside
    return out


def solve_equilibrium(g: np.ndarray, h: np.ndarray, budget_d: float,
                      budget_a: float) -> EquilibriumSolution:
    """Analytic solution: partition, multipliers, marginals, payoffs.

    Battlefield i is attacker-favored (in omega_a) exactly when h_i/g_i
    exceeds mu = lambda_A / lambda_D, with ratio ties resolved to the
    defender-favored side.  The solver scans the threshold partitions of
    the sorted ratios once, reading each partition's cubic in mu from
    prefix sums, solves the cubic only where a closed-form bracket screen
    shows that the partition's interval can hold a root, and keeps the root
    that is consistent with its partition.

    lambda_D follows from the attacker budget identity; the defender
    identity then holds to the accuracy of the cubic root and is re-checked
    at BUDGET_IDENTITY_RTOL.  Defender-favored battlefields: defender
    uniform on [0, h_i/lambda_a], attacker atom 1 - h_i/(g_i mu) plus a
    uniform part on the same support.  Attacker-favored battlefields mirror
    the roles with support g_i/lambda_d.  The attacker wins a
    defender-favored battlefield with probability h_i / (2 g_i mu); the
    defender wins an attacker-favored one with probability g_i mu / (2 h_i).
    Ties carry zero probability mass.

    Raises:
        ValueError: g, h or a budget is malformed or non-finite.
        EquilibriumRegimeError: a value is non-positive, no partition admits
            a consistent root, a budget identity fails, or an atom mass
            falls outside [0, 1].
    """
    g, h = _check_values(g, h, budget_d, budget_a)
    q = budget_d / budget_a
    mu, members = _scan_partitions(g, h, q)
    outside = ~members
    g_in, h_in, g_out, h_out = g[members], h[members], g[outside], h[outside]

    # Masked sums over the chosen partition, recomputed independently of the
    # scan's prefix sums: they give the reported residual and the lambdas.
    sum_g_in = g_in.sum()
    sum_sq_in = (g_in ** 2 / h_in).sum()
    sum_h_out = h_out.sum()
    sum_sq_out = (h_out ** 2 / g_out).sum()
    coeffs = (float(sum_sq_in), float(-q * sum_g_in), float(sum_h_out),
              float(-q * sum_sq_out))
    residual = abs(_cubic_value(coeffs, mu)) / _cubic_scale(coeffs, mu)

    spend_a = sum_g_in / 2.0 + sum_sq_out / (2.0 * mu ** 2)
    lambda_d = spend_a / budget_a
    lambda_a = mu * lambda_d
    spend_d = mu * sum_sq_in / 2.0 + sum_h_out / (2.0 * mu)
    if abs(spend_d / lambda_d - budget_d) > BUDGET_IDENTITY_RTOL * budget_d:
        raise EquilibriumRegimeError(
            "budget identities are inconsistent at the computed multiplier")

    # One player per battlefield has an atom at zero: the defender on
    # attacker-favored battlefields, the attacker everywhere else.  Each
    # expression is evaluated only on its own side, where it is finite.
    upper = _by_side(members, g_in / lambda_d, h_out / lambda_a)
    atom = _by_side(members, 1.0 - g_in * mu / h_in,
                    1.0 - h_out / (g_out * mu))
    bad = np.flatnonzero((atom < -1e-12) | (atom > 1.0 + 1e-12))
    if bad.size:
        raise EquilibriumRegimeError(
            f"atom mass {atom[bad[0]]} outside [0, 1] on battlefield {bad[0]}")
    rows = list(enumerate(zip(np.clip(atom, 0.0, 1.0).tolist(),
                              upper.tolist(), members.tolist())))
    marginals_d = tuple(
        MarginalDistribution(battlefield=i, owner="defender",
                             atom_at_zero=a if inside else 0.0,
                             support_upper=up)
        for i, (a, up, inside) in rows)
    marginals_a = tuple(
        MarginalDistribution(battlefield=i, owner="attacker",
                             atom_at_zero=0.0 if inside else a,
                             support_upper=up)
        for i, (a, up, inside) in rows)

    p_attacker_wins = _by_side(members, 1.0 - g_in * mu / (2.0 * h_in),
                               h_out / (2.0 * g_out * mu))
    return EquilibriumSolution(
        mu=float(mu), lambda_d=float(lambda_d), lambda_a=float(lambda_a),
        omega_a=frozenset(np.flatnonzero(members).tolist()),
        marginals_d=marginals_d, marginals_a=marginals_a,
        payoff_d=float((g * (1.0 - p_attacker_wins)).sum()),
        payoff_a=float((h * p_attacker_wins).sum()),
        cubic_residual=float(residual))


def complete_info_payoffs(budget_d: float, budget_a: float
                          ) -> tuple[float, float]:
    """Closed-form payoffs when both players value battlefields identically."""
    if budget_d < budget_a:
        raise ValueError("defender budget must be >= attacker budget")
    payoff_a = budget_a / (2.0 * budget_d)
    return 1.0 - payoff_a, payoff_a


@dataclass(frozen=True)
class SingleDependencyReport:
    """Closed forms for the one-dependency special case (see
    single_dependency_case)."""

    g: np.ndarray
    mu: float
    lambda_d: float
    lambda_a: float
    payoff_d: float
    payoff_a: float
    payoff_d_baseline: float
    defender_gain: float
    variant_payoff_d: float
    variant_consistent: bool


def single_dependency_case(h: np.ndarray, budget_d: float, budget_a: float
                           ) -> SingleDependencyReport:
    """Closed-form equilibrium when exactly one interdependency exists.

    The failure of the highest-valued node (weight h_m) fully compromises the
    lowest-valued node (weight h_l) and no other coupling exists, so
    g_m = (h_m + h_l)/(1 + h_l) and g_i = h_i/(1 + h_l) elsewhere.  Valid
    when R_D/R_A >= (h_m + h_l)/(h_m + h_l - h_m h_l); every battlefield is
    then defender-favored and the attacker payoff stays R_A/(2 R_D).

    The report also carries a published closed-form variant of the defender
    payoff (variant_payoff_d) that disagrees with the integrated payoff for
    R_D != R_A; variant_consistent flags whether the two agree.

    Raises:
        ValueError: h has fewer than two entries, is degenerate, or the
            budget ratio is outside the theorem regime.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 2:
        raise ValueError("h must hold at least two battlefield values")
    if np.any(h <= 0) or abs(h.sum() - 1.0) > 1e-6:
        raise ValueError("h must be positive and sum to 1")
    m = int(np.argmax(h))
    l = int(np.argmin(h))
    if m == l:
        raise ValueError("h must have distinct max and min entries")
    h_m, h_l = float(h[m]), float(h[l])

    denom = h_m + h_l - h_m * h_l
    bound = (h_m + h_l) / denom
    q = budget_d / budget_a
    if q < bound:
        raise ValueError(
            f"outside theorem regime: R_D/R_A = {q:.6g} < {bound:.6g}")

    g = h / (1.0 + h_l)
    g[m] = (h_m + h_l) / (1.0 + h_l)

    # mu = q * sum(h^2/g) with this g; the sum collapses to the closed form.
    shape = (1.0 + h_l) * denom / (h_m + h_l)
    mu = q * shape
    lambda_a = 1.0 / (2.0 * budget_d)
    lambda_d = lambda_a / mu

    payoff_a = budget_a / (2.0 * budget_d)
    payoff_d = 1.0 - 1.0 / (2.0 * mu)
    payoff_d_baseline, _ = complete_info_payoffs(budget_d, budget_a)

    # Published alternate closed form, kept only as a flagged cross-check.
    variant = 1.0 + (budget_d - 2.0 * budget_a) / (2.0 * budget_d) * shape
    return SingleDependencyReport(
        g=g, mu=float(mu), lambda_d=float(lambda_d), lambda_a=float(lambda_a),
        payoff_d=float(payoff_d), payoff_a=float(payoff_a),
        payoff_d_baseline=float(payoff_d_baseline),
        defender_gain=float(payoff_d - payoff_d_baseline),
        variant_payoff_d=float(variant),
        variant_consistent=bool(abs(variant - payoff_d) <= 1e-9))


def solution_document(solution: EquilibriumSolution) -> dict:
    """Serialize a solution to the documented JSON schema."""
    marginals = []
    for marginal in solution.marginals_a + solution.marginals_d:
        marginals.append({"i": marginal.battlefield, "owner": marginal.owner,
                          "atom": marginal.atom_at_zero,
                          "upper": marginal.support_upper})
    return {
        "mu": solution.mu,
        "lambda_A": solution.lambda_a,
        "lambda_D": solution.lambda_d,
        "omega_A": sorted(solution.omega_a),
        "marginals": marginals,
        "payoff_D": solution.payoff_d,
        "payoff_A": solution.payoff_a,
    }


def solution_from_document(doc: dict) -> EquilibriumSolution:
    """Rebuild a solution from its JSON document (inverse of solution_document)."""
    marginals_d = []
    marginals_a = []
    for entry in doc["marginals"]:
        marginal = MarginalDistribution(
            battlefield=int(entry["i"]), owner=entry["owner"],
            atom_at_zero=float(entry["atom"]),
            support_upper=float(entry["upper"]))
        if marginal.owner == "defender":
            marginals_d.append(marginal)
        else:
            marginals_a.append(marginal)
    marginals_d.sort(key=lambda m: m.battlefield)
    marginals_a.sort(key=lambda m: m.battlefield)
    return EquilibriumSolution(
        mu=float(doc["mu"]), lambda_d=float(doc["lambda_D"]),
        lambda_a=float(doc["lambda_A"]),
        omega_a=frozenset(int(i) for i in doc["omega_A"]),
        marginals_d=tuple(marginals_d), marginals_a=tuple(marginals_a),
        payoff_d=float(doc["payoff_D"]), payoff_a=float(doc["payoff_A"]),
        cubic_residual=0.0)


def solution_to_json(solution: EquilibriumSolution) -> str:
    return json.dumps(solution_document(solution), indent=2)
