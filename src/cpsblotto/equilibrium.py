"""Analytic equilibrium of the two-player resource-allocation game.

Battlefield i is worth g_i to the defender and h_i to the attacker (both
vectors positive and summing to 1).  Players split budgets R_D >= R_A across
battlefields simultaneously; the larger allocation wins a battlefield, ties
pay nobody.  The game is General Lotto, each budget binding in expectation
(Hart 2008; Kovenock & Roberson 2021), whose uniform-marginal equilibria are
the paper's closed forms; the oracle plays exact-budget Blotto.  The mixed
equilibrium is characterized by two multipliers (lambda_D, lambda_A): on
battlefields the defender favors, the defender randomizes uniformly on
[0, h_i/lambda_A] while the attacker mixes an atom at zero with a uniform
part on the same support; on attacker-favored battlefields (those in
omega_a, where h_i/g_i exceeds mu = lambda_A/lambda_D) the roles mirror.
mu solves a cubic determined by the budget ratio and the partition; the
partition in turn is fixed by mu, so the solver scans all threshold
partitions of the sorted ratios h_i/g_i.  Where several mu are consistent,
it returns the largest among the roots whose cubic terms neither overflow
nor all underflow, and within one partition the largest root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import VALUE_SUM_TOL, check_budgets, check_values

CUBIC_RESIDUAL_RTOL = 1e-10
BUDGET_IDENTITY_RTOL = 1e-9
# A root this close below a partition's upper breakpoint is taken to lie
# on it, where the partition's cubic and the one above it meet.
_BREAKPOINT_RTOL = 1e-12


class EquilibriumRegimeError(RuntimeError):
    """No consistent partition/multiplier pair exists for these inputs."""


@dataclass(frozen=True)
class MarginalDistribution:
    """One player's equilibrium marginal on one battlefield: an atom of mass
    atom_at_zero at zero plus a uniform segment up to support_upper.

    The library and the demos read marginals only as a Marginals' arrays;
    iterating a Marginals yields these records, one per battlefield, for
    the benchmark harness and the tests, which read them.
    """

    atom_at_zero: float
    support_upper: float

    def mean(self) -> float:
        return (1.0 - self.atom_at_zero) * self.support_upper / 2.0


@dataclass(frozen=True, eq=False)
class Marginals:
    """One player's equilibrium marginals on every battlefield.

    atom[i] is the mass at zero and upper[i] the support's upper end on
    battlefield i; both are read-only float arrays.  Iteration yields one
    MarginalDistribution per battlefield, built as it is read.  Like every
    record that holds arrays, Marginals compare by identity.
    """

    atom: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("atom", "upper"):
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.atom.ndim != 1 or self.atom.shape != self.upper.shape:
            raise ValueError(
                f"atom and upper must be 1-D arrays of one length, got "
                f"shapes {self.atom.shape} and {self.upper.shape}")

    def __len__(self) -> int:
        return self.atom.size

    def __iter__(self):
        return map(MarginalDistribution, self.atom.tolist(),
                   self.upper.tolist())


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Full analytic solution of one game instance; marginals_d and
    marginals_a hold the two players' marginals, by battlefield."""

    mu: float
    lambda_d: float
    lambda_a: float
    omega_a: frozenset[int]
    marginals_d: Marginals
    marginals_a: Marginals
    payoff_d: float
    payoff_a: float
    cubic_residual: float


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

    A root whose terms overflow fails: its residual cannot be measured.  So
    does a root whose terms all underflow, where the scale sits at its
    1e-300 floor and the cubic may vanish only because its terms did.
    """
    scale = _cubic_scale(coeffs, mu)
    return (1e-300 < scale < math.inf and abs(_cubic_value(coeffs, mu))
            <= CUBIC_RESIDUAL_RTOL * scale)


def _bracketed_root(coeffs: tuple[float, float, float, float], lo: float,
                    hi: float, rising: bool) -> float:
    """A point where the cubic changes sign in [lo, hi], upward when rising.

    The cubic needs only to change sign between the bracket's ends, not to
    be monotone there.  Bisects geometrically while the bracket spans more
    than a factor of 4, so that a bracket such as [0, 1e300] narrows in
    about ten steps, and arithmetically after that; lo is floored at the
    least positive float and hi clamped at the largest.  Returns an exact
    zero, or, once no float lies strictly inside the bracket, the end that
    moved last (lo if neither did): a float next to the sign change.
    """
    lo = max(lo, math.ulp(0.0))
    hi = min(hi, sys.float_info.max)
    mu = lo
    while True:
        nxt = (math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo
               else lo + 0.5 * (hi - lo))
        if not lo < nxt < hi:
            return mu
        mu = nxt
        value = _cubic_value(coeffs, mu)
        if value == 0.0:
            return mu
        if (value > 0.0) == rising:
            hi = mu
        else:
            lo = mu


def _head_sums(x: np.ndarray) -> np.ndarray:
    """out[s] = x[:s].sum() for s = 0..len(x)."""
    return np.concatenate(([0.0], np.cumsum(x)))


def _tail_sums(x: np.ndarray) -> np.ndarray:
    """out[s] = x[s:].sum() for s = 0..len(x), summed from the tail so a
    small tail keeps its precision."""
    return np.concatenate((np.cumsum(x[::-1])[::-1], [0.0]))


def _scan_partitions(g: np.ndarray, h: np.ndarray, q: float
                     ) -> tuple[float, np.ndarray]:
    """The multiplier ratio mu and the attacker-favored mask.

    Split s of the sorted ratios h_i/g_i puts the battlefields above it in
    omega_a, and its cubic a mu^3 + b mu^2 + c mu + d = 0 holds on its
    consistency interval [lo, hi) between breakpoints; a, b come from the
    attacker-favored side and c, d from the defender-favored side, all read
    from cumulative sums over the sorted order.  F(mu), the cubic of the
    split that mu induces, is continuous, so its sign at each split's ends
    and at the split cubic's critical points brackets every root.  The scan
    takes the bracketing pieces from split n (every battlefield
    defender-favored) down to split 0, and each split's pieces from the top
    down, so it returns the largest root whose terms neither overflow nor
    all underflow.
    """
    n = g.size
    # A subnormal g_i overflows its ratio to inf: a breakpoint that only
    # split n owns, where F is +inf as at the top knot.
    with np.errstate(over="ignore"):
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

    a, b, c, _ = series
    lo = np.concatenate(([0.0], sorted_ratios))
    hi = np.append(sorted_ratios, np.inf)
    with np.errstate(all="ignore"):
        # The roots c/s and s/(3a) of p' = 3a x^2 + 2b x + c, with a, c >= 0
        # >= b, scaled by -b so that neither b^2 nor 3ac underflows.  Where
        # t > 1, p' has no real root and p rises on the whole interval.
        t = (3.0 * a / -b) * (c / -b)
        s = -b * (1.0 + np.sqrt(1.0 - t))
        critical = np.clip((c / s, s / (3.0 * a)), lo, hi)
        critical = np.where(np.isnan(critical), lo, critical)
        knots = np.vstack((lo, critical, hi))
        # One value of F per breakpoint, from the split that owns it, so
        # that rounding cannot give the two cubics that meet there opposite
        # signs.
        owner = np.searchsorted(sorted_ratios, sorted_ratios, side="right")
        at_breaks = np.where(np.isinf(sorted_ratios), np.inf,
                             _cubic_value(series, lo)[owner])
        values = np.vstack((np.concatenate(([0.0], at_breaks)),
                            _cubic_value(series, critical),
                            np.append(at_breaks, np.inf)))
        low, high = values[:-1], values[1:]
        brackets = ((knots[1:] > knots[:-1])
                    & (np.minimum(low, high) <= 0.0)
                    & (np.maximum(low, high) >= 0.0))

    # Candidate pieces from split n down, each split's pieces from the top.
    for flat in np.flatnonzero(brackets.T[::-1, ::-1]).tolist():
        split, piece = n - flat // 3, 2 - flat % 3
        # Python floats: a numpy bound can become mu, and its overflowing
        # mu ** 3 in the residual gate would warn instead of raising.
        x0, x1 = knots[piece:piece + 2, split].tolist()
        v0, v1 = values[piece:piece + 2, split].tolist()
        coeffs = tuple(series[:, split].tolist())
        if split == n:
            # Every battlefield defender-favored: the cubic is linear.
            mu = max(-coeffs[3] / coeffs[2], x0)
        else:
            mu = _bracketed_root(coeffs, x0, x1, v0 < v1)
        top = float(hi[split])
        if top * (1.0 - _BREAKPOINT_RTOL) <= mu < top:
            mu = top
        member_split = int(np.searchsorted(sorted_ratios, mu, side="right"))
        if _passes_residual_gate(tuple(series[:, member_split].tolist()), mu):
            return mu, ratios > mu
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
    prefix sums.  The signs of the cubics at the breakpoints and at their
    critical points bracket every root, and bisection solves each bracket.
    When several partitions hold a consistent root, it returns the largest
    mu: the scan runs from the largest ratios down, and every root in a
    higher partition's interval exceeds every root in a lower one's.
    Within one partition it keeps the largest root.  A root counts only
    when the cubic's terms at it neither overflow nor all underflow, and its
    residual passes CUBIC_RESIDUAL_RTOL.  A root within _BREAKPOINT_RTOL
    below a partition's upper breakpoint is taken to lie on it.

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
        ValidationError: g or h breaks the value rule (check_values, summing
            to 1), or a budget breaks check_budgets.
        EquilibriumRegimeError: no partition admits a consistent root, a
            multiplier or support is not finite, a budget identity fails,
            or an atom mass falls outside [0, 1].
    """
    g = check_values("g", g, sum_tol=VALUE_SUM_TOL)
    h = check_values("h", h, g.size, VALUE_SUM_TOL)
    check_budgets(budget_d, budget_a)
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
    if not (np.isfinite((lambda_d, lambda_a)).all() and lambda_d > 0.0):
        raise EquilibriumRegimeError(
            f"multipliers lambda_D = {lambda_d}, lambda_A = {lambda_a} at "
            f"mu = {mu} are not positive and finite")
    spend_d = mu * sum_sq_in / 2.0 + sum_h_out / (2.0 * mu)
    if abs(spend_d / lambda_d - budget_d) > BUDGET_IDENTITY_RTOL * budget_d:
        raise EquilibriumRegimeError(
            "budget identities are inconsistent at the computed multiplier")

    # One player per battlefield has an atom at zero: the defender on
    # attacker-favored battlefields, the attacker everywhere else.  Each
    # expression is evaluated only on its own side, where it is finite.
    upper = _by_side(members, g_in / lambda_d, h_out / lambda_a)
    if not np.isfinite(upper).all():
        raise EquilibriumRegimeError("a marginal's support is not finite")
    atom = _by_side(members, 1.0 - g_in * mu / h_in,
                    1.0 - h_out / (g_out * mu))
    bad = np.flatnonzero((atom < -1e-12) | (atom > 1.0 + 1e-12))
    if bad.size:
        raise EquilibriumRegimeError(
            f"atom mass {atom[bad[0]]} outside [0, 1] on battlefield {bad[0]}")
    atom = np.clip(atom, 0.0, 1.0)
    marginals_d = Marginals(np.where(members, atom, 0.0), upper)
    marginals_a = Marginals(np.where(members, 0.0, atom), upper)

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
    """Closed-form payoffs when both players value battlefields identically.

    Raises:
        ValidationError: a budget is not finite and positive, or R_D < R_A.
    """
    check_budgets(budget_d, budget_a)
    payoff_a = budget_a / (2.0 * budget_d)
    return 1.0 - payoff_a, payoff_a


@dataclass(frozen=True, eq=False)
class SingleDependencyReport:
    """Closed forms for the one-dependency special case (see
    single_dependency_case): the defender values g, the multipliers and
    the two payoffs."""

    g: np.ndarray
    mu: float
    lambda_d: float
    lambda_a: float
    payoff_d: float
    payoff_a: float


def single_dependency_case(h: np.ndarray, budget_d: float, budget_a: float
                           ) -> SingleDependencyReport:
    """Closed-form equilibrium when exactly one interdependency exists.

    The failure of the highest-valued node (weight h_m) fully compromises the
    lowest-valued node (weight h_l) and no other coupling exists, so
    g_m = (h_m + h_l)/(1 + h_l) and g_i = h_i/(1 + h_l) elsewhere.  Valid
    when R_D/R_A >= (h_m + h_l)/(h_m + h_l - h_m h_l); every battlefield is
    then defender-favored and the attacker payoff stays R_A/(2 R_D).  The
    defender payoff is 1 - 1/(2 mu), where mu = (R_D/R_A) s and
    s = (1 + h_l)(h_m + h_l - h_m h_l)/(h_m + h_l); the published variant
    1 + (R_D - 2 R_A)/(2 R_D) s disagrees with it for R_D != R_A.

    Raises:
        ValidationError: h breaks the value rule (check_values, summing to
            1), or a budget breaks check_budgets.
        ValueError: h has no distinct max and min entries (so fewer than
            two), or the budget ratio is outside the theorem regime.
    """
    h = check_values("h", h, sum_tol=VALUE_SUM_TOL)
    m = int(np.argmax(h))
    l = int(np.argmin(h))
    if m == l:
        raise ValueError("h must have distinct max and min entries")
    h_m, h_l = float(h[m]), float(h[l])
    check_budgets(budget_d, budget_a)

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
    return SingleDependencyReport(
        g=g, mu=float(mu), lambda_d=float(lambda_d), lambda_a=float(lambda_a),
        payoff_d=float(payoff_d), payoff_a=float(payoff_a))


def solution_document(solution: EquilibriumSolution) -> dict:
    """Serialize a solution to the documented JSON schema: the attacker's
    marginals, then the defender's, each with "i" its battlefield."""
    marginals = [{"i": i, "owner": owner, "atom": atom, "upper": upper}
                 for owner, side in (("attacker", solution.marginals_a),
                                     ("defender", solution.marginals_d))
                 for i, (atom, upper) in enumerate(
                     zip(side.atom.tolist(), side.upper.tolist()))]
    return {
        "mu": solution.mu,
        "lambda_A": solution.lambda_a,
        "lambda_D": solution.lambda_d,
        "omega_A": sorted(solution.omega_a),
        "marginals": marginals,
        "payoff_D": solution.payoff_d,
        "payoff_A": solution.payoff_a,
        "cubic_residual": solution.cubic_residual,
    }
