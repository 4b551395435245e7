"""Output checks the benchmark applies on every seed.

Each ``*_problems`` function returns a list of messages, empty when the
output passes; an operation with any message counts as failed.  The
tolerances are the library's own: the cubic residual (1e-10) and budget
identities (1e-9) of ``equilibrium``, and the oracle's 0.03 payoff bound.
Reference outputs for one fixed seed live in ``reference.npz``; effect
matrices must match them to 1e-12 and every other value to 1e-9.
"""

from __future__ import annotations

import os

import numpy as np

from . import api

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.npz")
EFFECT_TOL = 1e-12
VALUE_TOL = 1e-9


def marginal_means(marginals) -> np.ndarray:
    return np.array([m.mean() for m in marginals])


def partitions_scanned(solution) -> int:
    """Threshold partitions the solver tries before it returns.

    The scan starts from the empty attacker-favoured set and grows it one
    battlefield at a time, so it stops after |omega_a| + 1 partitions.
    """
    return len(solution.omega_a) + 1


def solution_residuals(solution, budget_d: float,
                       budget_a: float) -> tuple[float, float]:
    """(cubic residual, worst relative budget-identity residual)."""
    identity = max(
        abs(marginal_means(solution.marginals_d).sum() - budget_d) / budget_d,
        abs(marginal_means(solution.marginals_a).sum() - budget_a) / budget_a)
    return float(solution.cubic_residual), float(identity)


def solution_problems(solution, budget_d: float, budget_a: float) -> list[str]:
    residual, identity = solution_residuals(solution, budget_d, budget_a)
    problems = []
    if not residual <= api.equilibrium.CUBIC_RESIDUAL_RTOL:
        problems.append(f"cubic residual {residual:.3g}")
    if not identity <= api.equilibrium.BUDGET_IDENTITY_RTOL:
        problems.append(f"budget identity residual {identity:.3g}")
    return problems


def values_problems(g: np.ndarray) -> list[str]:
    if not (np.all(g > 0) and abs(g.sum() - 1.0) <= VALUE_TOL):
        return [f"g is not a positive vector summing to 1 (sum {g.sum()!r})"]
    return []


def effect_problems(E: np.ndarray, T: np.ndarray, t0: float) -> list[str]:
    """E in [0, 1]; T >= t0 off the diagonal; both with zero diagonals.

    Removing a node cannot shorten a path among the survivors, so every
    off-diagonal stretch ratio is at least 1 and T at least t0.
    """
    off = ~np.eye(E.shape[0], dtype=bool)
    problems = []
    if not (np.all((E >= 0.0) & (E <= 1.0)) and np.all(np.diag(E) == 0.0)):
        problems.append("physical effects outside [0, 1] or non-zero diagonal")
    if not (np.all(T[off] >= t0) and np.all(np.diag(T) == 0.0)):
        problems.append("cyber effects below t0 or non-zero diagonal")
    return problems


def row_sum_problems(rows: np.ndarray, budget: float) -> list[str]:
    worst = float(np.abs(rows.sum(axis=1) - budget).max()) / budget
    if not worst <= VALUE_TOL:
        return [f"sampled rows miss the budget by {worst:.3g} of it"]
    return []


def sampled_mean_error(marginals, budget: float, rows: np.ndarray) -> float:
    """Worst relative gap between sampled and marginal means.

    Taken over battlefields whose marginal mean is at least an even share
    of the budget, where the Monte Carlo error of the sampled mean is small.
    """
    means = marginal_means(marginals)
    watched = means >= budget / means.size
    if not watched.any():
        return 0.0
    gap = np.abs(rows[:, watched].mean(axis=0) / means[watched] - 1.0)
    return float(gap.max())


def oracle_problems(gap: float) -> list[str]:
    if not gap <= api.oracle.PAYOFF_TOLERANCE:
        return [f"oracle payoff gap {gap:.4f} above "
                f"{api.oracle.PAYOFF_TOLERANCE}"]
    return []


def reference_problems(outputs: dict[str, np.ndarray],
                       reference: dict[str, np.ndarray]) -> list[str]:
    """Compare check-seed outputs against the committed reference values.

    Keys ending in ``.E`` or ``.T`` are effect matrices (1e-12); the rest
    are compared at 1e-9 relative to max(1, |reference|).
    """
    problems = []
    for key, value in outputs.items():
        if key not in reference:
            problems.append(f"reference has no {key}")
            continue
        ref = reference[key]
        if np.shape(value) != ref.shape:
            problems.append(f"{key}: shape {np.shape(value)} != {ref.shape}")
            continue
        tol = EFFECT_TOL if key.endswith((".E", ".T")) else VALUE_TOL
        err = np.abs(np.asarray(value, dtype=float) - ref)
        if not np.all(err <= tol * np.maximum(1.0, np.abs(ref))):
            problems.append(f"{key}: off the reference by {err.max():.3g}")
    return problems


def load_reference() -> dict[str, np.ndarray]:
    with np.load(REFERENCE_PATH, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}
