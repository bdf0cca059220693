"""Activation-probability optimization over the candidate simplex.

The objective is ``xi(p) + alpha * |c(p)|_1`` where xi(p) is the
second-largest eigenvalue of the mixture matrix W(p) and c(p) the expected
per-node energy. xi is evaluated by deflation: with J = (1/n) * ones, the
top eigenpair of W(p) is (1, 1/sqrt(n)) for every simplex p, so
``lambda_max(W(p) - J)`` equals the second-largest eigenvalue of W(p) and
its top eigenvector yields a subgradient coordinate ``v' W_i v`` per
candidate. The objective is convex in p (pointwise max of linear functions
plus a linear term), so a projected subgradient scheme with diminishing
steps converges; runs are fully deterministic (uniform start, no
randomness).

Solver layout: a fixed schedule that splits the iteration budget evenly
over three phases with step multipliers 1, 0.1 and 0.01. The first phase
locates the active region; later phases shrink the oscillation band around
the optimum so the best iterate is accurate to ~1e-4 in objective on small
instances, which a single 1/sqrt(t) schedule does not reliably reach within
the same budget. Single-candidate vertices need no search: a lone cluster
with s < n members leaves the other nodes fixed (xi = 1), so only the
all-node cluster (W = J, xi = 0) can win, and it goes through the same
evaluation as every iterate.
W(p) is built from the (C, n) 0/1 membership matrix M and the cluster sizes
s as ``(sum p) I - diag(M'p) + M' diag(p/s) M``, also off the simplex, from
the rows of M where p is nonzero only: an iterate's support is typically
well under half the pool.

Eigensolves: every one is ``_deflated_top`` of W(p), which forms W - J,
raises ValueError unless it is finite and symmetric to 1e-9, and clips its
top eigenvalue to [0, 1] as xi. Inside ``optimize``, every evaluation
after the first passes the previous evaluation's eigenvector as a start:
lambda then comes from ``eigvalsh`` (the full spectrum, so lambda is
certified to be the top eigenvalue) and the eigenvector from one or two
solves of ``(W - J - (lambda + 1e-11) I) x = v_prev``, inverse iteration.
A pair is accepted at a residual of at most max(1e-9, 1e-12 |lambda|),
judged before the clip; without a start, or when no solve passes, the
full dense decomposition decides, and its failed residual raises
NumericalError.

Certified stop (weak duality, Boyd & Vandenberghe, Convex Optimization,
ch. 5): for any PSD Z with trace 1, ``lambda_max(W(p) - J) >= <Z, W(p) - J>``,
so ``LB(Z) = min_i(<Z, W_i> + alpha c_i) - <Z, J>`` bounds the objective from
below on the whole simplex, margin or not. Z is the mean of v v' over the
eigenvectors the solver computed since the previous bound (the start point
seeds the first, then every step's iterate), so <Z, W_i> is the mean of the
subgradient coordinates v' W_i v over that last window and the bound costs
O(C) per step. It is evaluated at the start of each phase and every stall
window that holds an evaluation, the largest value is kept, and the solve
stops once the best point meets the margin and its objective is within
1e-9 * max(1, |objective|) of the bound. Later windows hold eigenvectors
near the optimum, typically a tighter Z than the mean over every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .candidates import ClusterCandidate, membership, per_candidate, per_candidate_costs
from .errors import MIN_EPSILON, NumericalError, is_finite_number

__all__ = [
    "ActivationDistribution",
    "mixing_matrix",
    "xi",
    "objective_subgradient",
    "project_simplex",
    "optimize",
]

_ASYMMETRY_TOL = 1e-9
_RESIDUAL_TOL = 1e-9
# Warm-started inverse iteration: the shift past the top eigenvalue, and the most solves tried
# before falling back to the full decomposition.
_WARM_SHIFT = 1e-11
_WARM_SOLVES = 2
# Fixed schedule: iteration budget, step multipliers over an even split of it, the stall window
# and tolerance that end a phase early, and the floor at or below which p_i is zeroed.
_MAX_ITERS = 5000
_STEP_PHASES = (1.0, 0.1, 0.01)
_STALL_WINDOW = 500
_STALL_TOL = 1e-6
_SUPPORT_FLOOR = 1e-6
# Certified stop: the best objective within this much (times max(1, |obj|)) of the dual bound.
_GAP_TOL = 1e-9
# How far from 1 the sum of a projected vector may drift before float precision has lost it.
_SIMPLEX_TOL = 1e-6


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class ActivationDistribution:
    """Optimization outcome.

    When feasible is False the fields describe the iterate with the
    smallest xi found, which documents how far from connectivity the
    candidate set is.

    ``lower_bound`` is the weak-duality bound on the objective over the whole
    simplex, ``gap`` is ``objective - lower_bound`` (None when infeasible) and
    ``iterations`` counts the solver steps taken.
    """

    p: np.ndarray
    xi: float
    expected_cost_l1: float
    objective: float
    feasible: bool
    lower_bound: float
    gap: float | None
    iterations: int


def _mixture(p: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """W(p) from the membership rows where p is nonzero; see the module docstring."""
    support = p.nonzero()[0]
    rows, q = members[support], p[support]
    w = (rows.T * (q / sizes[support])) @ rows
    w.flat[:: w.shape[0] + 1] += q.sum() - q @ rows
    return w


def _spectral_subgradient(v: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``v' W_i v`` for every candidate i, as ``|v|^2 - (M v^2)_i + (M v)_i^2 / s_i``."""
    mv = members @ v
    return v @ v - members @ (v * v) + mv * mv / sizes


def mixing_matrix(p: np.ndarray, candidates: Sequence[ClusterCandidate], n: int) -> np.ndarray:
    """Expected averaging matrix W(p): the p-weighted candidate mixture."""
    return _mixture(per_candidate(p, candidates, "p"), *membership(candidates, n))


def _deflated_top(
    w: np.ndarray, n: int, start: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Top eigenvalue of W - J clipped to [0, 1] (xi), and its unit eigenvector; see above."""
    a = w - 1.0 / n
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(a - a.T).max() > _ASYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")
    if start is not None:
        top = float(np.linalg.eigvalsh(a)[-1])
        shifted = a.copy()
        shifted.flat[:: n + 1] -= top + _WARM_SHIFT
        for _ in range(_WARM_SOLVES):
            try:
                start = np.linalg.solve(shifted, start)
            except np.linalg.LinAlgError:  # singular: take the decomposition
                break
            norm = float(np.sqrt(start @ start))
            if not 0.0 < norm < np.inf:  # nothing to normalise: take the decomposition
                break
            start = start / norm
            r = a @ start - top * start
            if np.sqrt(r @ r) <= max(_RESIDUAL_TOL, 1e-12 * abs(top)):
                return min(max(top, 0.0), 1.0), start
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    top = float(eigenvalues[-1])
    vec = eigenvectors[:, -1]
    r = a @ vec - top * vec
    residual, tolerance = float(np.sqrt(r @ r)), max(_RESIDUAL_TOL, 1e-12 * abs(top))
    if not residual <= tolerance:  # a NaN residual fails too
        raise NumericalError(f"eigenpair residual {residual} exceeds tolerance {tolerance:g}")
    return min(max(top, 0.0), 1.0), vec


def _checked_costs(costs, candidates: Sequence[ClusterCandidate], alpha: float) -> np.ndarray:
    """``costs`` as a float vector, once they and ``alpha`` pass the rules ``optimize`` states."""
    if not is_finite_number(alpha) or alpha < 0:
        raise ValueError(f"alpha must be a finite number >= 0, got {alpha}")
    costs_arr = per_candidate_costs(costs, candidates, "costs")
    if not np.isfinite(float(alpha) * float(costs_arr.max(initial=0.0))):  # no numpy warning
        raise NumericalError(f"alpha {alpha:g} times the candidate costs overflows a float")
    return costs_arr


def xi(p: np.ndarray, candidates: Sequence[ClusterCandidate], n: int) -> float:
    """``lambda_max(W(p) - J)`` clipped to [0, 1]: on the simplex, the second-largest eigenvalue of
    W(p); off it, the convex extension that the subgradients and their finite differences use."""
    return _deflated_top(mixing_matrix(p, candidates, n), n)[0]


def objective_subgradient(
    p: np.ndarray,
    candidates: Sequence[ClusterCandidate],
    costs: Sequence[float],
    alpha: float,
    n: int,
) -> np.ndarray:
    """Subgradient of the objective at p.

    Coordinate i is ``v' W_i v + alpha * cost_i`` with v the unit top
    eigenvector of W(p) - J. At a simple top eigenvalue this is the exact
    gradient; under multiplicity any top eigenvector still gives a valid
    subgradient. ``alpha`` and ``costs`` follow the rules ``optimize`` applies to them.
    """
    p = per_candidate(p, candidates, "p")
    costs_arr = _checked_costs(costs, candidates, alpha)
    members, sizes = membership(candidates, n)
    _, v = _deflated_top(_mixture(p, members, sizes), n)
    return _spectral_subgradient(v, members, sizes) + alpha * costs_arr


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based thresholding: find the largest k for which shifting the top
    k entries by a common offset lands on the simplex, then clip. Raises
    NumericalError when the entries are so large that float precision loses
    the simplex (k = 1 always qualifies in exact arithmetic).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("cannot project a vector with non-finite entries")
    u = np.sort(v)[::-1]
    # A sum or difference past the float range reads as +-inf: clipped to 0, or failing the sum.
    with np.errstate(over="ignore"):
        shifted = np.cumsum(u) - 1.0
        ks = np.arange(1, v.size + 1)
        qualifying = (u - shifted / ks > 0).nonzero()[0]
        if qualifying.size:
            rho = qualifying[-1]
            projected = np.maximum(v - shifted[rho] / (rho + 1.0), 0.0)
            if abs(projected.sum() - 1.0) <= _SIMPLEX_TOL:
                return projected
    raise NumericalError(f"simplex projection lost to float precision at |v| {np.abs(v).max():g}")


def optimize(
    candidates: Sequence[ClusterCandidate],
    costs: Sequence[float],
    n: int,
    *,
    alpha: float = 0.0,
    epsilon: float = 1e-2,
) -> ActivationDistribution:
    """Minimize ``xi(p) + alpha * |c(p)|_1`` over the candidate simplex.

    ``alpha``, the energy weight, must be a finite number >= 0 and ``epsilon``, the connectivity
    margin, a number in [MIN_EPSILON, 1); a bool is not a number. Either one broken raises
    ValueError naming it (epsilon first). Then the costs must be finite and nonnegative, and alpha
    times the largest of them finite (else NumericalError), as in ``objective_subgradient``; last,
    the pool must pass ``candidates.check_members``, as everywhere a pool is read.

    Only distributions that keep the whole network mixing count as
    solutions: the returned iterate must satisfy ``xi <= 1 - epsilon``.
    Large ``alpha`` would otherwise drive the mixture onto a single cheap
    cluster whose xi is 1 (the rest of the network never moves), so the
    search alternates in the classic switching-subgradient fashion: at an
    iterate violating the margin it steps along the spectral subgradient
    alone (restoring connectivity), otherwise along the full objective
    subgradient. The best margin-satisfying point seen anywhere -- an
    iterate or the all-node vertex, both evaluated alike -- is kept, zeroed
    at or below 1e-6, renormalized and re-evaluated; all reported figures
    refer to that final vector.

    Deterministic: uniform start, fixed phase schedule. The schedule ends
    early once the dual lower bound (see the module docstring) certifies the
    best point to within 1e-9 relative; the result reports that bound, the
    gap to it and the number of steps taken. If zeroing the support would
    push the best point's xi over the margin, the unfloored point is
    returned.

    When no iterate meets the margin the result carries ``feasible=False``
    and describes the smallest-xi iterate instead.
    """
    if not is_finite_number(epsilon) or not MIN_EPSILON <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [{MIN_EPSILON}, 1), got {epsilon}")
    costs_arr = _checked_costs(costs, candidates, alpha)
    members, sizes = membership(candidates, n)
    c_count = len(candidates)
    weighted_costs = alpha * costs_arr
    margin = 1.0 - epsilon

    # A point's record is (key, p, xi, cost, g, j), keyed (0, obj) once p meets the margin and
    # (1, xi) before, so any margin-meeting point wins and the best key's flag + value never rises.
    # g_i = v' W_i v and j = v' J v, for v the unit top eigenvector of W(p) - J. Every
    # evaluation after the first warm-starts its eigensolve at the previous one's v.
    previous_v = None

    def evaluate(
        p: np.ndarray,
    ) -> tuple[tuple[int, float], np.ndarray, float, float, np.ndarray, float]:
        nonlocal previous_v
        xi_val, v = _deflated_top(_mixture(p, members, sizes), n, previous_v)
        previous_v = v
        cost_val = float(costs_arr @ p)
        obj = xi_val + alpha * cost_val
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite: {obj}")
        key = (0, obj) if xi_val <= margin else (1, xi_val)
        g = _spectral_subgradient(v, members, sizes)
        return key, p, xi_val, cost_val, g, float(v.sum()) ** 2 / n

    point = best = evaluate(np.full(c_count, 1.0 / c_count))
    # A lone cluster with s < n has xi = 1, so it can neither meet the margin nor
    # beat the start; only all-node ones (xi = 0) are evaluated.
    for i in np.flatnonzero(sizes == n):
        best = min(best, evaluate(np.eye(1, c_count, i)[0]), key=lambda record: record[0])

    # Sums of <v v', W_i> and <v v', J> over the evaluations since the last window check (the
    # start point seeds the first), with their count; their mean is the dual Z of the module
    # docstring (the all-node vertex's v is arbitrary, as W - J = 0 there, so it is left out).
    # The bound starts at 0: xi >= 0 and costs >= 0.
    z_w, z_j, seen = point[4].copy(), point[5], 1
    lower, iterations = 0.0, 0
    per_phase = _MAX_ITERS // len(_STEP_PHASES)
    for scale in _STEP_PHASES:
        for t in range(per_phase + 1):
            if t > 0:  # t = 0 only checks the phase's starting best point
                _, p, xi_val, _, g, _ = point
                if xi_val <= margin:
                    g = g + weighted_costs
                point = evaluate(project_simplex(p - (scale / np.sqrt(t)) * g))
                if point[0] < best[0]:
                    best = point
                iterations += 1
                z_w, z_j, seen = z_w + point[4], z_j + point[5], seen + 1
            if t % _STALL_WINDOW == 0:
                if seen:
                    lower = max(lower, float(np.min(z_w / seen + weighted_costs)) - z_j / seen)
                    z_w, z_j, seen = 0.0, 0.0, 0
                infeasible, value = best[0]
                certified = not infeasible and value - lower <= _GAP_TOL * max(1.0, abs(value))
                if certified or (t > 0 and anchor - (infeasible + value) < _STALL_TOL):
                    break
                anchor = infeasible + value
        if certified:
            break
        point = best  # the next phase restarts its step schedule from the best point

    # Zero probabilities at or below the floor and renormalize (all-zero: keep
    # the largest). This is the only place the support is decided, and it may not
    # break the margin: if it does, the unfloored best point is returned.
    best_p = best[1]
    final_p = np.where(best_p <= _SUPPORT_FLOOR, 0.0, best_p)
    if final_p.sum() <= 0.0:
        final_p[np.argmax(best_p)] = 1.0
    final_p /= final_p.sum()
    final = evaluate(final_p)
    if final[0][0] > best[0][0]:
        final = best
    key, p, xi_val, cost_val, _, _ = final
    objective = xi_val + alpha * cost_val
    feasible = key[0] == 0
    return ActivationDistribution(
        p=p,
        xi=xi_val,
        expected_cost_l1=cost_val,
        objective=objective,
        feasible=feasible,
        lower_bound=lower,
        gap=objective - lower if feasible else None,
        iterations=iterations,
    )
