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
the same budget. Every single-candidate vertex is also evaluated, in closed
form: a lone cluster with s < n members leaves the other nodes fixed
(xi = 1), and the all-node cluster has W = J (xi = 0), so it is found exactly.
W(p) is built from the (C, n) 0/1 membership matrix M and the cluster sizes
s as ``(sum p) I - diag(M'p) + M' diag(p/s) M``, also off the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .candidates import ClusterCandidate, membership, per_candidate
from .errors import NumericalError

__all__ = [
    "OptimizerOptions",
    "ActivationDistribution",
    "mixing_matrix",
    "xi",
    "symmetric_top_eigenpair",
    "objective_subgradient",
    "project_simplex",
    "optimize",
]

_ASYMMETRY_TOL = 1e-9
_RESIDUAL_TOL = 1e-9
# Fixed schedule: step multipliers over an even split of the budget, the stall window
# and tolerance that end a phase early, and the floor at or below which p_i is zeroed.
_STEP_PHASES = (1.0, 0.1, 0.01)
_STALL_WINDOW = 500
_STALL_TOL = 1e-6
_SUPPORT_FLOOR = 1e-6


@dataclass(frozen=True)
class OptimizerOptions:
    """Solver knobs.

    Attributes:
        alpha: weight of the energy regularizer, >= 0.
        epsilon: connectivity margin; the result is feasible when
            xi <= 1 - epsilon.
        max_iters: total projected-subgradient iteration budget.
    """

    alpha: float = 0.0
    epsilon: float = 1e-2
    max_iters: int = 5000

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class ActivationDistribution:
    """Optimization outcome.

    When feasible is False the fields describe the iterate with the
    smallest xi found, which documents how far from connectivity the
    candidate set is.
    """

    p: np.ndarray
    xi: float
    expected_cost_l1: float
    objective: float
    feasible: bool


def _mixture(p: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """W(p) from the membership factors; see the module docstring."""
    w = (members.T * (p / sizes)) @ members
    w[np.diag_indices_from(w)] += p.sum() - p @ members
    return w


def _spectral_subgradient(v: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``v' W_i v`` for every candidate i, as ``|v|^2 - (M v^2)_i + (M v)_i^2 / s_i``."""
    mv = members @ v
    return v @ v - members @ (v * v) + mv * mv / sizes


def mixing_matrix(
    p: np.ndarray, candidates: Sequence[ClusterCandidate], n: int
) -> np.ndarray:
    """Expected averaging matrix W(p): the p-weighted candidate mixture."""
    p = per_candidate(p, candidates, "p")
    members = membership(candidates, n)
    return _mixture(p, members, members.sum(axis=1))


def symmetric_top_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a symmetric matrix.

    Full dense decomposition. Raises ValueError when the input is asymmetric
    beyond 1e-9, NumericalError on a residual above max(1e-9, 1e-12 * |top|).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a - a.T).max() > _ASYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    top = float(eigenvalues[-1])
    vec = eigenvectors[:, -1]
    residual = float(np.linalg.norm(a @ vec - top * vec))
    if residual > max(_RESIDUAL_TOL, 1e-12 * max(1.0, abs(top))):
        raise NumericalError(f"eigenpair residual {residual} exceeds tolerance {_RESIDUAL_TOL}")
    return top, vec


def xi(p: np.ndarray, candidates: Sequence[ClusterCandidate], n: int) -> float:
    """Second-largest eigenvalue of W(p), clipped to [0, 1].

    Computed as the largest eigenvalue of W(p) - J, which deflates the
    always-present top eigenpair of W(p).
    """
    w = mixing_matrix(p, candidates, n)
    top, _ = symmetric_top_eigenpair(w - np.full((n, n), 1.0 / n))
    return min(max(top, 0.0), 1.0)


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
    subgradient.
    """
    p = per_candidate(p, candidates, "p")
    costs_arr = per_candidate(costs, candidates, "costs")
    members = membership(candidates, n)
    sizes = members.sum(axis=1)
    _, v = symmetric_top_eigenpair(_mixture(p, members, sizes) - 1.0 / n)
    return _spectral_subgradient(v, members, sizes) + alpha * costs_arr


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based thresholding: find the largest k for which shifting the top
    k entries by a common offset lands on the simplex, then clip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a vector with non-finite entries")
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u - shifted / ks > 0)[0][-1]
    tau = shifted[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def optimize(
    candidates: Sequence[ClusterCandidate],
    costs: Sequence[float],
    n: int,
    options: OptimizerOptions,
) -> ActivationDistribution:
    """Minimize ``xi(p) + alpha * |c(p)|_1`` over the candidate simplex.

    Only distributions that keep the whole network mixing count as
    solutions: the returned iterate must satisfy ``xi <= 1 - epsilon``.
    Large ``alpha`` would otherwise drive the mixture onto a single cheap
    cluster whose xi is 1 (the rest of the network never moves), so the
    search alternates in the classic switching-subgradient fashion: at an
    iterate violating the margin it steps along the spectral subgradient
    alone (restoring connectivity), otherwise along the full objective
    subgradient. The best margin-satisfying iterate seen anywhere --
    including all single-candidate vertices, which are evaluated exactly
    -- is kept, zeroed at or below 1e-6, renormalized and re-evaluated;
    all reported figures refer to that final vector.

    Deterministic: uniform start, fixed phase schedule.

    When no iterate meets the margin the result carries ``feasible=False``
    and describes the smallest-xi iterate instead.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    costs_arr = per_candidate(costs, candidates, "costs")
    if not np.all(np.isfinite(costs_arr)) or np.any(costs_arr < 0):
        raise ValueError("costs must be finite and nonnegative")

    c_count = len(candidates)
    members = membership(candidates, n)
    sizes = members.sum(axis=1)
    alpha = options.alpha

    def evaluate(p: np.ndarray) -> tuple[float, float, float, np.ndarray]:
        eigenvalues, eigenvectors = np.linalg.eigh(_mixture(p, members, sizes) - 1.0 / n)
        xi_val = min(max(float(eigenvalues[-1]), 0.0), 1.0)
        cost_val = float(costs_arr @ p)
        obj = xi_val + alpha * cost_val
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite: {obj}")
        return obj, xi_val, cost_val, eigenvectors[:, -1]

    margin = 1.0 - options.epsilon
    p = np.full(c_count, 1.0 / c_count)
    obj, xi_val, _, v = evaluate(p)
    # The best point so far, keyed (0, obj) once it meets the margin and
    # (1, xi) before: any margin-meeting point beats every violating one.
    # The key's sum is the stall measure, which improves monotonically.
    best_key, best_p = (2, 0.0), p

    def note(obj: float, xi_val: float, p: np.ndarray) -> None:
        nonlocal best_key, best_p
        key = (0, obj) if xi_val <= margin else (1, xi_val)
        if key < best_key:
            best_key, best_p = key, p.copy()

    note(obj, xi_val, p)

    # Vertex sweep in closed form: a lone cluster with s < n has xi = 1, so it can
    # neither meet the margin nor beat the start; only all-node ones (xi = 0) count.
    for i in np.flatnonzero(sizes == n):
        vertex = np.zeros(c_count)
        vertex[i] = 1.0
        note(alpha * costs_arr[i], 0.0, vertex)

    per_phase = max(1, options.max_iters // len(_STEP_PHASES))
    for scale in _STEP_PHASES:
        anchor = sum(best_key)
        for t in range(1, per_phase + 1):
            spectral = _spectral_subgradient(v, members, sizes)
            if xi_val > margin:
                g = spectral
            else:
                g = spectral + alpha * costs_arr
            p = project_simplex(p - (scale / np.sqrt(t)) * g)
            obj, xi_val, _, v = evaluate(p)
            note(obj, xi_val, p)
            if t % _STALL_WINDOW == 0:
                if anchor - sum(best_key) < _STALL_TOL:
                    break
                anchor = sum(best_key)
        # Next phase restarts its step schedule from the best point so far.
        p = best_p.copy()
        obj, xi_val, _, v = evaluate(p)

    # Zero probabilities at or below the floor and renormalize (all-zero: keep
    # the largest). This is the only place the support is decided.
    final_p = np.where(best_p <= _SUPPORT_FLOOR, 0.0, best_p)
    if final_p.sum() <= 0.0:
        final_p[np.argmax(best_p)] = 1.0
    final_p /= final_p.sum()
    obj, xi_val, cost_val, _ = evaluate(final_p)
    return ActivationDistribution(
        p=final_p,
        xi=xi_val,
        expected_cost_l1=cost_val,
        objective=obj,
        feasible=xi_val <= margin,
    )
