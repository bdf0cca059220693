"""Reference oracles that the tests compare the package against.

The package ships only the pipeline. These are the plain per-candidate and per-run forms of what
it computes in batch: one transmission's energy, one candidate's per-node costs and total, one
candidate's dense averaging matrix, their p-weighted sum W(p), one run simulated slot by slot,
and the geometric error bound.
``candidate_costs`` is checked against ``candidate_cost_l1``, ``xi`` against the spectrum of
``dense_mixing_matrix``, and ``monte_carlo`` against ``run_trial``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from clustergossip import (
    AveragedTrace,
    ClusterCandidate,
    EnergyParams,
    SimulationScenario,
    Topology,
    consensus_step,
    relative_error,
    sample_cluster,
)
from clustergossip.candidates import membership


def transmission_energy(params: EnergyParams, d_sq: float) -> float:
    """Energy of one point-to-point transmission over squared distance d_sq.

    Transmit circuitry, amplifier and receive circuitry: ``k*e_elec + eps_amp*k*d_sq + k*e_elec``,
    which is just ``d_sq`` with default params.
    """
    if not d_sq >= 0:  # NaN too
        raise ValueError(f"squared distances must be >= 0, got {d_sq}")
    k = params.k_bits
    return k * params.e_elec + params.eps_amp * k * d_sq + k * params.e_elec


def cost_fc(
    candidate: ClusterCandidate, topology: Topology, params: EnergyParams
) -> np.ndarray:
    """Per-node cost of the members-to-head phase.

    Each non-head member pays one transmission over its squared distance to
    the head; the head receives and pays nothing here; non-members are zero.
    """
    c = np.zeros(topology.n)
    for m in candidate.members:
        if m != candidate.head:
            c[m] = transmission_energy(params, topology.d_sq[candidate.head, m])
    return c


def cost_bc(
    candidate: ClusterCandidate, topology: Topology, params: EnergyParams
) -> np.ndarray:
    """Per-node cost of the head's broadcast phase.

    A single nonzero entry at the head, sized by the maximum squared
    distance from the head to any member.
    """
    c = np.zeros(topology.n)
    idx = np.fromiter(candidate.members, dtype=int)
    d_max = float(topology.d_sq[candidate.head, idx].max())
    c[candidate.head] = transmission_energy(params, d_max)
    return c


def candidate_cost_l1(
    candidate: ClusterCandidate, topology: Topology, params: EnergyParams
) -> float:
    """Total energy of one activation: both phases summed over all nodes."""
    return float((cost_fc(candidate, topology, params) + cost_bc(candidate, topology, params)).sum())


def build_weight_matrix(candidate: ClusterCandidate, n: int) -> np.ndarray:
    """Averaging matrix of one candidate: members mix to their mean, others hold.

    Entry (j, k) is 1/size for j, k both members, 1 on the diagonal for
    non-members, and 0 otherwise. The result is symmetric, doubly
    stochastic, and idempotent.
    """
    membership([candidate], n)  # only for its member-range check
    w = np.eye(n)
    idx = np.fromiter(candidate.members, dtype=int)
    w[np.ix_(idx, idx)] = 1.0 / candidate.size
    return w


def dense_mixing_matrix(p: np.ndarray, candidates: Sequence[ClusterCandidate], n: int) -> np.ndarray:
    """W(p) = sum_i p_i W_i, summed from each candidate's dense averaging matrix."""
    return sum(p_i * build_weight_matrix(cand, n) for p_i, cand in zip(p, candidates))


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class SimulationTrace:
    """One trial's history.

    errors[t] and energies[t] are the relative error and cumulative energy
    after slot t (index 0 is the initial state, zero energy);
    activations[t-1] is the candidate index drawn in slot t. terminated_at
    is the first slot index with error below threshold, or None if the
    iteration cap was hit first.
    """

    errors: np.ndarray
    energies: np.ndarray
    activations: np.ndarray
    terminated_at: int | None


def run_trial(
    scenario: SimulationScenario, initial: np.ndarray, rng: np.random.Generator
) -> SimulationTrace:
    """Run one trial from the n readings ``initial`` until the error threshold or the iteration cap.

    Slot energy is the activated candidate's total two-phase cost, taken from
    ``scenario.costs_l1``.
    """
    if np.shape(initial) != (scenario.n,):
        raise ValueError(f"initial: shape {np.shape(initial)}, expected ({scenario.n},)")
    y = initial
    errors: list[float] = []
    energies = [0.0]
    activations: list[int] = []
    for t in range(scenario.max_iters + 1):
        if t:  # slot 0 is the initial state: nothing is drawn, averaged or charged
            idx = sample_cluster(scenario.p, rng)
            y = consensus_step(y, scenario.candidates[idx])
            activations.append(idx)
            energies.append(energies[-1] + scenario.costs_l1[idx])
        errors.append(relative_error(y, initial))
        if errors[-1] < scenario.threshold:
            break

    return SimulationTrace(
        errors=np.array(errors),
        energies=np.array(energies),
        activations=np.array(activations, dtype=int),
        terminated_at=t if errors[-1] < scenario.threshold else None,
    )


def mse_bound_check(
    averaged_trace: AveragedTrace, xi_value: float, initial_error: float
) -> bool:
    """Check the geometric error bound against an averaged trace.

    True iff the mean error at every recorded slot t stays below
    ``xi_value**t * initial_error * 1.1``. The bound holds for the expected error; the 10%
    allows for the sampling error of a mean over finitely many runs. initial_error must be in
    the same units as the trace (relative error).
    """
    if not 0.0 <= xi_value < 1.0:
        raise ValueError(f"xi_value must lie in [0, 1), got {xi_value}")
    bounds = initial_error * 1.1 * xi_value ** np.arange(averaged_trace.mean_errors.size)
    return bool(np.all(averaged_trace.mean_errors <= bounds))
