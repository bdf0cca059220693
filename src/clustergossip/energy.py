"""Transmit-energy cost model for cluster activations.

One activation has two phases: members transmit simultaneously to the head
(cost per member grows with squared distance to the head), then the head
broadcasts the result back, which must reach the farthest member. With the
default parameters the energy of a single transmission is numerically the
squared distance, so all energies are in abstract units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .candidates import ClusterCandidate, membership
from .topology import Topology

__all__ = [
    "EnergyParams",
    "transmission_energy",
    "cost_fc",
    "cost_bc",
    "candidate_cost_l1",
]

_PRICE_BLOCK = 1024


@dataclass(frozen=True)
class EnergyParams:
    """Radio energy parameters.

    Attributes:
        eps_amp: amplifier energy per bit per squared length unit.
        e_elec: circuitry energy per bit, spent on both transmit and
            receive ends. Defaults to 0, which drops the steady term and
            leaves only amplifier energy.
        k_bits: message length in bits.
    """

    eps_amp: float = 1.0
    e_elec: float = 0.0
    k_bits: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eps_amp", "e_elec", "k_bits"):
            value = getattr(self, name)
            if not (value >= 0):
                raise ValueError(f"{name} must be >= 0, got {value}")


def transmission_energy(
    params: EnergyParams, d_sq: float | np.ndarray
) -> float | np.ndarray:
    """Energy of one point-to-point transmission over squared distance d_sq.

    Sum of transmit circuitry, amplifier, and receive circuitry terms:
    ``k*e_elec + eps_amp*k*d_sq + k*e_elec``, entry by entry for an array.
    With default params this is just ``d_sq``.
    """
    if not np.all(np.asarray(d_sq) >= 0):
        raise ValueError(f"squared distances must be >= 0, got minimum {np.min(d_sq)}")
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


def candidate_costs(
    candidates: Sequence[ClusterCandidate], topology: Topology, params: EnergyParams
) -> np.ndarray:
    """Each candidate's total two-phase cost, shape (C,): its ``candidate_cost_l1``, to rounding.

    Priced ``_PRICE_BLOCK`` candidates at a time, so the (C, n) per-node cost matrix never
    exists whole.
    """
    totals = [np.zeros(0)]
    for i in range(0, len(candidates), _PRICE_BLOCK):
        block = candidates[i : i + _PRICE_BLOCK]
        mask = membership(block, topology.n)  # checks every member, heads included
        heads = np.array([cand.head for cand in block], dtype=int)
        rows = transmission_energy(params, topology.d_sq[heads]) * mask
        # Energy grows with distance, so the largest member entry is the broadcast.
        rows[np.arange(heads.size), heads] = rows.max(axis=1)
        totals.append(rows.sum(axis=1))
    return np.concatenate(totals)
