"""Transmit-energy cost model for cluster activations.

One activation has two phases: members transmit simultaneously to the head
(cost per member grows with squared distance to the head), then the head
broadcasts the result back, which must reach the farthest member. With the
default parameters the energy of a single transmission is numerically the
squared distance, so all energies are in abstract units. ``candidate_costs`` is
the one pricing and the one statement of the transmission formula; tests check
it against the per-node scalar forms in tests/reference.py, which keeps its own
copy of that formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .candidates import ClusterCandidate, membership
from .topology import Topology

__all__ = ["EnergyParams", "candidate_cost_l1"]

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


def candidate_cost_l1(
    candidate: ClusterCandidate, topology: Topology, params: EnergyParams
) -> float:
    """Total energy of one activation: the one-row case of ``candidate_costs``.

    It stays only because perfbench/micro.py imports it; ROADMAP items 1 and 7 retire it.
    """
    return float(candidate_costs([candidate], topology, params)[0])


def candidate_costs(
    candidates: Sequence[ClusterCandidate], topology: Topology, params: EnergyParams
) -> np.ndarray:
    """Each candidate's total two-phase cost, shape (C,).

    Each non-head member pays one transmission over its squared distance d_sq to the head
    (fan-in), and the head pays one to its farthest member (broadcast). One transmission costs
    ``k*e_elec + eps_amp*k*d_sq + k*e_elec``: transmit circuitry, amplifier and receive circuitry,
    just ``d_sq`` with default params. Priced ``_PRICE_BLOCK`` candidates at a time, so the (C, n)
    per-node cost matrix never exists whole.
    """
    k, e_elec, eps_amp = params.k_bits, params.e_elec, params.eps_amp
    totals = [np.zeros(0)]
    for i in range(0, len(candidates), _PRICE_BLOCK):
        block = candidates[i : i + _PRICE_BLOCK]
        mask = membership(block, topology.n)  # checks every member, heads included
        heads = np.array([cand.head for cand in block], dtype=int)
        rows = (k * e_elec + eps_amp * k * topology.d_sq[heads] + k * e_elec) * mask
        # Energy grows with distance, so the largest member entry is the broadcast.
        rows[np.arange(heads.size), heads] = rows.max(axis=1)
        totals.append(rows.sum(axis=1))
    return np.concatenate(totals)
