"""Cluster candidates: enumeration, the membership matrix, pricing, and dominance pruning.

A candidate is a head node plus the cluster it would run: the head and its nearest neighbors by
squared distance. Activating a candidate replaces the members' states by their in-cluster mean,
which as a matrix is a symmetric averaging projector, and costs the two-phase radio energy that
``candidate_costs`` prices: members fan in to the head, then the head broadcasts to its farthest
member. Candidates with identical member sets produce the identical projector, so only the
cheapest head per member set needs to survive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import check_sizes
from .topology import Topology

__all__ = [
    "ClusterCandidate",
    "EnergyParams",
    "candidate_cost_l1",
    "enumerate_candidates",
    "prune_dominated",
]

_PRICE_BLOCK = 1024


@dataclass(frozen=True)
class ClusterCandidate:
    """One candidate cluster: designated head plus its member set.

    Attributes:
        head: node index of the cluster head.
        members: sorted tuple of distinct node indices, head included.
    """

    head: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(f"cluster needs at least 2 members, got {self.members}")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError(f"members must be sorted and distinct: {self.members}")
        if self.head not in self.members:
            raise ValueError(f"head {self.head} is not a member of {self.members}")

    @property
    def size(self) -> int:
        return len(self.members)


def enumerate_candidates(
    topology: Topology, size_min: int, size_max: int | None
) -> list[ClusterCandidate]:
    """Emit one candidate per (head, size) pair over the given size range.

    For head h and size s the members are h plus its s-1 nearest neighbors
    by squared distance, ties broken toward the lower node index. With the
    full size range {2, ..., n} this yields n*(n-1) candidates.

    Args:
        topology: node layout.
        size_min: smallest cluster size, >= 2.
        size_max: largest cluster size, <= n; None means n.

    Returns:
        Candidates ordered by (head, size). Identical member sets reached
        from different heads are all kept; prune_dominated resolves them.
    """
    n = topology.n
    size_max = check_sizes(n, size_min, size_max)
    out: list[ClusterCandidate] = []
    for head in range(n):
        # Stable neighbor order: by squared distance, then node index.
        order = [j for j in sorted(range(n), key=lambda j: (topology.d_sq[head, j], j)) if j != head]
        for size in range(size_min, size_max + 1):
            members = tuple(sorted([head] + order[: size - 1]))
            out.append(ClusterCandidate(head=head, members=members))
    return out


def membership(candidates: Sequence[ClusterCandidate], n: int) -> np.ndarray:
    """0/1 matrix of shape (C, n) whose row i marks candidate i's members, all in [0, n)."""
    rows = np.repeat(np.arange(len(candidates)), [cand.size for cand in candidates])
    cols = np.array([j for cand in candidates for j in cand.members], dtype=int)
    if cols.size and not 0 <= cols.min() <= cols.max() < n:
        raise ValueError(f"a candidate has a member outside [0, {n})")
    m = np.zeros((len(candidates), n))
    m[rows, cols] = 1.0
    return m


def per_candidate(values, candidates: Sequence[ClusterCandidate], name: str) -> np.ndarray:
    """``values`` as a float vector with one entry per candidate, else ValueError."""
    array = np.asarray(values, dtype=float)
    if array.shape != (len(candidates),):
        raise ValueError(f"{name}: shape {array.shape}, expected ({len(candidates)},)")
    return array


def per_candidate_costs(values, candidates: Sequence[ClusterCandidate], name: str) -> np.ndarray:
    """``per_candidate``, with every entry finite and nonnegative, else ValueError."""
    costs = per_candidate(values, candidates, name)
    if not np.all((0 <= costs) & (costs < np.inf)):  # NaN fails both
        raise ValueError(f"{name} must be finite and nonnegative")
    return costs


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
            if not 0 <= value < np.inf:  # NaN too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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


def prune_dominated(
    candidates: Sequence[ClusterCandidate], costs: Sequence[float]
) -> list[ClusterCandidate]:
    """Keep one cheapest head per member set; drop the costlier twins.

    Candidates sharing a member set have the same averaging matrix, so the
    one with minimal total cost (ties toward the lower head index) makes
    every other redundant.

    Args:
        candidates: enumerated candidates.
        costs: per-candidate total energy cost, aligned with candidates.

    Returns:
        The kept subset, in the original enumeration order.
    """
    costs = per_candidate(costs, candidates, "costs")
    best_by_members: dict[tuple[int, ...], int] = {}
    for i, cand in enumerate(candidates):
        cur = best_by_members.setdefault(cand.members, i)
        if (costs[i], cand.head) < (costs[cur], candidates[cur].head):
            best_by_members[cand.members] = i
    kept = sorted(best_by_members.values())
    return [candidates[i] for i in kept]
