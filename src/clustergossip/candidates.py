"""Cluster candidate enumeration, averaging matrices, and dominance pruning.

A candidate is a head node plus the cluster it would run: the head and its
nearest neighbors by squared distance. Activating a candidate replaces the
members' states by their in-cluster mean, which as a matrix is a symmetric
averaging projector. Candidates with identical member sets produce the
identical projector, so only the cheapest head per member set needs to
survive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, show
from .topology import Topology

__all__ = [
    "ClusterCandidate",
    "enumerate_candidates",
    "build_weight_matrix",
    "prune_dominated",
]


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


def check_sizes(n: int, size_min: int, size_max: int | None) -> int:
    """Reject sizes below 2, above n, or an empty range; return the largest size (n if None)."""
    if size_min < 2:
        raise ConfigurationError(f"cluster_size_min must be >= 2, got {show(size_min)}")
    limit = f"cluster_size_max {show(size_max)}"
    if size_max is None:
        size_max, limit = n, f"the number of nodes ({show(n)})"
    elif size_max > n:
        raise ConfigurationError(
            f"cluster_size_max must be <= number of nodes ({show(n)}), got {show(size_max)}"
        )
    if size_min > size_max:
        raise ConfigurationError(f"cluster_size_min {show(size_min)} exceeds {limit}")
    return size_max


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
