"""Node placement and cluster candidates: enumeration, membership matrix, pricing and pruning.

A topology keeps node positions and the pairwise squared distances ``d_sq`` that enumeration and
pricing read; it computes ``d_sq`` once from its positions, in its constructor, and no other code
computes or sets it. A candidate is a head node plus the cluster it would run: the head and its
nearest neighbors by squared distance. Activating a candidate replaces the members' states by
their in-cluster mean, which as a matrix is a symmetric averaging projector, and costs the
two-phase radio energy that ``candidate_costs`` prices: members fan in to the head, then the head
broadcasts to its farthest member. Candidates with identical member sets produce the identical
projector, so only the cheapest head per member set needs to survive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError, check_count, check_sizes, is_finite_number, read_json_object,
)

__all__ = [
    "ClusterCandidate",
    "EnergyParams",
    "Topology",
    "candidate_cost_l1",
    "enumerate_candidates",
    "generate_topology",
    "load_topology",
    "prune_dominated",
]

_PRICE_BLOCK = 1024
# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _M64 = 0xCA01F9DD, 0x4973F715, 2**32 - 1, 2**64 - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# A _Streams call computes a row's next states at most _JUMP at a time: the first _NEAR straight
# from the row's state, then states m + 1..2m from states 1..m for each m of _DOUBLINGS.
_DOUBLINGS = (8, 16, 32)
_NEAR, _JUMP = _DOUBLINGS[0], 2 * _DOUBLINGS[-1]


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class Topology:
    """Immutable node layout and the squared-distance matrix derived from it.

    Attributes:
        positions: (n, 2) finite coordinates, stored as a read-only float array.
        d_sq: (n, n) pairwise squared distances, computed from ``positions``.
    """

    positions: np.ndarray
    d_sq: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # numpy converts "0" and true to floats as well, so each entry, as a Python scalar, must
        # be a number; a ragged row is a list entry.
        entries = np.array(self.positions, dtype=object)
        if not all(map(is_finite_number, entries.flat)):
            raise ConfigurationError("positions must all be finite numbers")
        pos = entries.astype(float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ConfigurationError(
                f"positions must have shape (n, 2) with n >= 2, got {pos.shape}"
            )
        diff = pos[:, None, :] - pos[None, :, :]
        d_sq = np.einsum("ijk,ijk->ij", diff, diff)  # entry (i, j) is ||x_i - x_j||^2
        for name, array in (("positions", pos), ("d_sq", d_sq)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def _jump(m: int) -> tuple[int, int]:
    """M**m and C_m = M**(m-1) + ... + M + 1 mod 2**128, for M = _PCG_MULT: m steps of
    s -> M s + inc take a state s to M**m s + C_m inc."""
    return pow(_PCG_MULT, m, 2**128), sum(pow(_PCG_MULT, e, 2**128) for e in range(m)) % 2**128


def _split(a: int) -> tuple[int, int, int, int]:
    """An int below 2**128 as ``_mul_add`` takes a multiplier: its high and low 64 bits, and the
    low half's low and high 32 bits."""
    return a >> 64, a & _M64, a & _M32, a >> 32 & _M32


def _columns(values: Sequence[int]) -> tuple[np.ndarray, ...]:
    """``_split`` of each value, as four (len(values), 1) uint64 columns."""
    return tuple(np.array(part, np.uint64)[:, None] for part in zip(*map(_split, values)))


_NEAR_MULTS = _columns([_jump(m)[0] for m in range(1, _NEAR + 1)])
_DOUBLING_MULTS = [_split(_jump(m)[0]) for m in _DOUBLINGS]
# C_m for the near states and the doublings: _Streams multiplies them by each row's inc.
_SUMS = _columns([_jump(m)[1] for m in (*range(1, _NEAR + 1), *_DOUBLINGS)])


def _mul_add(a: tuple, b: tuple, c: tuple, out: tuple) -> None:
    """out = a * b + c mod 2**128, in place.

    ``a`` is (high 64 bits, low 64 bits, the low half's low and high 32 bits), as ints or uint64
    arrays; b, c and out are (hi, lo) pairs of uint64 arrays; all broadcast together.
    """
    (a_hi, a_lo, a0, a1), (b_hi, b_lo), (c_hi, c_lo), (hi, lo) = a, b, c, out
    b0, b1 = b_lo & _M32, b_lo >> 32
    mid = b0 * a1 + (b0 * a0 >> 32)  # the high half of a_lo * b_lo, 32 bits at a time
    low = (mid & _M32) + b1 * a0
    np.multiply(b1, a1, out=hi)
    hi += (mid >> 32) + (low >> 32) + b_lo * a_hi + b_hi * a_lo + c_hi
    np.multiply(b_lo, a_lo, out=lo)
    lo += c_lo
    hi += lo < c_lo  # the carry


class _Streams:
    """numpy's ``default_rng(seed)`` streams, one row per seed, drawn many rows at once.

    Seeding is ``SeedSequence(seed).generate_state(4, uint64)`` in uint32 over every seed, then
    PCG64's ``set_seed``; each state is a 128-bit (hi, lo) pair of uint64 arrays. A draw steps a
    row's state, s -> M s + inc, and turns its XSL-RR output x into the double
    ``(x >> 11) * 2**-53``. A call computes the next states of its rows by jumping ahead, at most
    ``_JUMP`` at a time, so memory stays O(rows * _JUMP). Tests pin every stream to numpy's.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        counts = np.array([max(1, -(-seed.bit_length() // 32)) for seed in seeds])
        words = max(4, int(counts.max()))
        data = b"".join(seed.to_bytes(4 * words, "little") for seed in seeds)
        entropy = np.frombuffer(data, "<u4").reshape(len(seeds), words).T.astype(np.uint32)
        const = _INIT_A

        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal const
            value = value ^ const
            const = const * _MULT_A & _M32
            value = value * const
            return value ^ value >> 16

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            result = x * _MIX_L - y * _MIX_R
            return result ^ result >> 16

        # SeedSequence's mix_entropy: a seed of fewer than 4 words hashes as if padded with 0s.
        pool = [hashmix(word) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(4, words):
            for dst in range(4):
                mixed = mix(pool[dst], hashmix(entropy[src]))
                pool[dst] = np.where(counts > src, mixed, pool[dst])
        const, state = _INIT_B, []
        for i in range(8):  # generate_state(4, uint64): 8 words, little end first
            value = pool[i % 4] ^ const
            const = const * _MULT_B & _M32
            value = value * const
            state.append((value ^ value >> 16).astype(np.uint64))
        seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        inc = (inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1)
        # set_seed: the state starts at 0, steps to inc, adds the seed (1 * inc + seed) and steps.
        start, self.state = np.empty((2, 2, len(seeds)), np.uint64)
        _mul_add(_split(1), inc, (seed_hi, seed_lo), start)
        _mul_add(_split(_PCG_MULT), start, inc, self.state)
        self.steps = np.empty((2, len(_SUMS[0]), len(seeds)), np.uint64)  # C_m inc, row by row
        _mul_add(_SUMS, inc, np.zeros((2, 1), np.uint64), self.steps)

    def random(self, k: int, rows=slice(None)) -> np.ndarray:
        """The next k doubles in [0, 1) of each stream in ``rows``, shape (rows, k)."""
        state, steps = self.state[:, rows], self.steps[:, :, rows]
        out = np.empty((state.shape[1], k))  # C order: monte_carlo's row sums depend on it
        for done in range(0, k, _JUMP):
            count = min(_JUMP, k - done)
            hi, lo = np.empty((2, count, state.shape[1]), np.uint64)
            near = min(count, _NEAR)
            mults = tuple(a[:near] for a in _NEAR_MULTS)
            _mul_add(mults, state[:, None], steps[:, :near], (hi[:near], lo[:near]))
            for i, m in enumerate(_DOUBLINGS):
                width = min(m, count - m)
                if width > 0:
                    b, out_m = (hi[:width], lo[:width]), (hi[m : m + width], lo[m : m + width])
                    _mul_add(_DOUBLING_MULTS[i], b, steps[:, _NEAR + i], out_m)
            state = np.array([hi[-1], lo[-1]])
            x, rot = hi ^ lo, hi >> 58  # XSL-RR: xor the halves, rotate right by the top 6 bits
            x = x >> rot | x << (64 - rot & 63)
            # As int64, which numpy converts to float faster; (x >> 11) < 2**53 is exact either way.
            np.multiply((x >> 11).view(np.int64).T, 2.0**-53, out=out[:, done : done + count])
        self.state[:, rows] = state
        return out

    def uniform(self, low: float, high: float, k: int, rows=slice(None)) -> np.ndarray:
        """``Generator.uniform(low, high, k)`` of each stream in ``rows``, shape (rows, k)."""
        low, high = float(low), float(high)
        return low + (high - low) * self.random(k, rows)


def generate_topology(n: int, side: float, seed: int) -> Topology:
    """Place n nodes i.i.d. uniformly on the square [0, side]^2, as numpy's
    ``default_rng(seed).uniform(0, side, (n, 2))`` does.

    Deterministic for a fixed seed. ``n`` must be an int >= 2 and ``seed`` one >= 0, neither a
    bool, and ``side`` positive and finite; otherwise a ConfigurationError names the argument.
    """
    check_count("n", n, 2)
    if not 0 < side < np.inf:  # NaN too
        raise ConfigurationError(f"field side must be positive and finite, got {side}")
    check_count("seed", seed, 0)
    return Topology(_Streams([seed]).uniform(0.0, side, 2 * n).reshape(n, 2))


def load_topology(path: str | Path) -> Topology:
    """Load node coordinates from a JSON file {"positions": [[x, y], ...]}."""
    data = read_json_object(path, "topology")
    if "positions" not in data:
        raise ConfigurationError(f'topology file {path} must contain a "positions" key')
    return Topology(data["positions"])


@dataclass(frozen=True)
class ClusterCandidate:
    """One candidate cluster: designated head plus its member set.

    Attributes:
        head: node index of the cluster head.
        members: sorted tuple of distinct node indices, head included.
    A node index is an integer (numpy's too), never a bool.
    """

    head: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(f"cluster needs at least 2 members, got {self.members}")
        kinds = {type(self.head), *map(type, self.members)}  # one type check per distinct type
        if not all(issubclass(kind, Integral) and kind is not bool for kind in kinds):
            raise ValueError(f"node indices must be integers, got {self.head} and {self.members}")
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


def check_members(candidates: Sequence[ClusterCandidate], n: int) -> None:
    """The pool rule, else ValueError: nonempty, n an integer (not a bool), members in [0, n)."""
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not all(0 <= cand.members[0] and cand.members[-1] < n for cand in candidates):
        raise ValueError(f"a candidate has a member outside [0, {n})")


def membership(candidates: Sequence[ClusterCandidate], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, n) 0/1 matrix whose row i marks candidate i's members, and its row sums, the sizes."""
    check_members(candidates, n)
    sizes = np.array([cand.size for cand in candidates])
    cols = np.array([j for cand in candidates for j in cand.members], dtype=int)
    m = np.zeros((len(candidates), n))
    m[np.repeat(np.arange(len(candidates)), sizes), cols] = 1.0
    return m, sizes


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
        mask, _ = membership(block, topology.n)  # checks every member, heads included
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
