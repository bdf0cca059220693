"""Monte-Carlo simulation of randomized clustered averaging.

Each time slot one candidate cluster is drawn from the activation
distribution, its members' states collapse to their mean, and the
cluster's total transmit energy is charged. Trials track the relative
error ``|y(t) - mean(y(0))*1|^2 / |y(0)|^2`` and stop once it falls below
a threshold; a centralized observer is assumed for the stopping rule.
Tests check ``monte_carlo`` against the per-run reference ``run_trial`` in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candidates import ClusterCandidate, check_members, per_candidate, per_candidate_costs
from .errors import ConfigurationError, NumericalError, check_init_range

__all__ = [
    "SimulationScenario",
    "AveragedTrace",
    "draw_initial_state",
    "sample_cluster",
    "consensus_step",
    "relative_error",
    "monte_carlo",
]

# monte_carlo holds this many runs' states and streams at once, and draws each
# run's uniforms this many at a time.
_CHUNK_RUNS = 250
_BLOCK = 64
# The widest pool whose clusters monte_carlo averages as one zero-padded row group: numpy sums fewer
# than 8 terms left to right, so trailing zeros change no sum, but 8 or more pairwise.
_PADDED_WIDTH = 7


def _check_count(name: str, value: object, least: int) -> None:
    """ConfigurationError naming ``name`` unless ``value`` is an int >= ``least``, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class SimulationScenario:
    """Everything a trial needs besides its random stream, checked when built.

    threshold > 0, max_iters an int >= 1 and not a bool, p a distribution and costs_l1 a finite
    nonnegative cost per candidate (both stored as float vectors), a pool and n that pass
    ``check_members``, and an init_low/init_high range that ``check_init_range`` accepts.
    """

    candidates: tuple[ClusterCandidate, ...]
    costs_l1: np.ndarray
    p: np.ndarray
    n: int
    init_low: float
    init_high: float
    threshold: float
    max_iters: int

    def __post_init__(self) -> None:
        """Check the rules above; ``replace`` runs this too."""
        if not self.threshold > 0:  # NaN too
            raise ConfigurationError(f"threshold must be positive, got {self.threshold}")
        _check_count("max_iters", self.max_iters, 1)
        for name, check in (("p", per_candidate), ("costs_l1", per_candidate_costs)):
            object.__setattr__(self, name, check(getattr(self, name), self.candidates, name))
        _cumulative(self.p)
        check_members(self.candidates, self.n)
        check_init_range(self.init_low, self.init_high)


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class AveragedTrace:
    """Pointwise means across trials.

    Trials that stopped early are extended as constants to the longest
    recorded length: a terminated network neither moves nor spends energy.
    mean_iterations_to_threshold counts a never-terminating run at the
    iteration cap; terminated_runs says how many actually crossed.
    """

    mean_errors: np.ndarray
    mean_energies: np.ndarray
    runs: int
    terminated_runs: int
    mean_iterations_to_threshold: float
    mean_energy_at_threshold: float


def draw_initial_state(
    n: int, low: float, high: float, rng: np.random.Generator
) -> np.ndarray:
    """I.i.d. uniform readings on [low, high], whose squared norm must be positive and finite.

    The relative error divides by that norm, so a range that ``check_init_range`` refuses, or
    readings whose squared norm overflows or rounds to 0, are rejected as a bad init_low/init_high.
    """
    check_init_range(low, high)
    y = rng.uniform(low, high, size=n)
    with np.errstate(over="ignore"):
        norm = y @ y
    if not 0 < norm < np.inf:
        raise ConfigurationError(
            f"init_low={low} and init_high={high} drew readings whose squared norm is {norm}, "
            "not a positive finite number"
        )
    return y


def _cumulative(p: np.ndarray) -> np.ndarray:
    """The CDF of p, once p is checked to be nonempty, nonnegative and to sum to 1 within 1e-6."""
    p = np.asarray(p, dtype=float)
    cumulative = np.cumsum(p)
    if not (p.size and np.all(p >= 0) and abs(cumulative[-1] - 1.0) <= 1e-6):
        raise ValueError(f"p must be nonempty, nonnegative and sum to 1, got sum {p.sum()}")
    cumulative[np.flatnonzero(p)[-1] :] = np.inf  # so a uniform draw >= sum(p) picks no p = 0
    return cumulative


def sample_cluster(p: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a candidate index from the categorical distribution p; one whose p is 0 is never drawn."""
    return int(np.searchsorted(_cumulative(p), rng.random(), side="right"))


def consensus_step(y: np.ndarray, candidate: ClusterCandidate) -> np.ndarray:
    """A float copy of the readings y with the members' readings replaced by their cluster mean."""
    y = np.array(y, dtype=float)
    check_members([candidate], len(y))
    idx = np.fromiter(candidate.members, dtype=int)
    y[idx] = y[idx].mean()
    return y


def relative_error(y: np.ndarray, y0: np.ndarray) -> float:
    """Squared distance of the readings y to the mean of y0, relative to y0's squared norm.

    That norm must be positive and finite: an all-zero, NaN or overflowing y0 raises ValueError.
    """
    y0 = np.asarray(y0, dtype=float)  # as integers, y0 @ y0 would wrap around past 2**63
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(y0 @ y0)
    if not 0 < denom < np.inf:
        raise ValueError(f"relative error needs y0's squared norm positive and finite, got {denom}")
    eps = y - y0.mean()
    return float(eps @ eps) / denom


@np.errstate(over="ignore")  # checked at the end, as non-finite sums
def monte_carlo(scenario: SimulationScenario, runs: int, base_seed: int) -> AveragedTrace:
    """Average independent trials, run r seeded with base_seed + r.

    ``runs`` must be an int >= 1 and ``base_seed`` an int >= 0, neither a bool; otherwise a
    ConfigurationError names the argument. Each run draws its own initial state from its stream,
    then follows the path that the per-run reference ``run_trial`` in tests/reference.py gives
    it. Runs advance together, slot by slot, in chunks of ``_CHUNK_RUNS`` over one (C, width)
    member table, whose row i holds candidate i's members, ascending, padded with n to the widest
    candidate's size; memory is O(runs + chunk * n + slots + C * width). A finished run holds
    its final error and energy, i.e. is right-extended as constants in the mean. Energy sums
    that overflow a float, which finite but huge costs_l1 can give, raise NumericalError.
    """
    _check_count("runs", runs, 1)
    _check_count("base_seed", base_seed, 0)
    cands, n, low, high = scenario.candidates, scenario.n, scenario.init_low, scenario.init_high
    size_of = np.array([cand.size for cand in cands])
    members = np.full((len(cands), size_of.max()), n)
    members[np.arange(size_of.max()) < size_of[:, None]] = np.concatenate([c.members for c in cands])
    cumulative = _cumulative(scenario.p)
    total, iterations, finals, terminated = np.zeros((2, 1)), [], [], 0
    for start in range(0, runs, _CHUNK_RUNS):
        seeds = range(base_seed + start, base_seed + min(start + _CHUNK_RUNS, runs))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        y = np.array([draw_initial_state(n, low, high, rng) for rng in rngs])
        # Batched, these round as relative_error's y0.mean(), y0 @ y0 and eps @ eps.
        mean0 = y.mean(axis=1)
        denom = np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0]
        y = np.pad(y, [(0, 0), (0, 1)])  # column n, the padding of ``members``, kept at 0
        error = np.zeros(len(rngs))
        energy = np.zeros(len(rngs))
        stop = np.full(len(rngs), scenario.max_iters)
        live = np.arange(len(rngs))
        sums = []
        block = np.empty((len(rngs), _BLOCK))
        for t in range(scenario.max_iters + 1):
            if live.size == 0:
                break
            if t:  # slot 0 is the initial state: nothing is drawn, averaged or charged
                column = (t - 1) % _BLOCK
                if column == 0:
                    # Generator.random(k) yields the doubles of k scalar random() calls.
                    for r in live:
                        rngs[r].random(out=block[r])
                drawn = np.searchsorted(cumulative, block[live, column], side="right")
                sizes = size_of[drawn]
                # Row groups: a narrow pool's live runs at full width, else each size s at width s.
                if members.shape[1] <= _PADDED_WIDTH:
                    groups = [(slice(None), members.shape[1])]
                else:
                    groups = [(sizes == s, s) for s in np.flatnonzero(np.bincount(sizes)).tolist()]
                for pick, width in groups:
                    rows, cols = live[pick][:, None], members[drawn[pick], :width]
                    y[rows, cols] = y[rows, cols].sum(axis=1, keepdims=True) / sizes[pick, None]
                y[:, -1] = 0.0
                energy[live] += scenario.costs_l1[drawn]
            eps = y[live, :-1] - mean0[live, None]
            error[live] = np.matmul(eps[:, None, :], eps[:, :, None])[:, 0, 0] / denom[live]
            sums.append((error.sum(), energy.sum()))
            crossed = error[live] < scenario.threshold
            stop[live[crossed]] = t
            live = live[~crossed]
        # Right-extend the shorter of the two by its last slot's sums, then add.
        sums = np.array(sums).T
        slots = max(total.shape[1], sums.shape[1])
        total = sum(np.pad(a, [(0, 0), (0, slots - a.shape[1])], "edge") for a in (total, sums))
        iterations.append(stop)
        finals.append(energy)
        terminated += len(rngs) - live.size
        del rngs, y, block  # so peak memory holds one chunk's streams and states, not two
    mean_energy = float(np.mean(np.concatenate(finals)))
    if not (np.isfinite(total).all() and math.isfinite(mean_energy)):
        raise NumericalError("simulated energy sums overflow a float: lower the candidate costs")
    return AveragedTrace(
        mean_errors=total[0] / runs,
        mean_energies=total[1] / runs,
        runs=runs,
        terminated_runs=terminated,
        mean_iterations_to_threshold=float(np.mean(np.concatenate(iterations))),
        mean_energy_at_threshold=mean_energy,
    )

