"""Monte-Carlo simulation of randomized clustered averaging.

Each time slot one candidate cluster is drawn from the activation
distribution, its members' states collapse to their mean, and the
cluster's total transmit energy is charged. Trials track the relative
error ``|y(t) - mean(y(0))*1|^2 / |y(0)|^2`` and stop once it falls below
a threshold; a centralized observer is assumed for the stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candidates import ClusterCandidate, membership, per_candidate
from .errors import ConfigurationError

__all__ = [
    "SimulationTrace",
    "SimulationScenario",
    "AveragedTrace",
    "draw_initial_state",
    "sample_cluster",
    "consensus_step",
    "relative_error",
    "run_trial",
    "monte_carlo",
    "mse_bound_check",
]

# monte_carlo holds this many runs' states and streams at once, and draws each
# run's uniforms this many at a time.
_CHUNK_RUNS = 250
_BLOCK = 64
# The widest pool whose clusters _run_chunk averages as one zero-padded row group: numpy sums fewer
# than 8 terms left to right, so trailing zeros change no sum, but 8 or more pairwise.
_PADDED_WIDTH = 7


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


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class SimulationScenario:
    """Everything a trial needs besides its random stream, checked when built.

    threshold > 0, max_iters >= 1, p a distribution and costs_l1 a cost per
    candidate (both stored as float vectors), and every member in [0, n).
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
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("p", "costs_l1"):
            object.__setattr__(self, name, per_candidate(getattr(self, name), self.candidates, name))
        _cumulative(self.p)
        membership(self.candidates, self.n)  # only for its member-range check


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

    The relative error divides by that norm, so a range whose width overflows a float, or readings
    whose squared norm overflows or rounds to 0, are rejected as a bad init_low/init_high.
    """
    if low > high:
        raise ConfigurationError(f"init range is empty: init_low={low} > init_high={high}")
    if not math.isfinite(float(high) - float(low)):
        raise ConfigurationError(f"init_high - init_low overflows a float: [{low}, {high}]")
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
    return cumulative


def sample_cluster(p: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a candidate index from the categorical distribution p."""
    cumulative = _cumulative(p)
    idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return min(idx, cumulative.size - 1)


def consensus_step(y: np.ndarray, candidate: ClusterCandidate) -> np.ndarray:
    """A copy of the readings y with the members' readings replaced by their in-cluster mean."""
    y = y.copy()
    idx = np.fromiter(candidate.members, dtype=int)
    y[idx] = y[idx].mean()
    return y


def relative_error(y: np.ndarray, y0: np.ndarray) -> float:
    """Squared distance of the readings y to the mean of y0, relative to y0's squared norm."""
    denom = float(y0 @ y0)
    if denom == 0.0:
        raise ValueError("relative error is undefined for an all-zero initial state")
    eps = y - y0.mean()
    return float(eps @ eps) / denom


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


def _run_chunk(
    scenario: SimulationScenario, seeds: range, cumulative: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Advance one ``run_trial`` per seed together, slot by slot, on one state array.

    Row i of ``members`` holds candidate i's members, ascending, padded with n. Returns the
    (2, slots) per-slot sums of error and energy, in which a finished run holds its final
    values; each run's iterations and final energy; and how many runs crossed the threshold.
    """
    size_of = np.count_nonzero(members < scenario.n, axis=1)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    low, high = scenario.init_low, scenario.init_high
    y = np.array([draw_initial_state(scenario.n, low, high, rng) for rng in rngs])
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
            drawn = np.minimum(drawn, cumulative.size - 1)
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
    return np.array(sums).T, stop, energy, len(rngs) - live.size


def monte_carlo(
    scenario: SimulationScenario, runs: int, base_seed: int
) -> AveragedTrace:
    """Average independent trials, run r seeded with base_seed + r.

    Each run draws its own initial state from its stream, then follows the path
    ``run_trial`` gives it. Runs advance together in chunks of ``_CHUNK_RUNS`` over one
    (C, width) member table, width the widest candidate's size, so memory is
    O(runs + chunk * n + slots + C * width). A finished run holds its final error and
    energy, i.e. is right-extended as constants in the mean.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    cands = scenario.candidates
    size_of = np.array([cand.size for cand in cands])
    members = np.full((len(cands), size_of.max()), scenario.n)
    members[np.arange(size_of.max()) < size_of[:, None]] = np.concatenate([c.members for c in cands])
    cumulative = np.cumsum(scenario.p)
    total, iterations, finals, terminated = np.zeros((2, 1)), [], [], 0
    for start in range(0, runs, _CHUNK_RUNS):
        seeds = range(base_seed + start, base_seed + min(start + _CHUNK_RUNS, runs))
        sums, stop, energy, crossed = _run_chunk(scenario, seeds, cumulative, members)
        # Right-extend the shorter of the two by its last slot's sums, then add.
        width = max(total.shape[1], sums.shape[1])
        total = sum(np.pad(a, [(0, 0), (0, width - a.shape[1])], "edge") for a in (total, sums))
        iterations.append(stop)
        finals.append(energy)
        terminated += crossed
    return AveragedTrace(
        mean_errors=total[0] / runs,
        mean_energies=total[1] / runs,
        runs=runs,
        terminated_runs=terminated,
        mean_iterations_to_threshold=float(np.mean(np.concatenate(iterations))),
        mean_energy_at_threshold=float(np.mean(np.concatenate(finals))),
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
