from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import simulator
from clustergossip import (
    AveragedTrace,
    ClusterCandidate,
    ConfigurationError,
    NumericalError,
    SimulationScenario,
    consensus_step,
    draw_initial_state,
    monte_carlo,
    relative_error,
    sample_cluster,
)
from reference import build_weight_matrix, mse_bound_check, run_trial


PAIR_01 = ClusterCandidate(head=0, members=(0, 1))
PAIR_12 = ClusterCandidate(head=1, members=(1, 2))
FULL_3 = ClusterCandidate(head=0, members=(0, 1, 2))


def _scenario(candidates, costs_l1, p, threshold, max_iters, n=3):
    return SimulationScenario(
        candidates=tuple(candidates),
        costs_l1=costs_l1,
        p=p,
        n=n,
        init_low=0.0,
        init_high=30.0,
        threshold=threshold,
        max_iters=max_iters,
    )


def _symmetric_scenario(threshold=1e-300, max_iters=30):
    return _scenario((PAIR_01, PAIR_12), [1.0, 1.0], [0.5, 0.5], threshold, max_iters)


def test_draw_initial_state_bounds_and_determinism():
    a = draw_initial_state(30, 0.0, 30.0, np.random.default_rng(4))
    b = draw_initial_state(30, 0.0, 30.0, np.random.default_rng(4))
    assert a.shape == (30,)
    assert np.all(a >= 0.0) and np.all(a <= 30.0)
    np.testing.assert_array_equal(a, b)


def test_draw_initial_state_degenerate_interval():
    state = draw_initial_state(5, 7.0, 7.0, np.random.default_rng(0))
    np.testing.assert_array_equal(state, np.full(5, 7.0))


def test_sample_cluster_degenerate_pmfs():
    rng = np.random.default_rng(1)
    assert all(
        sample_cluster(np.array([1.0, 0.0]), rng) == 0 for _ in range(100)
    )
    assert all(
        sample_cluster(np.array([0.0, 1.0]), rng) == 1 for _ in range(100)
    )


def test_sample_cluster_frequency():
    rng = np.random.default_rng(99)
    draws = [sample_cluster(np.array([0.5, 0.5]), rng) for _ in range(10_000)]
    freq0 = draws.count(0) / 10_000
    assert 0.48 <= freq0 <= 0.52


@pytest.mark.parametrize("seed", [339728, 2548277])
def test_sample_cluster_never_draws_a_zero_probability_candidate(seed):
    """p sums to 1 - 1e-6, and this seed's uniform lies past that sum: the last positive p is
    drawn, not the trailing p = 0."""
    assert sample_cluster(np.array([0.5, 0.499999, 0.0]), np.random.default_rng(seed)) == 1


def test_sample_cluster_rejects_non_pmf():
    with pytest.raises(ValueError):
        sample_cluster(np.array([0.5, 0.6]), np.random.default_rng(0))


@pytest.mark.parametrize("p", [[np.nan, 1.0], [1.5, -0.5], [-0.25, 1.25]])
def test_sample_cluster_rejects_what_monte_carlo_rejects(p):
    """NaN or negative entries, which monte_carlo rejects too; [1.5, -0.5] even sums to 1."""
    with pytest.raises(ValueError, match="nonnegative"):
        sample_cluster(np.array(p), np.random.default_rng(0))


def test_consensus_step_pair_average():
    state = np.array([0.0, 10.0, 20.0])
    after = consensus_step(state, ClusterCandidate(head=1, members=(0, 1)))
    np.testing.assert_array_equal(after, [5.0, 5.0, 20.0])


def test_consensus_step_full_average():
    state = np.array([0.0, 10.0, 20.0])
    after = consensus_step(state, FULL_3)
    np.testing.assert_array_equal(after, [10.0, 10.0, 10.0])


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_consensus_step_matches_weight_matrix(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-10.0, 40.0, size=5)
    members = tuple(sorted(rng.choice(5, size=3, replace=False).tolist()))
    cand = ClusterCandidate(head=members[0], members=members)
    after = consensus_step(y, cand)
    np.testing.assert_allclose(after, build_weight_matrix(cand, 5) @ y, atol=1e-12)
    assert np.mean(after) == pytest.approx(float(np.mean(y)), abs=1e-12)


def test_relative_error_values():
    initial = np.array([3.0, 4.0])
    assert relative_error(initial, initial) == pytest.approx(0.02, abs=1e-15)
    consensus = np.full(2, 3.5)
    assert relative_error(consensus, initial) == pytest.approx(0.0)
    wide = np.array([0.0, 30.0])
    assert relative_error(wide, wide) == pytest.approx(0.5)


def test_relative_error_rejects_zero_initial():
    """Nor a NaN, infinite or overflowing initial state: its squared norm is no positive float."""
    for y0 in (np.zeros(3), np.array([1.0, np.nan]), np.array([np.inf, 1.0]), np.full(2, 1e200)):
        with pytest.raises(ValueError, match="positive and finite"):
            relative_error(y0, y0)


def test_run_trial_integer_readings_average_as_floats():
    """An integer start follows the float start's trace byte for byte, where a truncated mean
    [0, 1, 5] -> [0, 0, 5] used to stall it."""
    scenario = _symmetric_scenario(threshold=1e-3, max_iters=200)
    as_int = run_trial(scenario, np.array([0, 1, 5]), np.random.default_rng(4))
    as_float = run_trial(scenario, np.array([0.0, 1.0, 5.0]), np.random.default_rng(4))
    assert as_float.terminated_at is not None
    assert as_int.terminated_at == as_float.terminated_at
    for name in ("errors", "energies", "activations"):
        assert getattr(as_int, name).tobytes() == getattr(as_float, name).tobytes()
    big = np.array([3 * 2**31, 0, 0])  # its integer squared norm wraps around to 2**62
    assert relative_error(big, big) == relative_error(big.astype(float), big.astype(float))


def test_run_trial_rejects_a_nan_reading_at_slot_0():
    scenario = _symmetric_scenario()
    with pytest.raises(ValueError, match="got nan"):
        run_trial(scenario, np.array([0.0, np.nan, 5.0]), np.random.default_rng(0))


@pytest.mark.parametrize("readings", [4, 7])
def test_run_trial_rejects_initial_not_one_reading_per_node(readings):
    """Too many readings would never be averaged, too few would index past the end."""
    chain = [ClusterCandidate(head=i, members=(i, i + 1)) for i in range(5)]
    scenario = _scenario(chain, [1.0] * 5, [0.2] * 5, 1e-3, 200, n=6)
    initial = np.arange(1.0, readings + 1.0)
    with pytest.raises(ValueError, match=rf"^initial: shape \({readings},\), expected \(6,\)"):
        run_trial(scenario, initial, np.random.default_rng(0))


def test_run_trial_one_shot():
    initial = np.array([0.0, 10.0, 20.0])
    scenario = _scenario([FULL_3], [225.0], [1.0], 0.1, 50)
    trace = run_trial(scenario, initial, np.random.default_rng(2))
    assert trace.terminated_at == 1
    assert trace.errors[-1] == 0.0
    np.testing.assert_array_equal(trace.energies, [0.0, 225.0])


def test_run_trial_already_at_consensus():
    initial = np.full(4, 7.0)
    cand = ClusterCandidate(head=0, members=(0, 1, 2, 3))
    scenario = _scenario([cand], [9.0], [1.0], 0.1, 50, n=4)
    trace = run_trial(scenario, initial, np.random.default_rng(3))
    assert trace.terminated_at == 0
    np.testing.assert_array_equal(trace.energies, [0.0])
    assert trace.activations.size == 0


def test_run_trial_disconnected_support_never_terminates():
    initial = np.array([0.0, 10.0, 20.0])
    scenario = _scenario([PAIR_01], [50.0], [1.0], 1e-6, 40)
    trace = run_trial(scenario, initial, np.random.default_rng(5))
    assert trace.terminated_at is None
    assert trace.errors.size == 41
    # node 2 never mixes, so the error floor stays well above zero
    assert trace.errors[-1] > 0.01


def test_run_trial_energy_accounting_is_exact():
    initial = draw_initial_state(3, 0.0, 30.0, np.random.default_rng(6))
    costs = np.array([50.0, 130.0])
    scenario = _scenario([PAIR_01, PAIR_12], costs, [0.5, 0.5], 1e-300, 25)
    trace = run_trial(scenario, initial, np.random.default_rng(7))
    total = 0.0
    for t, cluster_index in enumerate(trace.activations, start=1):
        total += costs[cluster_index]
        assert trace.energies[t] == total


@pytest.mark.parametrize(
    "p,costs_l1,name",
    [
        ([1.0], [1.0, 1.0], "p"),  # run_trial never drew the missing candidate
        ([0.0, 0.0, 1.0], [1.0, 1.0], "p"),  # run_trial drew a missing index
        ([0.5, 0.5], [1.0], "costs_l1"),  # run_trial raised IndexError mid-run
    ],
)
def test_scenario_rejects_values_not_one_per_candidate(p, costs_l1, name):
    with pytest.raises(ValueError, match=f"^{name}: shape"):
        _scenario([PAIR_01, PAIR_12], costs_l1, p, 1e-300, 30)


def test_monte_carlo_single_run_equals_trial():
    scenario = _symmetric_scenario(threshold=0.01, max_iters=50)
    avg = monte_carlo(scenario, runs=1, base_seed=77)
    rng = np.random.default_rng(77)
    initial = draw_initial_state(3, 0.0, 30.0, rng)
    trace = run_trial(scenario, initial, rng)
    np.testing.assert_array_equal(avg.mean_errors, trace.errors)
    np.testing.assert_array_equal(avg.mean_energies, trace.energies)
    assert avg.runs == 1
    assert avg.terminated_runs == (1 if trace.terminated_at is not None else 0)


def test_monte_carlo_is_deterministic():
    scenario = _symmetric_scenario()
    a = monte_carlo(scenario, runs=40, base_seed=123)
    b = monte_carlo(scenario, runs=40, base_seed=123)
    np.testing.assert_array_equal(a.mean_errors, b.mean_errors)
    np.testing.assert_array_equal(a.mean_energies, b.mean_energies)
    assert a.terminated_runs == b.terminated_runs


def test_monte_carlo_right_extends_finished_runs():
    """The averaged curves must equal a manual average in which each
    finished trial repeats its final error and final cumulative energy."""
    scenario = _symmetric_scenario(threshold=0.05, max_iters=200)
    runs = 30
    avg = monte_carlo(scenario, runs=runs, base_seed=9)
    assert avg.terminated_runs == runs

    traces = []
    for r in range(runs):
        rng = np.random.default_rng(9 + r)
        initial = draw_initial_state(3, 0.0, 30.0, rng)
        traces.append(run_trial(scenario, initial, rng))
    length = max(t.errors.size for t in traces)
    err = np.zeros((runs, length))
    eng = np.zeros((runs, length))
    for r, t in enumerate(traces):
        err[r, : t.errors.size] = t.errors
        err[r, t.errors.size :] = t.errors[-1]
        eng[r, : t.energies.size] = t.energies
        eng[r, t.energies.size :] = t.energies[-1]
    np.testing.assert_allclose(avg.mean_errors, err.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(avg.mean_energies, eng.mean(axis=0), atol=1e-9)
    assert avg.mean_iterations_to_threshold == pytest.approx(
        np.mean([t.terminated_at for t in traces])
    )
    assert avg.mean_energy_at_threshold == pytest.approx(
        np.mean([t.energies[-1] for t in traces])
    )


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_a_run_stops_once_its_error_falls_below_the_threshold(seed):
    """The stop rule is strict: a run whose slot-0 error e0 equals the threshold is not done, and
    the pair's average at slot 1 takes it below."""
    pair = ClusterCandidate(head=0, members=(0, 1))
    e0 = monte_carlo(_scenario([pair], [1.0], [1.0], 1e-300, 1, n=2), 1, seed).mean_errors[0]
    assert e0 > 0.0
    at_e0 = monte_carlo(_scenario([pair], [1.0], [1.0], float(e0), 1, n=2), 1, seed)
    assert at_e0.mean_iterations_to_threshold == 1.0 and at_e0.terminated_runs == 1


def test_monte_carlo_never_draws_a_zero_probability_candidate():
    """Only the p = 0 pair (2, 3) costs energy, and only it mixes node 3. One of these runs draws a
    uniform past sum(p) = 1 - 1e-6, which used to pick that pair."""
    pairs = tuple(ClusterCandidate(head=a, members=(a, a + 1)) for a in range(3))
    scenario = _scenario(pairs, [0.0, 0.0, 1.0], [0.5, 0.499999, 0.0], 1e-300, 2000, n=4)
    avg = monte_carlo(scenario, runs=250, base_seed=8)
    assert avg.mean_energy_at_threshold == 0.0
    assert avg.terminated_runs == 0


def test_monte_carlo_mean_error_decays():
    avg = monte_carlo(_symmetric_scenario(max_iters=40), runs=200, base_seed=5)
    smoothed = np.convolve(avg.mean_errors, np.ones(5) / 5.0, mode="valid")
    assert np.all(np.diff(smoothed) <= 1e-9)


def test_mse_bound_check_trivial_and_negative_control():
    one_shot = SimulationScenario(
        candidates=(FULL_3,),
        costs_l1=np.array([225.0]),
        p=np.array([1.0]),
        n=3,
        init_low=0.0,
        init_high=30.0,
        threshold=1e-300,
        max_iters=5,
    )
    avg = monte_carlo(one_shot, runs=50, base_seed=11)
    assert np.all(avg.mean_errors[1:] == 0.0)
    assert mse_bound_check(avg, 0.0, float(avg.mean_errors[0]))

    sym = monte_carlo(_symmetric_scenario(), runs=2000, base_seed=21)
    assert mse_bound_check(sym, 0.75, float(sym.mean_errors[0]))

    inflated = AveragedTrace(
        mean_errors=sym.mean_errors * 3.0,
        mean_energies=sym.mean_energies,
        runs=sym.runs,
        terminated_runs=sym.terminated_runs,
        mean_iterations_to_threshold=sym.mean_iterations_to_threshold,
        mean_energy_at_threshold=sym.mean_energy_at_threshold,
    )
    assert not mse_bound_check(inflated, 0.75, float(sym.mean_errors[0]))


def test_mse_bound_check_rejects_bad_xi():
    avg = monte_carlo(_symmetric_scenario(max_iters=5), runs=5, base_seed=1)
    with pytest.raises(ValueError):
        mse_bound_check(avg, 1.0, float(avg.mean_errors[0]))
    with pytest.raises(ValueError):
        mse_bound_check(avg, -0.1, float(avg.mean_errors[0]))


def _reference_average(scenario, runs, base_seed):
    """The per-run loop monte_carlo replaced: run_trial per seed, then mean."""
    traces = []
    for r in range(runs):
        rng = np.random.default_rng(base_seed + r)
        initial = draw_initial_state(scenario.n, scenario.init_low, scenario.init_high, rng)
        traces.append(run_trial(scenario, initial, rng))
    length = max(t.errors.size for t in traces)
    err = np.zeros(length)
    eng = np.zeros(length)
    for t in traces:
        err[: t.errors.size] += t.errors
        err[t.errors.size :] += t.errors[-1]
        eng[: t.energies.size] += t.energies
        eng[t.energies.size :] += t.energies[-1]
    iterations = [
        t.terminated_at if t.terminated_at is not None else scenario.max_iters
        for t in traces
    ]
    return traces, AveragedTrace(
        mean_errors=err / runs,
        mean_energies=eng / runs,
        runs=runs,
        terminated_runs=sum(t.terminated_at is not None for t in traces),
        mean_iterations_to_threshold=float(np.mean(iterations)),
        mean_energy_at_threshold=float(np.mean([t.energies[-1] for t in traces])),
    )


@st.composite
def _random_scenarios(draw):
    """Clusters of any size up to n = 30, p with zero entries, thresholds that
    some runs meet at slot 0 and others never meet before max_iters."""
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 8))
    candidates = []
    for _ in range(count):
        members = tuple(sorted(rng.choice(n, int(rng.integers(2, n + 1)), replace=False).tolist()))
        candidates.append(ClusterCandidate(head=members[-1], members=members))
    p = rng.random(count) * (rng.random(count) < 0.7)
    p[0] += p.sum() == 0
    low, high = draw(st.sampled_from([(0.0, 30.0), (10.0, 12.0), (-5.0, 5.0)]))
    return SimulationScenario(
        candidates=tuple(candidates),
        costs_l1=rng.uniform(0.0, 100.0, count),
        p=p / p.sum(),
        n=n,
        init_low=low,
        init_high=high,
        threshold=draw(st.sampled_from([0.3, 0.1, 1e-3, 1e-9])),
        max_iters=draw(st.integers(1, 60)),
    )


@given(
    _random_scenarios(),
    st.integers(1, 40),
    st.integers(0, 10_000),
    st.sampled_from([1, 3, 7, simulator._CHUNK_RUNS]),
    st.sampled_from([1, 5, simulator._BLOCK]),
)
@settings(max_examples=60, deadline=None)
def test_monte_carlo_matches_run_trial_average(scenario, runs, base_seed, chunk, block):
    with mock.patch.object(simulator, "_CHUNK_RUNS", chunk), mock.patch.object(
        simulator, "_BLOCK", block
    ):
        avg = monte_carlo(scenario, runs, base_seed)
        one = monte_carlo(scenario, 1, base_seed)
    traces, ref = _reference_average(scenario, runs, base_seed)
    assert avg.runs == runs
    assert avg.terminated_runs == ref.terminated_runs
    assert avg.mean_iterations_to_threshold == ref.mean_iterations_to_threshold
    assert avg.mean_energy_at_threshold == ref.mean_energy_at_threshold
    assert avg.mean_errors.shape == ref.mean_errors.shape
    np.testing.assert_allclose(avg.mean_errors, ref.mean_errors, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(avg.mean_energies, ref.mean_energies, rtol=1e-12, atol=1e-12)
    # One run is its own mean: its error and energy paths are run_trial's, bit for bit.
    np.testing.assert_array_equal(one.mean_errors, traces[0].errors)
    np.testing.assert_array_equal(one.mean_energies, traces[0].energies)


def test_monte_carlo_one_run_bit_identical_on_many_seeds():
    """Sizes 2..n on n = 30 and n = 300, so the row means cover pairwise sums over
    8+ terms, and on n = 300 numpy's blocked sums past 128 terms, in the initial
    mean and squared norm as well as in the cluster means."""
    rng = np.random.default_rng(3)
    for n, seeds in ((30, 80), (300, 10)):
        member_sets = [
            tuple(sorted(rng.choice(n, s, replace=False).tolist())) for s in range(2, n + 1)
        ]
        candidates = tuple(ClusterCandidate(head=m[0], members=m) for m in member_sets)
        p = rng.random(len(candidates))
        p[::4] = 0.0
        scenario = SimulationScenario(
            candidates=candidates,
            costs_l1=rng.uniform(1.0, 50.0, len(candidates)),
            p=p / p.sum(),
            n=n,
            init_low=0.0,
            init_high=30.0,
            threshold=1e-12,
            max_iters=80,
        )
        for seed in range(seeds):
            traces, _ = _reference_average(scenario, 1, seed)
            avg = monte_carlo(scenario, 1, seed)
            np.testing.assert_array_equal(avg.mean_errors, traces[0].errors)
            np.testing.assert_array_equal(avg.mean_energies, traces[0].energies)


@pytest.mark.parametrize(
    "width,padded,widest_drawn",
    [
        pytest.param(2, True, True, id="2-True"),
        pytest.param(3, True, True, id="3-True"),
        pytest.param(7, True, True, id="7-True"),
        pytest.param(8, False, True, id="8-False"),
        pytest.param(29, False, True, id="29-False"),
        pytest.param(130, False, True, id="130-False"),
        pytest.param(8, False, False, id="8-False-widest-undrawn"),
        pytest.param(29, False, False, id="29-False-widest-undrawn"),
    ],
)
def test_monte_carlo_one_run_bit_identical_on_narrow_and_wide_pools(width, padded, widest_drawn):
    """A pool whose widest candidate has at most 7 members averages each slot as one padded
    row group, a wider one as one group per cluster size; either way one run is run_trial's,
    bit for bit, on each of n = 12, 30 and 300 that exceeds the width. 130 members pass
    numpy's 128-term pairwise block. The grouping follows the table's width, not the draws:
    with the widest candidate at probability 0, every draw is narrower than the table. Only the
    one-group-per-size branch counts the drawn sizes with np.bincount, so a call that never
    counts them took the padded branch."""
    rng = np.random.default_rng(width)
    paths = []
    ns = [n for n in (12, 30, 300) if n > width]
    for n in ns:
        sizes = [width, *rng.integers(2, width + widest_drawn, size=11).tolist()]
        member_sets = [tuple(sorted(rng.choice(n, s, replace=False).tolist())) for s in sizes]
        p = rng.random(len(sizes))
        p[1::4] = 0.0
        p[0] *= widest_drawn  # at 0, every draw is narrower than the table
        scenario = SimulationScenario(
            candidates=tuple(ClusterCandidate(head=m[-1], members=m) for m in member_sets),
            costs_l1=rng.uniform(1.0, 50.0, len(sizes)),
            p=p / p.sum(),
            n=n,
            init_low=-5.0,
            init_high=30.0,
            threshold=1e-9,
            max_iters=120,
        )
        for seed in range(40):
            traces, _ = _reference_average(scenario, 1, seed)
            with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
                avg = monte_carlo(scenario, 1, seed)
            paths.append(bincount.call_count == 0)
            assert avg.mean_errors.tobytes() == traces[0].errors.tobytes()
            assert avg.mean_energies.tobytes() == traces[0].energies.tobytes()
    assert paths == [padded] * (40 * len(ns))


def test_monte_carlo_matches_reference_across_chunks_and_edge_runs():
    """More runs than one chunk, not a multiple of it; runs that stop at slot
    0 (narrow initial range) next to runs that never stop (node 2 never mixes)."""
    scenario = SimulationScenario(
        candidates=(PAIR_01, PAIR_12),
        costs_l1=np.array([3.0, 5.0]),
        p=np.array([1.0, 0.0]),
        n=3,
        init_low=10.0,
        init_high=12.5,
        threshold=2e-3,
        max_iters=25,
    )
    runs = simulator._CHUNK_RUNS + 13
    avg = monte_carlo(scenario, runs, 40)
    traces, ref = _reference_average(scenario, runs, 40)
    stops = [t.terminated_at for t in traces]
    assert 0 in stops and None in stops
    assert avg.terminated_runs == ref.terminated_runs
    assert avg.mean_iterations_to_threshold == ref.mean_iterations_to_threshold
    assert avg.mean_energy_at_threshold == ref.mean_energy_at_threshold
    np.testing.assert_allclose(avg.mean_errors, ref.mean_errors, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(avg.mean_energies, ref.mean_energies, rtol=1e-12, atol=1e-12)


def _second_moment_curve(scenario, p):
    """E|e_t|^2 / E|y_0|^2 for the deviation e = y - mean(y), slot by slot, with no sampling.

    Each W_i is a symmetric projector, so S_t = E[e_t e_t^T] follows S_{t+1} = sum_i p_i W_i S_t
    W_i exactly from S_0 = sigma^2 (I - J); over uniform readings on [low, high],
    E|y_0|^2 = n (mu^2 + sigma^2). Boyd, Ghosh, Prabhakar & Shah (IEEE T-IT 2006) bound the trace.
    """
    n, low, high = scenario.n, scenario.init_low, scenario.init_high
    weights = [build_weight_matrix(cand, n) for cand in scenario.candidates]
    var, mu = (high - low) ** 2 / 12, (high + low) / 2
    s, curve = var * (np.eye(n) - 1.0 / n), []
    for _ in range(scenario.max_iters + 1):
        curve.append(np.trace(s))
        s = sum(p_i * w @ s @ w for p_i, w in zip(p, weights))
    return np.array(curve) / (n * (mu**2 + var))


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_monte_carlo_matches_the_second_moment_recursion(seed):
    """An oracle that shares no code with run_trial: the mean of 20 batches of 100 runs, each
    batch from its own base seed, lies within 5 batch-mean standard errors of the recursion at
    every slot where the curve is at least 1e-2 of its slot-0 value (below that the heavy tail
    of the error breaks the normal approximation). The narrow init range [10, 12] keeps the
    mean of ratios that monte_carlo averages close to the ratio of means that the recursion
    gives. Negative control: the same check with p rolled by one place fails."""
    rng = np.random.default_rng(seed)
    n, count = int(rng.integers(4, 13)), int(rng.integers(2, 7))
    member_sets = [
        tuple(sorted(rng.choice(n, int(rng.integers(2, n + 1)), replace=False).tolist()))
        for _ in range(count)
    ]
    p = rng.random(count) + 0.05
    scenario = SimulationScenario(
        candidates=tuple(ClusterCandidate(head=m[0], members=m) for m in member_sets),
        costs_l1=np.ones(count),
        p=p / p.sum(),
        n=n,
        init_low=10.0,
        init_high=12.0,
        threshold=1e-300,
        max_iters=60,
    )
    slots = scenario.max_iters + 1
    batches = [monte_carlo(scenario, 100, 100 * b).mean_errors for b in range(20)]
    batches = np.array([np.pad(m, (0, slots - m.size), "edge") for m in batches])
    mean = batches.mean(axis=0)
    standard_error = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))

    def worst_gap(p):
        curve = _second_moment_curve(scenario, p)
        checked = curve >= 1e-2 * curve[0]
        return np.max(np.abs(mean - curve)[checked] / standard_error[checked])

    assert worst_gap(scenario.p) <= 5.0
    assert worst_gap(np.roll(scenario.p, 1)) > 5.0


@pytest.mark.parametrize(
    "changes,runs,error",
    [
        ({}, 0, ConfigurationError),
        ({"threshold": 0.0}, 5, ConfigurationError),
        ({"max_iters": 0}, 5, ConfigurationError),
        ({"init_low": 1.0, "init_high": 0.0}, 5, ConfigurationError),
        ({"p": np.array([1.0])}, 5, ValueError),
        ({"p": np.array([0.5, 0.25, 0.25])}, 5, ValueError),
        ({"costs_l1": np.array([1.0])}, 5, ValueError),
        ({"candidates": (PAIR_01, ClusterCandidate(head=3, members=(2, 3)))}, 5, ValueError),
        ({"p": np.array([0.5, 0.6])}, 5, ValueError),
        ({"p": np.array([1.5, -0.5])}, 5, ValueError),
        ({"p": np.array([np.nan, 1.0])}, 5, ValueError),
        # p is checked even when every run meets the threshold at slot 0
        ({"p": np.array([0.5, 0.6]), "threshold": 10.0}, 5, ValueError),
        ({"init_low": 0.0, "init_high": 0.0}, 5, ValueError),
        # initial readings whose squares underflow to 0, whose range width overflows, or
        # whose squares overflow
        ({"init_low": 1e-200, "init_high": 1e-200}, 5, ConfigurationError),
        ({"init_low": -1.7e308, "init_high": 1.7e308}, 5, ConfigurationError),
        ({"init_low": -1e200, "init_high": 1e200, "max_iters": 20}, 5, ConfigurationError),
        ({"threshold": float("nan")}, 5, ConfigurationError),
        ({"p": np.array([[0.5, 0.5]])}, 5, ValueError),  # the right size, but 2-D
        ({"candidates": (), "p": np.array([]), "costs_l1": np.array([])}, 5, ValueError),
        ({}, True, ConfigurationError),  # a bool is not a run count
        ({}, 2.5, ConfigurationError),
        # finite costs whose energy overflows: one run's 30 slots of 1e307, or 20 runs of 30 of 1e306
        ({"costs_l1": [1e307, 1e307]}, 20, NumericalError),
        ({"costs_l1": [1e306, 1e306]}, 20, NumericalError),
        # a negative, NaN or infinite cost is refused when the scenario is built
        ({"costs_l1": [-1.0, 1.0]}, 5, ValueError),
        ({"costs_l1": [np.nan, 1.0]}, 5, ValueError),
        ({"costs_l1": [np.inf, 1.0]}, 5, ValueError),
        # a slot count that is not an int, or is a bool
        ({"max_iters": 2.5}, 5, ConfigurationError),
        ({"max_iters": True}, 5, ConfigurationError),
    ],
)
def test_monte_carlo_rejects_bad_scenario(changes, runs, error):
    with pytest.raises(error):
        monte_carlo(replace(_symmetric_scenario(), **changes), runs, 0)


@pytest.mark.parametrize("base_seed", [-1, True, 1.5])
def test_monte_carlo_rejects_bad_base_seed(base_seed):
    with pytest.raises(ConfigurationError, match="base_seed"):
        monte_carlo(_symmetric_scenario(), 5, base_seed)


def test_monte_carlo_refuses_initial_readings_as_draw_initial_state_does():
    """[-1e200, 1e200] passes the range rule, but three readings drawn on it have a squared norm
    that overflows: monte_carlo's batched draw raises draw_initial_state's error, word for word,
    for the first such run, and the rule is stated once for both."""
    scenario = replace(_symmetric_scenario(), init_low=-1e200, init_high=1e200)
    with pytest.raises(ConfigurationError, match="squared norm is inf") as batched:
        monte_carlo(scenario, runs=3, base_seed=5)
    with pytest.raises(ConfigurationError) as single:
        draw_initial_state(3, -1e200, 1e200, np.random.default_rng(5))
    assert str(batched.value) == str(single.value)
    assert "init_low=-1e+200 and init_high=1e+200" in str(batched.value)


@pytest.mark.parametrize("low,high", [(2.0, 1.0), (0.0, 0.0), (-1.7e308, 1.7e308)])
def test_scenario_with_a_bad_initial_range_cannot_be_built(low, high):
    """An empty, all-zero or overflowing initial range fails when the scenario is built."""
    with pytest.raises(ConfigurationError, match="init_low=.*init_high="):
        SimulationScenario(
            candidates=(PAIR_01, PAIR_12),
            costs_l1=[1.0, 1.0],
            p=[0.5, 0.5],
            n=3,
            init_low=low,
            init_high=high,
            threshold=0.1,
            max_iters=5,
        )
    with pytest.raises(ConfigurationError, match="init_low=.*init_high="):
        replace(_symmetric_scenario(), init_low=low, init_high=high)
