"""Release-gate acceptance suite.

Ten numbered gates cover the whole pipeline end to end: projector algebra,
spectral agreement, optimizer-vs-grid equivalence, subgradient accuracy,
conservation laws in simulation, the geometric error bound, the
energy/iterations trade-off at full scale, the one-shot baseline,
infeasibility detection, and byte-level determinism of the outputs.

The terminal hook in conftest prints one PASS/FAIL line per gate.
"""

import json
import time

import numpy as np
import pytest

from clustergossip import (
    ClusterCandidate,
    EnergyParams,
    SimulationScenario,
    Topology,
    candidate_cost_l1,
    consensus_step,
    draw_initial_state,
    enumerate_candidates,
    generate_topology,
    mixing_matrix,
    monte_carlo,
    objective_subgradient,
    optimize,
    relative_error,
    sample_cluster,
    xi,
)
from clustergossip.cli import prepare_pool, run_sweep
from clustergossip.config import EXIT_OK, config_from_dict
from reference import build_weight_matrix, dense_mixing_matrix, mse_bound_check

FIELD_NODES = 30
FIELD_SIDE = 50.0
FIELD_SEED = 1
RUNS = 1000
SIM_SEED = 1000
THRESHOLD = 0.1
MAX_ITERS = 10000
INIT_LOW, INIT_HIGH = 0.0, 30.0
ENERGY = EnergyParams()

SMALL_ALPHAS = (0.0, 4e-5, 8e-5)
LARGE_ALPHAS = (0.0, 8.8e-5, 1.6e-4)


def _prepared(topology, size_min, size_max):
    enumerated, costs, kept = prepare_pool(topology, size_min, size_max, ENERGY)
    return [enumerated[i] for i in kept], costs[kept]


def _sweep(topology, size_min, size_max, alphas):
    kept, costs = _prepared(topology, size_min, size_max)
    per_alpha = {}
    for alpha in alphas:
        dist = optimize(kept, costs, topology.n, alpha=alpha)
        assert dist.feasible, f"alpha={alpha} unexpectedly infeasible"
        scenario = SimulationScenario(
            candidates=tuple(kept),
            costs_l1=costs,
            p=dist.p,
            n=topology.n,
            init_low=INIT_LOW,
            init_high=INIT_HIGH,
            threshold=THRESHOLD,
            max_iters=MAX_ITERS,
        )
        per_alpha[alpha] = (dist, monte_carlo(scenario, RUNS, SIM_SEED))
    return kept, costs, per_alpha


@pytest.fixture(scope="module")
def full_field():
    return generate_topology(FIELD_NODES, FIELD_SIDE, FIELD_SEED)


@pytest.fixture(scope="module")
def small_sweep(full_field):
    """Cluster sizes 2..10 swept over the light regularization grid."""
    return _sweep(full_field, 2, 10, SMALL_ALPHAS)


@pytest.fixture(scope="module")
def large_sweep(full_field):
    """Cluster sizes 20..30 swept over the heavy regularization grid."""
    return _sweep(full_field, 20, 30, LARGE_ALPHAS)


@pytest.fixture(scope="module")
def one_shot(full_field):
    """Unregularized run with the all-node cluster available."""
    kept, costs, per_alpha = _sweep(full_field, 2, FIELD_NODES, (0.0,))
    dist, averaged = per_alpha[0.0]
    return kept, costs, dist, averaged


def test_criterion_01_projector_suite():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 31))
        topology = generate_topology(n, FIELD_SIDE, int(rng.integers(0, 2**31)))
        for candidate in enumerate_candidates(topology, 2, n):
            w = build_weight_matrix(candidate, n)
            assert np.max(np.abs(w - w.T)) <= 1e-12
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
            assert np.max(np.abs(w @ w - w)) <= 1e-12
            assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12


def test_criterion_02_spectral_agreement():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(4, 31))
        topology = generate_topology(n, FIELD_SIDE, int(rng.integers(0, 2**31)))
        candidates = enumerate_candidates(topology, 2, n)
        p = rng.dirichlet(np.ones(len(candidates)))
        deflated = xi(p, candidates, n)
        full = float(np.sort(np.linalg.eigvalsh(dense_mixing_matrix(p, candidates, n)))[-2])
        assert abs(deflated - full) <= 1e-9
        assert 0.0 <= deflated <= 1.0


def _simplex_grid(c, step):
    ticks = round(1.0 / step)
    if c == 2:
        for a in range(ticks + 1):
            yield np.array([a, ticks - a], dtype=float) / ticks
    else:
        for a in range(ticks + 1):
            for b in range(ticks + 1 - a):
                yield np.array([a, b, ticks - a - b], dtype=float) / ticks


def _grid_xi_and_cost(candidates, costs, n, step):
    points = list(_simplex_grid(len(candidates), step))
    xis = np.empty(len(points))
    lin = np.empty(len(points))
    for k, p in enumerate(points):
        w = dense_mixing_matrix(p, candidates, n)
        lam = float(np.sort(np.linalg.eigvalsh(w))[-2])
        xis[k] = min(max(lam, 0.0), 1.0)
        lin[k] = float(costs @ p)
    return xis, lin


def _draw_tiny_instance(rng):
    """Random 3-candidate instance that some mixture actually connects."""
    while True:
        n = int(rng.integers(4, 7))
        topology = generate_topology(n, 10.0, int(rng.integers(0, 2**31)))
        pool = enumerate_candidates(topology, 2, n - 1)
        idx = rng.choice(len(pool), size=3, replace=False)
        candidates = [pool[i] for i in idx]
        costs = np.array([candidate_cost_l1(c, topology, ENERGY) for c in candidates])
        coarse_xi, _ = _grid_xi_and_cost(candidates, costs, n, step=0.05)
        if coarse_xi.min() <= 0.95:
            return topology, candidates, costs


def test_criterion_03_grid_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    started = time.monotonic()
    for _ in range(5):
        topology, candidates, costs = _draw_tiny_instance(rng)
        n = topology.n
        xis, lin = _grid_xi_and_cost(candidates, costs, n, step=0.01)
        for alpha in (0.0, 1e-4):
            grid_best = float(np.min(xis + alpha * lin))
            dist = optimize(candidates, costs, n, alpha=alpha)
            assert abs(dist.objective - grid_best) <= 1e-3, (
                f"alpha={alpha}: optimizer {dist.objective} vs grid {grid_best}"
            )
    assert time.monotonic() - started < 60.0


def test_criterion_04_subgradient_finite_difference():
    rng = np.random.default_rng(404)
    delta = 1e-6
    accepted = 0
    while accepted < 50:
        n = int(rng.integers(4, 10))
        topology = generate_topology(n, 20.0, int(rng.integers(0, 2**31)))
        candidates = enumerate_candidates(topology, 2, n)
        c = len(candidates)
        p = rng.dirichlet(np.ones(c)) + 0.1 / c
        p /= p.sum()
        deflated = mixing_matrix(p, candidates, n) - np.full((n, n), 1.0 / n)
        evals = np.linalg.eigvalsh(deflated)
        lam, gap = evals[-1], evals[-1] - evals[-2]
        if gap < 1e-3 or not 1e-3 < lam < 1.0 - 1e-3:
            continue  # keep only simple, unclipped top eigenvalues
        accepted += 1
        alpha = 1e-4 if accepted % 2 else 0.0
        costs = np.array([candidate_cost_l1(cd, topology, ENERGY) for cd in candidates])
        g = objective_subgradient(p, candidates, costs, alpha, n)
        for i in range(c):
            e = np.zeros(c)
            e[i] = delta
            fd = (
                xi(p + e, candidates, n)
                + alpha * costs @ (p + e)
                - xi(p - e, candidates, n)
                - alpha * costs @ (p - e)
            ) / (2 * delta)
            assert abs(g[i] - fd) <= 1e-4


def test_criterion_05_conservation_and_monotone_error(small_sweep):
    kept, _, per_alpha = small_sweep
    dist, _ = per_alpha[0.0]
    steps_taken = 0
    for r in range(RUNS):
        rng = np.random.default_rng(SIM_SEED + r)
        state = draw_initial_state(FIELD_NODES, INIT_LOW, INIT_HIGH, rng)
        initial = state
        initial_mean = float(np.mean(initial))
        err = relative_error(state, initial)
        t = 0
        while err >= THRESHOLD and t < MAX_ITERS:
            state = consensus_step(state, kept[sample_cluster(dist.p, rng)])
            t += 1
            steps_taken += 1
            assert abs(float(np.mean(state)) - initial_mean) <= 1e-9
            next_err = relative_error(state, initial)
            assert next_err <= err * (1.0 + 1e-12)
            err = next_err
        assert t < MAX_ITERS, f"run {r} never reached the threshold"
    assert steps_taken > 0


def test_criterion_06_geometric_error_bound(collinear_topology):
    candidates = (
        ClusterCandidate(head=0, members=(0, 1)),
        ClusterCandidate(head=1, members=(1, 2)),
    )
    costs = np.array(
        [candidate_cost_l1(c, collinear_topology, ENERGY) for c in candidates]
    )
    p = np.array([0.5, 0.5])
    xi_val = xi(p, candidates, 3)
    assert xi_val == pytest.approx(0.75, abs=1e-9)

    scenario = SimulationScenario(
        candidates=candidates,
        costs_l1=costs,
        p=p,
        n=3,
        init_low=INIT_LOW,
        init_high=INIT_HIGH,
        threshold=1e-300,  # never terminates: we want the full 30 slots
        max_iters=30,
    )
    averaged = monte_carlo(scenario, 10000, SIM_SEED)
    assert averaged.mean_errors.size == 31
    assert mse_bound_check(averaged, xi_val, float(averaged.mean_errors[0]))


def test_criterion_07_energy_iteration_tradeoff(small_sweep, large_sweep):
    for (_, _, per_alpha), alphas in (
        (small_sweep, SMALL_ALPHAS),
        (large_sweep, LARGE_ALPHAS),
    ):
        energies = [per_alpha[a][1].mean_energy_at_threshold for a in alphas]
        iterations = [per_alpha[a][1].mean_iterations_to_threshold for a in alphas]
        for lighter, heavier in zip(energies, energies[1:]):
            assert heavier <= lighter * 0.98, (
                f"energy {lighter} -> {heavier}: less than a 2% drop"
            )
        for faster, slower in zip(iterations, iterations[1:]):
            assert slower > faster


def test_criterion_08_one_shot_baseline(one_shot, small_sweep, large_sweep):
    _, _, dist, averaged = one_shot
    assert dist.xi <= 1e-6
    assert averaged.terminated_runs == RUNS
    assert averaged.mean_iterations_to_threshold == 1.0
    baseline = averaged.mean_energy_at_threshold

    cheaper_and_accurate = []
    for _, _, per_alpha in (small_sweep, large_sweep):
        for _, avg in per_alpha.values():
            cheaper_and_accurate.append(
                avg.mean_energy_at_threshold < baseline
                and avg.terminated_runs == RUNS
                and float(avg.mean_errors[-1]) <= 0.1
            )
    assert any(cheaper_and_accurate)


def test_criterion_09_infeasible_split_field():
    rng = np.random.default_rng(9)
    near = rng.uniform(0.0, FIELD_SIDE, size=(15, 2))
    far = rng.uniform(0.0, FIELD_SIDE, size=(15, 2)) + np.array([10 * FIELD_SIDE, 0.0])
    topology = Topology(np.vstack([near, far]))
    kept, costs = _prepared(topology, 2, 10)
    dist = optimize(kept, costs, topology.n, alpha=0.0)
    assert dist.feasible is False
    assert dist.xi >= 1.0 - 1e-6


def test_criterion_10_byte_identical_reruns(tmp_path):
    def run_into(out_dir):
        config = config_from_dict(
            {
                "n_nodes": 12,
                "area_side": 25.0,
                "topology_seed": 2,
                "cluster_size_min": 2,
                "cluster_size_max": 12,
                "alphas": [0.0, 1e-4],
                "runs": 50,
                "error_threshold": 0.1,
                "max_iterations": 5000,
                "sim_base_seed": 77,
                "output_dir": str(out_dir),
            }
        )
        assert run_sweep(config) == EXIT_OK
        return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}

    first = run_into(tmp_path / "first")
    second = run_into(tmp_path / "second")
    assert set(first) == set(second)
    assert any(name.endswith(".csv") for name in first)
    assert any(name.endswith(".json") for name in first)
    for name, blob in first.items():
        assert second[name] == blob, f"{name} differs between identical runs"

    summary = json.loads(first["summary.json"].decode())
    assert all(entry["feasible"] for entry in summary)
