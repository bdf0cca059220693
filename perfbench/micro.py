"""Per-layer microbenchmarks at a workload's own optimised p and kept pool.

Usage: python3 perfbench/micro.py --config CFG --summary SUMMARY [--seconds S]

Rebuilds the kept candidate pool from the config with the package's public
functions, in the order ``clustergossip run`` uses them, takes p from the
last feasible entry of SUMMARY (a ``summary.json`` the CLI wrote for CFG),
and times single calls into the optimizer and simulator layers. Each
function is called once untimed to warm up, then timed in batches; the
figure is the median of the batches' per-call times. Prints one JSON object
mapping metric name to value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from clustergossip import (
    EnergyParams,
    candidate_cost_l1,
    consensus_step,
    draw_initial_state,
    enumerate_candidates,
    generate_topology,
    mixing_matrix,
    objective_subgradient,
    project_simplex,
    prune_dominated,
    relative_error,
    sample_cluster,
    xi,
)
from clustergossip.cli import load_config

BATCHES = 7


def per_call(fn, budget_s: float) -> float:
    """Median per-call seconds over BATCHES batches filling about budget_s."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    calls = max(1, int(budget_s / BATCHES / once))
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--seconds", type=float, default=2.0, help="total timing budget")
    args = parser.parse_args()

    config = load_config(args.config)
    topo = generate_topology(config.n_nodes, config.area_side, config.topology_seed)
    params = EnergyParams(eps_amp=config.eps_amp, e_elec=config.e_elec, k_bits=config.k_bits)
    enumerated = enumerate_candidates(topo, config.cluster_size_min, config.size_max())
    kept = prune_dominated(enumerated, [candidate_cost_l1(c, topo, params) for c in enumerated])
    costs = np.array([candidate_cost_l1(c, topo, params) for c in kept])
    n = topo.n

    with open(args.summary, encoding="utf-8") as fh:
        entry = [e for e in json.load(fh) if e["feasible"]][-1]
    index = {(c.head, c.members): i for i, c in enumerate(kept)}
    p = np.zeros(len(kept))
    for row in entry["support"]:
        p[index[(row["head"], tuple(row["members"]))]] = row["probability"]
    alpha = entry["alpha"]

    budget = args.seconds / 7
    g = objective_subgradient(p, kept, costs, alpha, n)
    step = p - 0.1 * g

    rng = np.random.default_rng(config.sim_base_seed)
    initial = draw_initial_state(n, config.init_low, config.init_high, rng)
    drawn = [kept[sample_cluster(p, rng)] for _ in range(256)]
    cursor = [0]

    def one_step():
        cursor[0] = (cursor[0] + 1) % len(drawn)
        return consensus_step(initial, drawn[cursor[0]])

    moved = one_step()
    out = {
        "optimizer.mixing_matrix_ms": 1e3 * per_call(lambda: mixing_matrix(p, kept, n), budget),
        "optimizer.xi_ms": 1e3 * per_call(lambda: xi(p, kept, n), budget),
        "optimizer.subgradient_ms": 1e3 * per_call(
            lambda: objective_subgradient(p, kept, costs, alpha, n), budget
        ),
        "optimizer.project_simplex_us": 1e6 * per_call(lambda: project_simplex(step), budget),
        "simulator.sample_cluster_us": 1e6 * per_call(lambda: sample_cluster(p, rng), budget),
        "simulator.consensus_step_us": 1e6 * per_call(one_step, budget),
        "simulator.relative_error_us": 1e6 * per_call(
            lambda: relative_error(moved, initial), budget
        ),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
