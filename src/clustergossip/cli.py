"""The sweep driver and result serialization, behind ``config.main``'s ``run`` and ``candidates``.

The driver enumerates, prices and prunes candidates once, then for each
regularization weight optimizes the activation distribution, simulates
the resulting scheme, and writes one CSV trace per weight plus a JSON
summary. Outputs are byte-identical across runs of the same config.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .candidates import (
    ClusterCandidate, EnergyParams, Topology, candidate_costs, enumerate_candidates,
    generate_topology, load_topology, prune_dominated,
)
# load_config and main are re-exported: perfbench/micro.py and traced_cli.py read them from cli
from .config import EXIT_INFEASIBLE, EXIT_OK, ExperimentConfig, load_config, main
from .errors import ConfigurationError
from .optimizer import optimize
from .simulator import AveragedTrace, SimulationScenario, monte_carlo

__all__ = ["prepare_pool", "run_sweep", "print_candidates", "write_trace_csv", "write_summary_json"]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(x))


def write_trace_csv(averaged_trace: AveragedTrace, alpha: float, path: Path) -> None:
    """Write one averaged trace as CSV, one row per iteration."""
    lines = ["alpha,iteration,mean_error,mean_energy"]
    for t in range(averaged_trace.mean_errors.size):
        lines.append(
            f"{_fmt(alpha)},{t},{_fmt(averaged_trace.mean_errors[t])},"
            f"{_fmt(averaged_trace.mean_energies[t])}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_json(results: list[dict[str, Any]], path: Path) -> None:
    """Write the per-alpha summary array."""
    path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")


def prepare_pool(
    topology: Topology, size_min: int, size_max: int | None, params: EnergyParams
) -> tuple[list[ClusterCandidate], np.ndarray, np.ndarray]:
    """Enumerate the candidates (``size_max`` None: all nodes), price each once, prune twins.

    Returns ``(enumerated, costs, kept_indices)``: ``costs[i]`` is the total
    activation energy of ``enumerated[i]``, and ``kept_indices`` lists the
    survivors of ``prune_dominated`` in enumeration order.
    """
    enumerated = enumerate_candidates(topology, size_min, size_max)
    costs = candidate_costs(enumerated, topology, params)
    position = {cand: i for i, cand in enumerate(enumerated)}
    kept = [position[cand] for cand in prune_dominated(enumerated, costs)]
    return enumerated, costs, np.array(kept, dtype=int)


def _config_pool(
    config: ExperimentConfig,
) -> tuple[Topology, list[ClusterCandidate], np.ndarray, np.ndarray]:
    """The config's topology followed by its ``prepare_pool`` output."""
    params = EnergyParams(eps_amp=config.eps_amp, e_elec=config.e_elec, k_bits=config.k_bits)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, as non-finite costs
        if config.topology_file is None:
            topology = generate_topology(config.n_nodes, config.area_side, config.topology_seed)
        else:
            topology = load_topology(config.topology_file)
        pool = prepare_pool(topology, config.cluster_size_min, config.cluster_size_max, params)
    if not np.all(np.isfinite(pool[1])):
        raise ConfigurationError(
            "candidate costs overflow: shrink area_side, the topology positions, "
            "eps_amp, e_elec or k_bits"
        )
    return (topology, *pool)


def run_sweep(config: ExperimentConfig) -> int:
    """Run the full alpha sweep; returns the process exit code."""
    topology, enumerated, all_costs, kept_indices = _config_pool(config)
    kept = [enumerated[i] for i in kept_indices]
    costs = all_costs[kept_indices]

    summary: list[dict[str, Any]] = []
    traces: list[tuple[AveragedTrace, float]] = []
    for alpha in (float(a) + 0.0 for a in config.alphas):  # + 0.0: -0.0 is written as 0.0
        result = optimize(kept, costs, topology.n, alpha=alpha, epsilon=config.epsilon)
        feasible = result.feasible  # an infeasible alpha is not simulated
        if feasible:
            scenario = SimulationScenario(
                candidates=tuple(kept),
                costs_l1=costs,
                p=result.p,
                n=topology.n,
                init_low=config.init_low,
                init_high=config.init_high,
                threshold=config.error_threshold,
                max_iters=config.max_iterations,
            )
            averaged = monte_carlo(scenario, config.runs, config.sim_base_seed)
            traces.append((averaged, alpha))
        summary.append({
            "alpha": alpha,
            "feasible": feasible,
            "xi": result.xi,
            "objective": result.objective,
            "expected_cost_l1": result.expected_cost_l1,
            "support": _support(result.p, kept) if feasible else [],
            "mean_iterations_to_threshold": (
                averaged.mean_iterations_to_threshold if feasible else None
            ),
            "mean_energy_at_threshold": averaged.mean_energy_at_threshold if feasible else None,
            "terminated_runs": averaged.terminated_runs if feasible else None,
            "lower_bound": result.lower_bound,
            "gap": result.gap,
            "iterations": result.iterations,
        })

    # Nothing is written before every alpha is solved and simulated, so a failing run leaves no
    # partial outputs.
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for averaged, alpha in traces:
        write_trace_csv(averaged, alpha, out_dir / f"trace_alpha={_fmt(alpha)}.csv")
    write_summary_json(summary, out_dir / "summary.json")
    return EXIT_OK if all(entry["feasible"] for entry in summary) else EXIT_INFEASIBLE


def _support(p: np.ndarray, kept: Sequence[Any]) -> list[dict[str, Any]]:
    rows = [
        {
            "head": cand.head,
            "members": list(cand.members),
            "probability": float(prob),
        }
        for prob, cand in zip(p, kept)
        if prob > 0.0
    ]
    rows.sort(key=lambda r: (-r["probability"], r["head"], r["members"]))
    return rows


def print_candidates(config: ExperimentConfig) -> int:
    """Print the config's candidate table, marking the kept ones; returns the exit code."""
    _, enumerated, costs, kept_indices = _config_pool(config)
    kept = set(kept_indices.tolist())

    print(f"{'kept':>4}  {'head':>4}  {'size':>4}  {'cost_l1':>12}  members")
    for i, (cand, cost) in enumerate(zip(enumerated, costs)):
        mark = "*" if i in kept else ""
        print(f"{mark:>4}  {cand.head:>4}  {cand.size:>4}  {cost:>12.4f}  {list(cand.members)}")
    print(f"{len(enumerated)} enumerated, {len(kept)} kept")
    return EXIT_OK
