"""Experiment configuration, the sweep driver, and result serialization.

The driver enumerates and prunes candidates once, then for each
regularization weight optimizes the activation distribution, simulates
the resulting scheme, and writes one CSV trace per weight plus a JSON
summary. Outputs are byte-identical across runs of the same config.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .candidates import ClusterCandidate, check_sizes, enumerate_candidates, prune_dominated
from .energy import EnergyParams, candidate_costs
from .errors import ConfigurationError, NumericalError, is_finite_number, read_json_object, show
from .optimizer import MIN_EPSILON, optimize
from .simulator import AveragedTrace, SimulationScenario, check_init_range, monte_carlo
from .topology import Topology, generate_topology, load_topology

__all__ = [
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "prepare_pool",
    "run_sweep",
    "write_trace_csv",
    "write_summary_json",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_IO_ERROR = 3
EXIT_NUMERICAL_ERROR = 4
EXIT_INTERNAL_ERROR = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's worth of settings; defaults give a 30-node demo field."""

    n_nodes: int = 30
    area_side: float = 50.0
    topology_seed: int = 7
    topology_file: str | None = None
    cluster_size_min: int = 2
    cluster_size_max: int | None = None
    alphas: tuple[float, ...] = (0.0, 4e-5, 8e-5)
    epsilon: float = 1e-2
    runs: int = 1000
    error_threshold: float = 0.1
    max_iterations: int = 10000
    sim_base_seed: int = 1000
    eps_amp: float = 1.0
    e_elec: float = 0.0
    k_bits: float = 1.0
    init_low: float = 0.0
    init_high: float = 30.0
    output_dir: str = "results"

    def __post_init__(self) -> None:
        """Store a list of alphas as a tuple, then check every rule (``replace`` runs this too)."""
        if isinstance(self.alphas, list):
            object.__setattr__(self, "alphas", tuple(self.alphas))

        def fail(key: str, message: str) -> None:
            raise ConfigurationError(f"config key '{key}': {message}")

        for field in fields(self):
            value = getattr(self, field.name)
            kind, _, optional = field.type.partition(" | ")
            is_kind, noun = _TYPE_RULES[kind]
            if not is_kind(value) and not (optional and value is None):
                fail(field.name, f"must be {noun}, got {show(value)}")
        for key, least in _AT_LEAST.items():
            if getattr(self, key) < least:
                fail(key, f"must be >= {least}, got {show(getattr(self, key))}")
        for key in ("area_side", "error_threshold"):
            if getattr(self, key) <= 0:
                fail(key, f"must be positive, got {show(getattr(self, key))}")
        if self.max_iterations >= 2**63:  # monte_carlo keeps slot counts as int64
            fail("max_iterations", f"must be < 2**63, got {show(self.max_iterations)}")
        if self.n_nodes > 2**29:  # numpy refuses arrays of 2**63 bytes; d_sq's temporary is 16 n^2
            fail("n_nodes", f"must be <= 2**29, got {show(self.n_nodes)}")
        if not self.output_dir or "\0" in self.output_dir:
            fail("output_dir", f"must be a nonempty path with no NUL, got {self.output_dir!r}")
        if self.topology_file is None:  # a file's node count is known once it is loaded
            check_sizes(self.n_nodes, self.cluster_size_min, self.cluster_size_max)
        if len(self.alphas) == 0:
            fail("alphas", "must be a nonempty list")
        if any(a < 0 for a in self.alphas):
            fail("alphas", f"must all be >= 0, got {list(self.alphas)}")
        if len(set(map(float, self.alphas))) < len(self.alphas):  # as floats: 0.0 == -0.0
            fail("alphas", f"must not repeat a value, got {list(self.alphas)}")
        if not MIN_EPSILON <= self.epsilon < 1:
            fail("epsilon", f"must lie in [{MIN_EPSILON}, 1), got {self.epsilon}")
        check_init_range(self.init_low, self.init_high)

    def size_max(self) -> int:
        """Largest cluster size of a drawn field, as ``check_sizes`` resolves it for ``n_nodes``."""
        if self.topology_file is not None:  # the file's node count, not n_nodes, judges the sizes
            raise ConfigurationError("topology_file is set: call check_sizes(topology.n, ...)")
        return check_sizes(self.n_nodes, self.cluster_size_min, self.cluster_size_max)


# The check and its noun for each ExperimentConfig annotation; "X | None" also admits None.
_TYPE_RULES = {
    "int": (lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer"),
    "float": (is_finite_number, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple[float, ...]": (
        lambda value: isinstance(value, tuple) and all(map(is_finite_number, value)),
        "a list of finite numbers",
    ),
}

# The least value of each key that has one.
_AT_LEAST = {
    "topology_seed": 0, "sim_base_seed": 0, "n_nodes": 2, "runs": 1,
    "max_iterations": 1, "eps_amp": 0, "e_elec": 0, "k_bits": 0,
}


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build a config from a plain dict of overrides; unknown keys are rejected."""
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return ExperimentConfig(**data)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a JSON config file; unspecified keys take the defaults."""
    return config_from_dict(read_json_object(path, "config"))


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


def _cmd_run(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.output_dir is not None:
        config = replace(config, output_dir=args.output_dir)
    return run_sweep(config)


def _cmd_validate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if config.topology_file is not None:  # loaded and size-checked as run does; no field is drawn
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing distances pass, like costs
            n = load_topology(config.topology_file).n
        check_sizes(n, config.cluster_size_min, config.cluster_size_max)
    print(f"config OK: {args.config} ({len(config.alphas)} alpha value(s))")
    return EXIT_OK


def _cmd_candidates(config: ExperimentConfig, args: argparse.Namespace) -> int:
    _, enumerated, costs, kept_indices = _config_pool(config)
    kept = set(kept_indices.tolist())

    print(f"{'kept':>4}  {'head':>4}  {'size':>4}  {'cost_l1':>12}  members")
    for i, (cand, cost) in enumerate(zip(enumerated, costs)):
        mark = "*" if i in kept else ""
        print(f"{mark:>4}  {cand.head:>4}  {cand.size:>4}  {cost:>12.4f}  {list(cand.members)}")
    print(f"{len(enumerated)} enumerated, {len(kept)} kept")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustergossip",
        description="Energy-aware cluster activation for randomized average consensus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to JSON config")

    run = sub.add_parser("run", parents=[config], help="run the full alpha sweep and write outputs")
    run.add_argument("--output-dir", default=None, help="override output directory")
    run.set_defaults(handler=_cmd_run)
    sub.add_parser(
        "validate", parents=[config], help="parse and constraint-check a config"
    ).set_defaults(handler=_cmd_validate)
    sub.add_parser(
        "candidates", parents=[config], help="print the candidate table"
    ).set_defaults(handler=_cmd_candidates)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as EXIT_INFEASIBLE.
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    try:
        return args.handler(load_config(args.config), args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # an allocation the OS refused: the config asked for too much
        print(f"out of memory: {exc}; lower n_nodes, cluster_size_max or runs", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except Exception as exc:  # a bug, not a bad input: keep the traceback, but not exit 1
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
