"""The package's public names: the union of its modules' ``__all__`` lists, and nothing else."""

import ast
from pathlib import Path

import numpy as np
import pytest

import clustergossip
from clustergossip import candidates, energy, errors, optimizer, simulator, topology
from clustergossip import (
    ActivationDistribution,
    AveragedTrace,
    ClusterCandidate,
    SimulationScenario,
    SimulationTrace,
    Topology,
)

MODULES = (candidates, energy, errors, optimizer, simulator, topology)

PUBLIC = {
    "ActivationDistribution", "AveragedTrace", "ClusterCandidate", "ConfigurationError",
    "EnergyParams", "NumericalError", "OptimizerOptions", "SimulationScenario",
    "SimulationTrace", "Topology", "build_weight_matrix", "candidate_cost_l1",
    "consensus_step", "cost_bc", "cost_fc", "draw_initial_state", "enumerate_candidates",
    "expected_cost", "generate_topology", "load_topology", "mixing_matrix", "monte_carlo",
    "mse_bound_check", "objective_subgradient", "optimize", "project_simplex",
    "prune_dominated", "relative_error", "run_trial", "sample_cluster",
    "squared_distance_matrix", "symmetric_top_eigenpair", "transmission_energy", "xi",
}


def test_package_all_is_the_union_of_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # no name is public in two modules
    assert sorted(clustergossip.__all__) == sorted(names)
    assert set(clustergossip.__all__) == PUBLIC


def test_every_public_name_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(clustergossip, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__


def test_benchmark_imports_from_the_package_resolve():
    source = Path(__file__).parents[1] / "perfbench" / "micro.py"
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "clustergossip"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not hasattr(clustergossip, name)] == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: Topology(np.array([[0.0, 0.0], [3.0, 4.0]])),
        lambda: ActivationDistribution(
            p=np.array([0.5, 0.5]), xi=0.5, expected_cost_l1=1.0, objective=0.5,
            feasible=True, lower_bound=0.5, gap=0.0, iterations=1,
        ),
        lambda: SimulationScenario(
            candidates=(ClusterCandidate(0, (0, 1)), ClusterCandidate(1, (0, 1))),
            costs_l1=[1.0, 2.0], p=[0.5, 0.5], n=2, init_low=0.0, init_high=1.0,
            threshold=0.1, max_iters=5,
        ),
        lambda: SimulationTrace(
            errors=np.array([1.0, 0.0]), energies=np.array([0.0, 1.0]),
            activations=np.array([0]), terminated_at=1,
        ),
        lambda: AveragedTrace(
            mean_errors=np.array([1.0, 0.0]), mean_energies=np.array([0.0, 1.0]), runs=1,
            terminated_runs=1, mean_iterations_to_threshold=1.0, mean_energy_at_threshold=1.0,
        ),
    ],
    ids=["Topology", "ActivationDistribution", "SimulationScenario", "SimulationTrace",
         "AveragedTrace"],
)
def test_array_holding_types_compare_by_identity_and_hash(make):
    """A type that holds arrays is equal only to itself, never raises on ==, and can key a set."""
    first, second = make(), make()
    assert first == first
    assert not first == second and first != second
    assert len({first, second, first}) == 2 and hash(first) == hash(first)
