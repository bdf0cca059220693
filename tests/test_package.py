"""The package's public names: the union of its modules' ``__all__`` lists, and nothing else."""

import ast
from pathlib import Path

import clustergossip
from clustergossip import candidates, energy, errors, optimizer, simulator, topology

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
