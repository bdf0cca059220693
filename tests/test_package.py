"""The package's public names: the union of its modules' ``__all__`` lists, and nothing else."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clustergossip
from clustergossip import candidates, errors, optimizer, simulator, topology
from clustergossip import (
    ActivationDistribution,
    AveragedTrace,
    ClusterCandidate,
    SimulationScenario,
    Topology,
)
from reference import SimulationTrace

MODULES = (candidates, errors, optimizer, simulator, topology)

PUBLIC = {
    "ActivationDistribution", "AveragedTrace", "ClusterCandidate", "ConfigurationError",
    "EnergyParams", "NumericalError", "SimulationScenario", "Topology",
    "candidate_cost_l1", "consensus_step", "draw_initial_state", "enumerate_candidates",
    "generate_topology", "load_topology", "mixing_matrix", "monte_carlo",
    "objective_subgradient", "optimize", "project_simplex", "prune_dominated", "relative_error",
    "sample_cluster", "xi",
}


def test_package_all_is_the_union_of_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # no name is public in two modules
    assert sorted(clustergossip.__all__) == sorted(names)
    assert set(clustergossip.__all__) == PUBLIC


def test_modules_lists_every_library_module():
    """A module missing from ``_MODULES`` would keep its names out of the package unnoticed;
    only the command line's ``config`` and ``cli``, ``__init__`` and ``__main__`` stay out."""
    files = Path(clustergossip.__file__).parent.glob("*.py")
    library = {path.stem for path in files} - {"__init__", "__main__", "config", "cli"}
    assert sorted(clustergossip._MODULES) == sorted(library)


def test_import_loads_nothing_until_a_public_name_is_looked_up():
    """``import clustergossip`` loads no submodule and no numpy; the first lookup, even of an
    unknown name, loads the modules, and ``import *`` then gives exactly the public names."""
    code = (
        "import json, sys, clustergossip\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('clustergossip'))\n"
        "unknown = hasattr(clustergossip, 'OptimizerOptions')\n"
        "names = {}\n"
        "exec('from clustergossip import *', names)\n"
        "print(json.dumps([loaded, unknown, sorted(set(names) - {'__builtins__'})]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clustergossip.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [["clustergossip"], False, sorted(PUBLIC)]


@pytest.mark.parametrize("name", ["no_such_name", "OptimizerOptions", "_private", "__wrapped__"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(clustergossip, name)


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
