"""Energy-aware cluster activation for randomized average consensus.

Pipeline: place nodes, enumerate candidate clusters around each head,
price each activation with a squared-distance energy model, optimize the
cluster activation probabilities to trade mixing speed against expected
energy, and verify the trade-off with Monte-Carlo simulation.
"""

from .candidates import (
    ClusterCandidate,
    build_weight_matrix,
    enumerate_candidates,
    prune_dominated,
)
from .energy import (
    EnergyParams,
    candidate_cost_l1,
    cost_bc,
    cost_fc,
    expected_cost,
    transmission_energy,
)
from .errors import ConfigurationError, NumericalError
from .optimizer import (
    ActivationDistribution,
    OptimizerOptions,
    mixing_matrix,
    objective_subgradient,
    optimize,
    project_simplex,
    symmetric_top_eigenpair,
    xi,
)
from .simulator import (
    AveragedTrace,
    SimulationScenario,
    SimulationTrace,
    consensus_step,
    draw_initial_state,
    monte_carlo,
    mse_bound_check,
    relative_error,
    run_trial,
    sample_cluster,
)
from .topology import Topology, generate_topology, load_topology, squared_distance_matrix

__version__ = "0.1.0"

__all__ = [
    "ActivationDistribution",
    "AveragedTrace",
    "ClusterCandidate",
    "ConfigurationError",
    "EnergyParams",
    "NumericalError",
    "OptimizerOptions",
    "SimulationScenario",
    "SimulationTrace",
    "Topology",
    "build_weight_matrix",
    "candidate_cost_l1",
    "consensus_step",
    "cost_bc",
    "cost_fc",
    "draw_initial_state",
    "enumerate_candidates",
    "expected_cost",
    "generate_topology",
    "load_topology",
    "mixing_matrix",
    "monte_carlo",
    "mse_bound_check",
    "objective_subgradient",
    "optimize",
    "project_simplex",
    "prune_dominated",
    "relative_error",
    "run_trial",
    "sample_cluster",
    "squared_distance_matrix",
    "symmetric_top_eigenpair",
    "transmission_energy",
    "xi",
]
