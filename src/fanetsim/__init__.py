"""Throughput-maximizing routing, power allocation, and link selection for UAV relay networks."""

from .model import (
    ChannelParams,
    CoincidentNodesError,
    Node,
    Topology,
    build_topology,
    channel_gain,
    distance,
    link_capacity,
    noise_density_from_dbm_per_hz,
    reference_gain_from_frequency,
)
from .routing import DisconnectedTopologyError, RoutingTree, TreeValidationReport, build_spt, validate_tree
from .power import AllocationError, PowerAllocation, allocate_power, network_throughput
from .linksel import (
    Candidate,
    CandidateSet,
    ConvergenceError,
    RelaxedLinkMatrix,
    SolverConfig,
    barrier_objective,
    build_candidates,
    gradient_hessian,
    newton_refine,
    round_and_update,
)
from .oracle import OracleResult, grid_power_oracle, tree_enum_oracle
from .harness import (
    ConfigError,
    PipelineRow,
    PlacementError,
    ScenarioConfig,
    SweepResult,
    generate_scenario,
    run_pipeline,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "CoincidentNodesError",
    "Node",
    "Topology",
    "build_topology",
    "channel_gain",
    "distance",
    "link_capacity",
    "noise_density_from_dbm_per_hz",
    "reference_gain_from_frequency",
    "DisconnectedTopologyError",
    "RoutingTree",
    "TreeValidationReport",
    "build_spt",
    "validate_tree",
    "AllocationError",
    "PowerAllocation",
    "allocate_power",
    "network_throughput",
    "Candidate",
    "CandidateSet",
    "ConvergenceError",
    "RelaxedLinkMatrix",
    "SolverConfig",
    "barrier_objective",
    "build_candidates",
    "gradient_hessian",
    "newton_refine",
    "round_and_update",
    "OracleResult",
    "grid_power_oracle",
    "tree_enum_oracle",
    "ConfigError",
    "PipelineRow",
    "PlacementError",
    "ScenarioConfig",
    "SweepResult",
    "generate_scenario",
    "run_pipeline",
    "sweep",
]
