"""flip: request planner and deterministic fabric simulator for in-network
IoT data aggregation."""

from .control import CommandResult, Session
from .dataplane import Fabric, StatsReport
from .dsl import (
    CoverageMap,
    OpKind,
    Request,
    RequestMode,
    Requirements,
    TaskGraph,
    canonical,
    expand_sources,
    load_coverage,
    parse_request,
    translate_coverage,
)
from .epb import ConfigStore, Engine, EngineConfig
from .errors import FlipError, RejectedByDelay
from .harness import (
    ExperimentReport,
    Workload,
    build_experiment_topology,
    export_report,
    requests_r1_r9,
    run_comparison,
    run_suite,
)
from .packets import Matrix, PacketRecord, Scalar, Vector
from .planner import DatapathPlan, FlowRule, OpPlacement, SteinerTree, plan, steiner_tree
from .topology import Link, NodeKind, Topology, load_topology, load_topology_file

__version__ = "0.1.0"

__all__ = [
    "CommandResult",
    "ConfigStore",
    "CoverageMap",
    "DatapathPlan",
    "Engine",
    "EngineConfig",
    "ExperimentReport",
    "Fabric",
    "FlipError",
    "FlowRule",
    "Link",
    "Matrix",
    "NodeKind",
    "OpKind",
    "OpPlacement",
    "PacketRecord",
    "RejectedByDelay",
    "Request",
    "RequestMode",
    "Requirements",
    "Scalar",
    "Session",
    "StatsReport",
    "SteinerTree",
    "TaskGraph",
    "Topology",
    "Vector",
    "Workload",
    "build_experiment_topology",
    "canonical",
    "expand_sources",
    "export_report",
    "load_coverage",
    "load_topology",
    "load_topology_file",
    "parse_request",
    "plan",
    "requests_r1_r9",
    "run_comparison",
    "run_suite",
    "steiner_tree",
    "translate_coverage",
]
