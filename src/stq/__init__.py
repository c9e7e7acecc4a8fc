"""Planning and desk-scale simulation of spacetime quantum tasks.

The package covers four task families over causal diamonds in Minkowski
space: localize-exclude (make a secret readable in every authorized region
and provably absent from every excluded one), state assembly, summoning in
its call/return variants, and party-independent transfer.  `feasibility`
decides whether a task admits a protocol, `planner` emits one as an explicit
event schedule, and `engine` runs that schedule on an exact density-matrix
simulator to certify reconstruction and exclusion numerically.
"""

from .geometry import (Box, Diamond, Point, Region, causal_leq, connected,
                       escape_exists, extract_escape_path, from_lightcone,
                       point, region_in_future, to_lightcone,
                       verify_witness_curve)
from .model import (TaskError, TaskFormatError, TaskSpec,
                    embed_access_structure, fixture, fixture_names,
                    load_task, parse_task, serialize_task)
from .schemes import CostReport, scheme_cost
from .feasibility import Verdict, Violation, check_task
from .planner import Plan, PlanningError, Unsupported, plan_task
from .engine import (CollectorResult, EngineError, ScenarioResult,
                     SimulationReport, pit_cheat_chi_probability, simulate,
                     validate_plan)

__version__ = "0.1.0"

__all__ = [
    "Box", "CollectorResult", "CostReport", "Diamond", "EngineError",
    "Plan", "PlanningError", "Point", "Region", "ScenarioResult",
    "SimulationReport", "TaskError", "TaskFormatError", "TaskSpec",
    "Unsupported", "Verdict", "Violation", "causal_leq", "check_task",
    "connected", "embed_access_structure", "escape_exists",
    "extract_escape_path", "fixture", "fixture_names", "from_lightcone",
    "load_task", "parse_task", "pit_cheat_chi_probability", "plan_task",
    "point", "region_in_future", "scheme_cost", "serialize_task",
    "simulate", "to_lightcone", "validate_plan", "verify_witness_curve",
]
