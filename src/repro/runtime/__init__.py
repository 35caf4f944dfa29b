"""Binary-forking work-span runtime: cost model, primitives, sets, RNG.

This subpackage is the substrate every algorithm in :mod:`repro` runs on.
See DESIGN.md ("Substitutions") for how it stands in for parallel hardware.
"""

from .metrics import Cost, CostAccumulator, ZERO
from .model import lg
from .pset import SetVector
from .racecheck import (
    RaceChecker,
    RaceReport,
    current_race_checker,
    race_checking,
    race_read,
    race_write,
)
from .rng import derive_seed, geometric_priorities, make_rng, priority_cap
from .executor import ForkJoinPool
from .backends import (
    BACKEND_NAMES,
    DegradationLadder,
    Demotion,
    ExecutionBackend,
    ProcessForkJoinPool,
    SerialBackend,
    WorkerLoss,
    resolve_backend,
)
from . import primitives

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessForkJoinPool",
    "DegradationLadder",
    "Demotion",
    "WorkerLoss",
    "resolve_backend",
    "RaceChecker",
    "RaceReport",
    "current_race_checker",
    "race_checking",
    "race_read",
    "race_write",
    "Cost",
    "CostAccumulator",
    "ZERO",
    "lg",
    "SetVector",
    "derive_seed",
    "geometric_priorities",
    "make_rng",
    "priority_cap",
    "ForkJoinPool",
    "primitives",
]
