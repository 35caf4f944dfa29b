"""repro — Parallel Shortest Paths with Negative Edge Weights (SPAA 2022).

A full reproduction of Cao, Fineman & Russell's parallel Goldberg scaling
algorithm: single-source shortest paths with integer (possibly negative)
edge weights in ``Õ(m·√n·log N)`` work and ``n^(5/4+o(1))·log N`` span,
built on two distance-limited SSSP subroutines (§3, §4), executed on a
binary-forking work-span cost-model runtime.

Quick start::

    from repro import DiGraph, solve_sssp
    g = DiGraph.from_edges(3, [(0, 1, 4), (1, 2, -7), (0, 2, 1)])
    res = solve_sssp(g, source=0)
    res.dist          # array([ 0.,  4., -3.])

See README.md, DESIGN.md and EXPERIMENTS.md.
"""

from . import (
    analysis,
    assp,
    baselines,
    core,
    dag01,
    graph,
    limited,
    reach,
    resilience,
    runtime,
)
from .core import (
    REFERENCE_ENGINE,
    SsspResult,
    engine_names,
    get_sssp_engine,
    solve_sssp,
    solve_sssp_resilient,
)
from .dag01 import Dag01Result, dag01_limited_sssp
from .graph import DiGraph
from .limited import LimitedSpResult, limited_sssp
from .resilience import (
    BudgetExceededError,
    BudgetGuard,
    CancelledError,
    CancelToken,
    Certificate,
    CheckpointError,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    InputValidationError,
    NegativeCycleError,
    ReproError,
    RetryExhaustedError,
    RetryPolicy,
    VerificationError,
    WorkerPoolError,
)
from .runtime import (
    Cost,
    CostAccumulator,
    DegradationLadder,
    ForkJoinPool,
    ProcessForkJoinPool,
    SerialBackend,
)

__version__ = "1.0.0"

__all__ = [
    "solve_sssp",
    "solve_sssp_resilient",
    "SsspResult",
    "REFERENCE_ENGINE",
    "engine_names",
    "get_sssp_engine",
    "dag01_limited_sssp",
    "Dag01Result",
    "limited_sssp",
    "LimitedSpResult",
    "DiGraph",
    "Cost",
    "CostAccumulator",
    "ReproError",
    "InputValidationError",
    "VerificationError",
    "RetryExhaustedError",
    "BudgetExceededError",
    "NegativeCycleError",
    "CancelledError",
    "DeadlineExceededError",
    "CheckpointError",
    "Deadline",
    "CancelToken",
    "Certificate",
    "FaultPlan",
    "RetryPolicy",
    "BudgetGuard",
    "WorkerPoolError",
    "ForkJoinPool",
    "SerialBackend",
    "ProcessForkJoinPool",
    "DegradationLadder",
    "analysis",
    "assp",
    "baselines",
    "core",
    "dag01",
    "graph",
    "limited",
    "reach",
    "resilience",
    "runtime",
    "__version__",
]
