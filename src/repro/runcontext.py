"""The ambient run context: all per-solve ambient state in one place.

The tracer, metrics registry, profiler, cancel token, budget guard, fault
plan, race checker and worker-session flag are the fields of one immutable
:class:`RunContext` behind one :class:`~contextvars.ContextVar`, so they
belong to the thread that set them: solves on several threads at once
keep separate state.  :class:`run_scope` is the only writer; the public
scopes (``tracing``, ``fault_scope``, ...) are one-line spellings over
it, and every guard reads the context once through
:func:`current_context`.  The thread backend runs each block in its own
copy of the submitting thread's context; a process worker's
``WorkerSession`` sets a fresh one per block (DESIGN.md, "Ambient run
context").  Stdlib only, so every layer can import it without a cycle.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:
    from .observability.metrics import MetricsRegistry
    from .observability.profiler import PhaseProfiler
    from .observability.tracer import Tracer
    from .resilience.faults import FaultPlan
    from .resilience.guard import BudgetGuard
    from .resilience.preempt import CancelToken
    from .runtime.racecheck import RaceChecker

__all__ = ["RunContext", "EMPTY_CONTEXT", "current_context", "run_scope"]


class RunContext(NamedTuple):
    """Ambient state of one solve; ``None`` (``False``) means off."""

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    profiler: PhaseProfiler | None = None
    token: CancelToken | None = None
    guard: BudgetGuard | None = None
    fault_plan: FaultPlan | None = None
    race_checker: RaceChecker | None = None
    in_session: bool = False


EMPTY_CONTEXT = RunContext()

_CONTEXT: ContextVar[RunContext] = ContextVar("repro_run_context",
                                              default=EMPTY_CONTEXT)

#: The current :class:`RunContext` — one call, the only read a guard makes.
current_context = _CONTEXT.get


class run_scope:
    """Run the enclosed block under the current context with ``fields``
    replaced (all of them, for a fresh context).

    ``with`` yields the value of the one field given, or the new context
    when several are given.  Leaving restores exactly the context that
    was current on entry, so scopes nest and unwind with their ``with``
    statements.
    """

    __slots__ = ("_fields", "_reset")

    def __init__(self, **fields: Any) -> None:
        self._fields = fields

    def __enter__(self) -> Any:
        ctx = _CONTEXT.get()._replace(**self._fields)
        self._reset = _CONTEXT.set(ctx)
        if len(self._fields) == 1:
            (value,) = self._fields.values()
            return value
        return ctx

    def __exit__(self, *exc: Any) -> bool:
        _CONTEXT.reset(self._reset)
        return False
