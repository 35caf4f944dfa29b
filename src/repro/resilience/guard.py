"""Work/span budget guards over the cost accumulator.

A :class:`BudgetGuard` is a hard ceiling on the model work/span a solve
may consume.  It is ambient, like the cancel token — the guard field of
the run context: :func:`guard_scope` installs it and :func:`current_guard`
reads it.  Solver loops tick it at their loop heads, next to their
cancel-token checks, through a :class:`Meter` that debits what its
accumulator gained since the last tick — never more than the solve has
charged so far.  The engine tail then settles it
(:meth:`BudgetGuard.settle`) to the solve's exact cost before the final
Dijkstra and at the end.  The first debit that crosses a
ceiling raises :class:`~repro.resilience.errors.BudgetExceededError`,
which retry loops deliberately do not catch — spent work is not
refundable, so the error propagates straight to the graceful-degradation
layer in ``core.sssp.solve_sssp_resilient``.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext

from ..runcontext import current_context, run_scope
from ..runtime.metrics import Cost, CostAccumulator
from .errors import BudgetExceededError, InputValidationError


class BudgetGuard:
    """Mutable budget state shared by every stage of one solve.

    A ceiling of ``None`` or ``inf`` means no limit.  A negative or NaN
    ceiling raises :class:`InputValidationError` (a ``ValueError``): no
    spend compares greater than NaN, so a NaN budget would never trip.
    """

    __slots__ = ("max_work", "max_span", "spent_work", "spent_span")

    def __init__(self, max_work: float | None = None,
                 max_span: float | None = None) -> None:
        if max_work is not None and not max_work >= 0:
            raise InputValidationError(
                f"max_work must be a nonnegative number, got {max_work}")
        if max_span is not None and not max_span >= 0:
            raise InputValidationError(
                f"max_span must be a nonnegative number, got {max_span}")
        self.max_work = max_work
        self.max_span = max_span
        self.spent_work = 0.0
        self.spent_span = 0.0

    def debit(self, cost: Cost | CostAccumulator) -> None:
        """Charge ``cost`` against the budget; raise once it is breached."""
        self.spent_work += cost.work
        self.spent_span += cost.span_model
        over_work = self.max_work is not None and self.spent_work > self.max_work
        over_span = self.max_span is not None and self.spent_span > self.max_span
        if over_work or over_span:
            which = "work" if over_work else "span"
            raise BudgetExceededError(
                f"{which} budget exceeded "
                f"(work {self.spent_work:.3g}/{self.max_work}, "
                f"span {self.spent_span:.3g}/{self.max_span})",
                spent_work=self.spent_work, spent_span=self.spent_span,
                max_work=self.max_work, max_span=self.max_span)

    def mark(self) -> tuple[float, float]:
        """The spend so far, for a later :meth:`settle`."""
        return self.spent_work, self.spent_span

    def settle(self, mark: tuple[float, float],
               cost: Cost | CostAccumulator) -> None:
        """Set the spend to ``mark`` plus ``cost``, replacing the ticks
        debited since ``mark``; raise if that breaches a ceiling.  From a
        fresh guard the spend becomes ``cost`` itself, so a ceiling equal
        to a solve's cost never trips by rounding."""
        self.spent_work, self.spent_span = mark
        self.debit(cost)

    def remaining_work(self) -> float:
        if self.max_work is None:
            return float("inf")
        return max(self.max_work - self.spent_work, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BudgetGuard(work={self.spent_work:.3g}/{self.max_work}, "
                f"span={self.spent_span:.3g}/{self.max_span})")


class Meter:
    """Incremental bridge from one :class:`CostAccumulator` to a guard.

    Stages that loop call :meth:`tick` at their loop heads; it debits
    only the delta accumulated since the previous tick.  It does not know
    about other accumulators: a nested local folds into its parent, so
    Meters on both would debit the nested work twice.  Keep one Meter per
    solve path — an inner loop passes its Meter down rather than building
    a second one.  A ``None`` guard makes every call a no-op, keeping hook
    sites one-liners.
    """

    __slots__ = ("guard", "acc", "_work", "_span", "_span_model")

    def __init__(self, guard: BudgetGuard | None,
                 acc: CostAccumulator) -> None:
        self.guard = guard
        self.acc = acc
        self._work = acc.work
        self._span = acc.span
        self._span_model = acc.span_model

    def tick(self) -> None:
        if self.guard is None:
            return
        delta = Cost(self.acc.work - self._work,
                     self.acc.span - self._span,
                     self.acc.span_model - self._span_model)
        self._work = self.acc.work
        self._span = self.acc.span
        self._span_model = self.acc.span_model
        self.guard.debit(delta)


def current_guard() -> BudgetGuard | None:
    """The guard installed by the innermost :func:`guard_scope`, if any."""
    return current_context().guard


def guard_scope(guard: BudgetGuard | None) -> AbstractContextManager:
    """Install ``guard`` as the ambient budget for the enclosed block;
    yields ``guard``.  ``None`` keeps the outer guard, as in
    :func:`~repro.resilience.preempt.cancel_scope`."""
    return nullcontext() if guard is None else run_scope(guard=guard)
