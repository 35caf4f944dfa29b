"""Work/span budget guards over the cost accumulator.

A :class:`BudgetGuard` is a hard ceiling on the model work/span a solve
may consume.  Stages *debit* it with the cost deltas they accumulate (the
library's nested ``CostAccumulator`` locals only fold into their parent at
stage boundaries, so the guard keeps its own global running total); the
first debit that crosses a ceiling raises
:class:`~repro.resilience.errors.BudgetExceededError`, which retry loops
deliberately do not catch — spent work is not refundable, so the error
propagates straight to the graceful-degradation layer in
``core.sssp.solve_sssp_resilient``.
"""

from __future__ import annotations

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

    def debit(self, cost: Cost) -> None:
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

    def remaining_work(self) -> float:
        if self.max_work is None:
            return float("inf")
        return max(self.max_work - self.spent_work, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BudgetGuard(work={self.spent_work:.3g}/{self.max_work}, "
                f"span={self.spent_span:.3g}/{self.max_span})")


class Meter:
    """Incremental bridge from one :class:`CostAccumulator` to a guard.

    Stages that loop call :meth:`tick` once per iteration; it debits only
    the delta accumulated since the previous tick, so nested locals never
    double-charge the guard.  A ``None`` guard makes every call a no-op,
    keeping hook sites one-liners.
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
