"""Work-span accounting for the binary-forking model.

The paper analyses every algorithm in the binary-forking model [Blelloch et
al., SPAA 2020]: *work* is the total number of primitive operations executed
across all processors and *span* (depth) is the length of the longest chain
of sequential dependencies.  This module provides the bookkeeping objects the
rest of the library charges against.

Two span tracks are kept side by side:

``span``
    The span of the execution as we actually realised it, e.g. a multisource
    reachability call contributes one ``O(log n)`` term per BFS round it ran.

``span_model``
    The span with black-box subroutines charged at their *published* bounds
    (Jambulapati et al. reachability and Cao et al. ASSSP both have span
    ``n^(1/2+o(1))``).  This is the track the paper's theorem statements
    compose, so shape experiments (EXPERIMENTS.md) read this one.

For non-black-box primitives the two tracks receive identical charges.

Charging
--------
A primitive step charges its model formula's float pair through
:meth:`CostAccumulator.charge`, ``acc.charge(*model.pack_ws(k))``: one
call, no :class:`Cost` built.  :meth:`CostAccumulator.charge_cost` folds
real :class:`Cost` objects (a local accumulator's snapshot, a result's
``cost``).  Both add ``work``, ``span`` and ``span_model`` in that order,
so one step charged either way leaves bit-identical totals.  Totals over
parallel branches add left to right in an explicit loop, never with the
builtin ``sum()``, whose float result differs between Python 3.11 and
3.12 (3.12 compensates the rounding).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Cost:
    """An immutable (work, span) pair.

    ``span_model`` defaults to ``span`` so ordinary primitives only quote one
    number.  Costs compose sequentially with ``+`` (work adds, spans add) and
    in parallel with ``|`` (work adds, spans max).

    A frozen, slotted dataclass, which gives it equality, hash, repr and
    pickling, with a hand-written ``__init__``: it resolves the
    ``span_model`` default itself instead of in a ``__post_init__``, which
    builds one 1.4x faster with all three fields given and 2.8x with the
    default.  Snapshots and results still build one; primitive steps build
    none (module docstring).
    """

    work: float = 0.0
    span: float = 0.0
    span_model: float | None = None

    def __init__(self, work: float = 0.0, span: float = 0.0,
                 span_model: float | None = None) -> None:
        _setattr(self, "work", work)
        _setattr(self, "span", span)
        _setattr(self, "span_model",
                 span if span_model is None else span_model)

    def __add__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return Cost(
            self.work + other.work,
            self.span + other.span,
            self.span_model + other.span_model,
        )

    def __or__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return Cost(
            self.work + other.work,
            max(self.span, other.span),
            max(self.span_model, other.span_model),
        )

    def scaled(self, k: float) -> "Cost":
        """Sequential repetition: ``k`` rounds of this cost."""
        return Cost(self.work * k, self.span * k, self.span_model * k)

    @staticmethod
    def parallel_all(costs: "list[Cost]") -> "Cost":
        """Compose ``costs`` as parallel siblings (work sums, span maxes)."""
        work: float = 0
        for c in costs:  # left to right, not sum(): see the module docstring
            work += c.work
        span = max((c.span for c in costs), default=0.0)
        span_model = max((c.span_model for c in costs), default=0.0)
        return Cost(work, span, span_model)

    @property
    def parallelism(self) -> float:
        """Work over span — the model's available speed-up.  Divided as
        Python floats: numpy scalars warn on overflow where a Python
        float quietly gives ``inf``."""
        if self.span_model > 0:
            return float(self.work) / float(self.span_model)
        return float("inf")


ZERO = Cost(0.0, 0.0)


class CostAccumulator:
    """Mutable running (work, span) totals for a sequential region.

    Algorithms thread one accumulator through their sequential control flow
    and call :meth:`charge` after each parallel step with that step's cost.
    Genuinely parallel fan-out of heterogeneous sub-computations uses
    :meth:`fork` to give each branch a private accumulator and
    :meth:`join_parallel` to fold the branches back in (work sums, span
    maxes, plus an ``O(log k)`` forking term).
    """

    __slots__ = ("work", "span", "span_model", "stages")

    def __init__(self) -> None:
        self.work = 0.0
        self.span = 0.0
        self.span_model = 0.0
        self.stages: dict[str, Cost] = {}

    def charge(self, work: float, span: float | None = None,
               span_model: float | None = None) -> None:
        """Add ``work`` and ``span`` (defaults: span=work for scalar steps).

        Raises ``ValueError`` for a negative or NaN amount, which would
        corrupt every later total.
        """
        if span is None:
            span = work
        if span_model is None:
            span_model = span
        if not (work >= 0 and span >= 0 and span_model >= 0):
            raise ValueError("costs must be nonnegative")
        self.work += work
        self.span += span
        self.span_model += span_model

    def charge_cost(self, cost: Cost) -> None:
        self.work += cost.work
        self.span += cost.span
        self.span_model += cost.span_model

    def merge_stages_from(self, other: "CostAccumulator") -> None:
        """Fold another accumulator's stage buckets into this one."""
        for name, cost in other.stages.items():
            self.stages[name] = self.stages.get(name, ZERO) + cost

    def fork(self) -> "CostAccumulator":
        """A fresh accumulator for one branch of a parallel region."""
        return CostAccumulator()

    @contextmanager
    def stage(self, name: str):
        """Attribute everything charged inside the block to stage ``name``.

        Stage totals accumulate across repeated entries (e.g. one bucket per
        subroutine across all improvement iterations) and are reported by
        the analysis breakdown tooling.  Nesting double-counts by design —
        tag disjoint leaf regions only.
        """
        w0, s0, m0 = self.work, self.span, self.span_model
        try:
            yield self
        finally:
            delta = Cost(self.work - w0, self.span - s0,
                         self.span_model - m0)
            prev = self.stages.get(name, ZERO)
            self.stages[name] = prev + delta

    def join_parallel(self, branches: "list[CostAccumulator]",
                      fork_span: float = 0.0) -> None:
        """Fold parallel ``branches`` back in: work sums, spans max.

        ``fork_span`` is the cost of spawning the branches, typically
        ``O(log k)`` for ``k`` branches in the binary-forking model.
        """
        work: float = 0
        for b in branches:  # left to right, not sum(): see the module docstring
            work += b.work
        self.work += work
        self.span += max((b.span for b in branches), default=0.0) + fork_span
        self.span_model += (
            max((b.span_model for b in branches), default=0.0) + fork_span
        )

    def snapshot(self) -> Cost:
        return Cost(self.work, self.span, self.span_model)

    @property
    def parallelism(self) -> float:
        return self.snapshot().parallelism

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CostAccumulator(work={self.work:.3g}, span={self.span:.3g}, "
                f"span_model={self.span_model:.3g})")
