"""Resilience subsystem: the library as a self-checking solver.

Four pieces (DESIGN.md "Robustness & verification"):

* :mod:`~repro.resilience.errors` — structured exception taxonomy plus the
  :class:`Certificate` attached to every public result;
* :mod:`~repro.resilience.faults` — a deterministic fault-injection plane
  (:class:`FaultPlan`) installed by :func:`fault_scope` for the solver's
  hook points, so tests can prove each verifier catches its fault class;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, the certified
  retry loop with seed escalation and per-attempt telemetry;
* :mod:`~repro.resilience.guard` — :class:`BudgetGuard` work/span ceilings,
  installed ambiently by :func:`guard_scope` and ticked at solver loop
  heads, feeding the graceful Bellman–Ford degradation in
  :func:`repro.core.sssp.solve_sssp_resilient`;
* :mod:`~repro.resilience.preempt` — :class:`Deadline` / :class:`CancelToken`
  cooperative preemption, checked at phase boundaries and inside the
  backends' ``map_blocks`` calls;
* :mod:`~repro.resilience.checkpoint` — atomic, hash-stamped phase-level
  checkpoints of the scaling loop (:class:`ScaleCheckpoint`), re-validated
  with the :class:`Certificate` machinery on resume.
"""

from .errors import (
    BudgetExceededError,
    CancelledError,
    Certificate,
    CheckpointError,
    DeadlineExceededError,
    InputValidationError,
    NegativeCycleError,
    ReproError,
    RetryExhaustedError,
    VerificationError,
    WorkerPoolError,
)
from .faults import (
    ALL_SITES,
    CORRUPTION_SITES,
    SITES as FAULT_SITES,
    SYSTEMIC_SITES,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    WorkerFaults,
    current_fault_plan,
    fault_scope,
)
from .guard import BudgetGuard, Meter, current_guard, guard_scope
from .preempt import (
    CancelToken,
    Deadline,
    cancel_scope,
    check_cancelled,
    current_token,
    make_token,
)
from .checkpoint import (
    CHECKPOINT_VERSION,
    ScaleCheckpoint,
    checkpoint_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from .retry import AttemptRecord, RetryPolicy, SolveProvenance

__all__ = [
    "ReproError",
    "InputValidationError",
    "VerificationError",
    "RetryExhaustedError",
    "BudgetExceededError",
    "NegativeCycleError",
    "CancelledError",
    "DeadlineExceededError",
    "CheckpointError",
    "WorkerPoolError",
    "Deadline",
    "CancelToken",
    "cancel_scope",
    "check_cancelled",
    "current_token",
    "make_token",
    "ScaleCheckpoint",
    "CHECKPOINT_VERSION",
    "checkpoint_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "Certificate",
    "FaultPlan",
    "FaultSpec",
    "FaultEvent",
    "FAULT_SITES",
    "CORRUPTION_SITES",
    "SYSTEMIC_SITES",
    "ALL_SITES",
    "WorkerFaults",
    "current_fault_plan",
    "fault_scope",
    "RetryPolicy",
    "AttemptRecord",
    "SolveProvenance",
    "BudgetGuard",
    "Meter",
    "current_guard",
    "guard_scope",
]
