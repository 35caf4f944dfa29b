"""Top-level SSSP with negative integer weights (Theorem 17).

``solve_sssp`` = bit scaling (O(log N) rounds of 1-reweighting, each
O(√n) rounds of √k-improvement) to a feasible price function, then Dijkstra
on the reduced weights, mapping distances back through the prices.  If any
stage certifies a negative cycle, the cycle (validated vertex list) is
returned instead of distances.  It is a thin call into an engine of
:mod:`repro.core.engines` (the paper's by default), whose tail every
engine shares.

``solve_sssp_resilient`` wraps that in the full self-checking harness
(DESIGN.md "Robustness & verification"): input validation, certified
retries with seed escalation when a verifier rejects a randomized stage's
output, work/span budget guards, and graceful degradation to the
Bellman–Ford baseline — with full provenance recorded on the result — when
retries or budget run out.  Both entry points attach an independently
re-checked :class:`~repro.resilience.errors.Certificate` to every result,
and hand their token and fault plan to the engine's ``solve``.
"""

from __future__ import annotations

from ..baselines.bellman_ford import bellman_ford
from ..baselines.johnson import johnson_potential
from ..graph.digraph import DiGraph
from ..graph.validate import validate_graph
from ..resilience.errors import (
    BudgetExceededError,
    Certificate,
    DeadlineExceededError,
    NegativeCycleError,
    RetryExhaustedError,
    VerificationError,
    WorkerPoolError,
)
from ..observability.metrics import metric_inc
from ..observability.profiler import profile_scope
from ..observability.tracer import trace_event, trace_span
from ..resilience.guard import BudgetGuard, guard_scope
from ..resilience.preempt import CancelToken, Deadline, make_token
from ..resilience.retry import AttemptRecord, RetryPolicy, SolveProvenance
from ..runtime.backends import resolve_backend
from ..runtime.metrics import CostAccumulator
from .engines import REFERENCE_ENGINE, SsspResult, get_sssp_engine
from .scaling import ScalingStats


def solve_sssp(g: DiGraph, source: int, *,
               engine: str = REFERENCE_ENGINE, assp_engine=None,
               eps: float = 0.2, seed=0,
               acc: CostAccumulator | None = None,
               fault_plan=None, retry_policy: RetryPolicy | None = None,
               guard: BudgetGuard | None = None,
               token: CancelToken | None = None,
               checkpoint_path=None, resume: bool = False,
               on_checkpoint=None, backend=None) -> SsspResult:
    """Single-source shortest paths with integer (possibly negative) weights.

    A thin call into the engine ``engine`` names
    (:mod:`repro.core.engines`), whose tail does the rest — including
    the independent re-check of the feasible price or negative cycle: a
    rejected certificate raises
    :class:`~repro.resilience.errors.VerificationError`, so the library
    never hands out an unchecked one.

    Parameters
    ----------
    engine : str
        A registered SSSP engine: ``goldberg_parallel`` (the paper, the
        default), ``goldberg_sequential`` (the classic baseline),
        ``bnw_scaling`` or ``fischer_simple``.  An unknown name raises
        :class:`~repro.resilience.errors.InputValidationError` before
        any work.
    assp_engine, eps :
        The §4 ASSSP black box used inside the Goldberg engines' chain
        elimination.
    fault_plan, retry_policy :
        Resilience hooks; see :mod:`repro.resilience`.  ``fault_plan``
        lasts for this solve only; ``retry_policy`` budgets the Goldberg
        engines' nested verified stages.  ``solve_sssp_resilient`` owns
        the outermost retry/fallback loop around this function.
    guard :
        A :class:`~repro.resilience.guard.BudgetGuard`, installed as the
        ambient budget for the solve: ticked once per improvement and
        brought to the solve's exact cost before the final Dijkstra and
        at the end.
    token, checkpoint_path, resume, on_checkpoint :
        Preemption hooks (see :mod:`repro.resilience.preempt` and
        :mod:`repro.resilience.checkpoint`): cooperative cancellation /
        deadline checks at phase boundaries and in the primitives below,
        up to the final Dijkstra, plus phase-level checkpointing of the
        scaling loop with verified resume.  A resumed solve is
        bit-identical to an uninterrupted one.
    backend :
        An :class:`~repro.runtime.backends.ExecutionBackend` (or one of
        the names ``"serial"``/``"thread"``/``"process"``, which builds a
        degradation ladder for the duration of the call) executing the
        backend-portable block maps.  The backend changes *physical*
        execution only: model costs are charged identically on every
        backend, so results — distances and
        :class:`~repro.runtime.metrics.Cost` — are bit-identical to
        ``backend=None``.
    """
    eng = get_sssp_engine(engine)
    with guard_scope(guard):
        return eng.solve(
            g, source, seed=seed, acc=acc,
            fault_plan=fault_plan, token=token, backend=backend,
            assp_engine=assp_engine, eps=eps,
            retry_policy=retry_policy, checkpoint_path=checkpoint_path,
            resume=resume, on_checkpoint=on_checkpoint)


def solve_sssp_resilient(g: DiGraph, source: int, *,
                         engine: str = REFERENCE_ENGINE,
                         assp_engine=None,
                         eps: float = 0.2, seed=0,
                         acc: CostAccumulator | None = None,
                         retry_policy: RetryPolicy | None = None,
                         fault_plan=None,
                         max_work: float | None = None,
                         max_span: float | None = None,
                         fallback: bool = True,
                         raise_on_cycle: bool = False,
                         deadline: "Deadline | float | None" = None,
                         token: CancelToken | None = None,
                         checkpoint_path=None, resume: bool = False,
                         on_checkpoint=None, backend=None) -> SsspResult:
    """Self-checking SSSP: verify, retry with fresh randomness, degrade.

    The Las Vegas solve is attempted up to ``retry_policy.max_attempts``
    times (3 without a policy; attempt 0 with ``seed`` itself, later
    attempts with derived seeds); any
    :class:`~repro.resilience.errors.VerificationError` — including
    retry exhaustion of a nested stage — triggers the next
    attempt.  ``max_work``/``max_span`` install a
    :class:`~repro.resilience.guard.BudgetGuard` over the model's cost
    accounting.  When attempts or budget run out and ``fallback`` is on,
    the solve degrades to the deterministic Bellman–Ford baseline and the
    result's provenance records ``engine="fallback:bellman_ford"`` plus
    the reason and full attempt history.  With ``fallback`` off, the
    terminal error propagates.

    Preemption: ``deadline`` (a
    :class:`~repro.resilience.preempt.Deadline` or plain seconds) and/or
    ``token`` make the solve cooperatively preemptible — checks run at
    phase boundaries and inside the runtime primitives; a ``deadline``
    never changes ``token`` (:func:`~repro.resilience.preempt.make_token`
    links a fresh token to it).  Deadline expiry
    behaves like budget exhaustion: with ``fallback`` on, the solve
    degrades to Bellman–Ford with ``fallback_reason`` prefixed
    ``"deadline"``; with ``fallback`` off,
    :class:`~repro.resilience.errors.DeadlineExceededError` propagates
    (CLI exit code 5).  *Manual* cancellation always propagates as
    :class:`~repro.resilience.errors.CancelledError` — stopping is the
    caller's explicit intent, so no fallback answer is computed.

    ``checkpoint_path`` persists a verified checkpoint after every scale
    level of the primary attempt (attempt 0 — the only deterministic one;
    retry attempts re-randomise, so they never touch the checkpoint) and
    ``resume=True`` restarts from it after re-validating the stored
    potential with the :class:`Certificate` machinery.  Distances,
    certificate, and provenance of a resumed solve are bit-identical to
    the uninterrupted run.

    Every result — primary or fallback — carries a certificate (feasible
    price or validated cycle) that the independent validators checked
    once, where it was built: in the engine tail or in the fallback.
    ``raise_on_cycle`` converts cycle results into
    :class:`~repro.resilience.errors.NegativeCycleError`.

    ``backend`` selects the execution substrate (see :func:`solve_sssp`);
    a name builds a :class:`~repro.runtime.backends.DegradationLadder`
    owned by this call.  A
    :class:`~repro.resilience.errors.WorkerPoolError` that survives the
    ladder (every rung exhausted) is treated like budget exhaustion: the
    solve degrades to Bellman–Ford — executed in-process, the most
    reliable substrate left — instead of crashing.  The provenance
    records the final rung, every ladder demotion, and every worker loss
    absorbed along the way, in this solve only.

    ``engine`` selects a solver from the registry in
    :mod:`repro.core.engines` (``goldberg_parallel``, the default,
    ``goldberg_sequential``, ``bnw_scaling``, ``fischer_simple``).
    Unknown names raise
    :class:`~repro.resilience.errors.InputValidationError` before any
    work.  Every engine runs through the same attempt loop — verified
    certificates, seed-escalating retries, budget guards ticked at its
    loop heads, deadlines, fault injection at the ``potential`` site,
    Bellman–Ford degradation.  Only the Goldberg engines support
    ``checkpoint_path``/``resume``; the others raise
    :class:`~repro.resilience.errors.InputValidationError`.
    """
    eng = get_sssp_engine(engine)
    if isinstance(backend, str):
        with resolve_backend(backend) as be:
            return solve_sssp_resilient(
                g, source, engine=engine, assp_engine=assp_engine, eps=eps,
                seed=seed, acc=acc, retry_policy=retry_policy,
                fault_plan=fault_plan, max_work=max_work,
                max_span=max_span, fallback=fallback,
                raise_on_cycle=raise_on_cycle, deadline=deadline,
                token=token, checkpoint_path=checkpoint_path,
                resume=resume, on_checkpoint=on_checkpoint, backend=be)
    source = validate_graph(g, source)
    policy = retry_policy or RetryPolicy(max_attempts=3)
    guard = (BudgetGuard(max_work=max_work, max_span=max_span)
             if (max_work is not None or max_span is not None) else None)
    token = make_token(deadline, token)
    since = SolveProvenance.backend_marks(backend)
    attempts: list[AttemptRecord] = []
    failure: Exception | None = None

    for attempt in range(policy.max_attempts):
        aseed = policy.attempt_seed(seed, attempt)
        primary = attempt == 0
        try:
            with guard_scope(guard), \
                    trace_span("attempt", phase="resilience",
                               attempt=attempt, seed=aseed):
                res = eng.solve(
                    g, source, seed=aseed, acc=acc,
                    fault_plan=fault_plan, token=token, backend=backend,
                    assp_engine=assp_engine, eps=eps, retry_policy=policy,
                    checkpoint_path=checkpoint_path if primary else None,
                    resume=resume and primary,
                    on_checkpoint=on_checkpoint if primary else None)
        except (VerificationError, BudgetExceededError,
                DeadlineExceededError, WorkerPoolError) as exc:
            attempts.append(AttemptRecord("solve_sssp", attempt, aseed,
                                          False,
                                          f"{type(exc).__name__}: {exc}"))
            failure = exc
            if not isinstance(exc, VerificationError):
                # elapsed time and spent work are not refundable, and a
                # substrate that failed past every ladder rung fails the
                # same way again: go straight to the in-process fallback
                break
            trace_event("retry", stage="solve_sssp", attempt=attempt,
                        error=type(exc).__name__)
            metric_inc("repro_retries_total", stage="solve_sssp",
                       error=type(exc).__name__)
            continue
        attempts.append(AttemptRecord("solve_sssp", attempt, aseed, True))
        res.provenance = SolveProvenance(
            engine=eng.name, attempts=attempts,
            faults=fault_plan.summary() if fault_plan is not None else None)
        res.provenance.record_backend(backend, since)
        return _finish(res, raise_on_cycle)

    if not fallback:
        if isinstance(failure, (BudgetExceededError, DeadlineExceededError,
                                WorkerPoolError)):
            raise failure
        raise RetryExhaustedError(
            f"solve failed verification on all {len(attempts)} attempts "
            "and fallback is disabled",
            stage="solve_sssp_resilient", attempts=attempts) from failure
    if isinstance(failure, DeadlineExceededError):
        reason = f"deadline: {failure}"
    elif failure is not None:
        reason = f"{type(failure).__name__}: {failure}"
    else:
        reason = "retry budget exhausted"
    trace_event("fallback", engine="bellman_ford", reason=reason,
                attempts=len(attempts))
    metric_inc("repro_fallbacks_total", engine="bellman_ford",
               cause=type(failure).__name__ if failure is not None
               else "retry_exhausted")
    res = _bellman_ford_fallback(g, source, acc)
    res.provenance = SolveProvenance(
        engine="fallback:bellman_ford", attempts=attempts,
        fallback_reason=reason,
        faults=fault_plan.summary() if fault_plan is not None else None)
    res.provenance.record_backend(backend, since)
    return _finish(res, raise_on_cycle)


def _bellman_ford_fallback(g: DiGraph, source: int,
                           acc: CostAccumulator | None) -> SsspResult:
    """Graceful degradation: deterministic O(nm) Bellman–Ford solve.

    Distances come from source-rooted Bellman–Ford; the price certificate
    comes from Johnson-style supersource potentials (every vertex finite),
    so the fallback result is exactly as checkable as the primary one, and
    is checked here as the engine tail checks its own.
    """
    local = CostAccumulator()
    with local.stage("fallback-bellman-ford"), \
            trace_span("fallback-bellman-ford", acc=local,
                       phase="resilience", n=g.n, m=g.m) as sp, \
            profile_scope("fallback-bellman-ford"):
        bf = bellman_ford(g, source)
        local.charge_cost(bf.cost)
        if bf.negative_cycle is None:
            pot = johnson_potential(g)
            local.charge_cost(pot.cost)
            cycle = pot.negative_cycle
            price = pot.price
        else:
            cycle, price = bf.negative_cycle, None
        sp.set(negative_cycle=cycle is not None)
    if acc is not None:
        acc.charge_cost(local.snapshot())
        acc.merge_stages_from(local)
    if cycle is not None:
        cert = Certificate("negative_cycle", cycle=list(cycle))
        res = SsspResult(source, None, None, None, list(cycle),
                         ScalingStats(), local.snapshot(), certificate=cert)
    else:
        cert = Certificate("price", price=price)
        res = SsspResult(source, bf.dist, bf.parent, price, None,
                         ScalingStats(), local.snapshot(), certificate=cert)
    if not cert.verify(g):
        raise VerificationError("fallback certificate failed its check",
                                stage="fallback:bellman_ford")
    return res


def _finish(res: SsspResult, raise_on_cycle: bool) -> SsspResult:
    """Return ``res``, or raise for its cycle on request.  Its certificate
    was verified where it was built, so no unchecked result escapes."""
    if raise_on_cycle and res.has_negative_cycle:
        raise NegativeCycleError(
            f"negative cycle of length {len(res.negative_cycle)} detected",
            certificate=res.certificate)
    return res


__all__ = ["SsspResult", "solve_sssp", "solve_sssp_resilient"]
