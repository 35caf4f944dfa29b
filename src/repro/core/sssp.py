"""Top-level SSSP with negative integer weights (Theorem 17).

``solve_sssp`` = bit scaling (O(log N) rounds of 1-reweighting, each
O(√n) rounds of √k-improvement) to a feasible price function, then Dijkstra
on the reduced weights, mapping distances back through the prices.  If any
stage certifies a negative cycle, the cycle (validated vertex list) is
returned instead of distances.

``solve_sssp_resilient`` wraps that in the full self-checking harness
(DESIGN.md "Robustness & verification"): input validation, certified
retries with seed escalation when a verifier rejects a randomized stage's
output, work/span budget guards, and graceful degradation to the
Bellman–Ford baseline — with full provenance recorded on the result — when
retries or budget run out.  Both entry points attach an independently
re-checked :class:`~repro.resilience.errors.Certificate` to every result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.bellman_ford import bellman_ford
from ..baselines.dijkstra import dijkstra
from ..baselines.johnson import johnson_potential
from ..graph.digraph import DiGraph
from ..graph.validate import validate_graph
from ..resilience.errors import (
    BudgetExceededError,
    Certificate,
    DeadlineExceededError,
    InputValidationError,
    NegativeCycleError,
    RetryExhaustedError,
    VerificationError,
    WorkerPoolError,
)
from ..observability.metrics import metric_inc, metric_observe
from ..observability.profiler import profile_scope
from ..observability.tracer import trace_event, trace_span
from ..observability.worker import worker_span
from ..resilience.guard import BudgetGuard
from ..resilience.preempt import CancelToken, Deadline, cancel_scope, make_token
from ..resilience.retry import AttemptRecord, RetryPolicy, SolveProvenance
from ..runtime.backends import resolve_backend
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.racecheck import race_read
from ..runtime.model import CostModel, DEFAULT_MODEL
from .scaling import ScalingStats, scaled_reweighting


def _reduced_weights_block(lo: int, hi: int, src: np.ndarray,
                           dst: np.ndarray, w: np.ndarray,
                           price: np.ndarray) -> np.ndarray:
    """One block of the reduced-weight map ``w + p(src) − p(dst)`` — a
    pure function of ``(lo, hi)``, so any backend (serial, thread,
    process) may execute or re-execute it and the concatenation is
    bit-identical to the whole-array expression."""
    # shared-memory contract, checked by `repro check --race`: blocks
    # read the whole price vector, slice-read the edge arrays, and
    # write nothing shared (each returns a fresh reduced-weight array)
    race_read(price, site="sssp.reduce:price")
    race_read(src, lo, hi, site="sssp.reduce:src")
    race_read(dst, lo, hi, site="sssp.reduce:dst")
    race_read(w, lo, hi, site="sssp.reduce:w")
    # worker_span: records on a process worker's shipped tracer; no-op
    # in-process (a plain trace_span here would corrupt the thread
    # pool's parent stack from a worker thread)
    with worker_span("block-reduce", lo=lo, hi=hi) as wsp:
        wsp.count("edges", hi - lo)
        return w[lo:hi] + price[src[lo:hi]] - price[dst[lo:hi]]


@dataclass
class SsspResult:
    """Distances from the source, or a negative-cycle certificate.

    * No negative cycle: ``dist[v]`` is the exact distance (``+inf`` when
      unreachable), ``parent`` a shortest-path tree, ``price`` the feasible
      potential that certifies the distances.
    * Negative cycle: ``negative_cycle`` is a vertex list whose closed walk
      has negative weight; ``dist``/``parent``/``price`` are None.

    ``certificate`` is the same witness in checkable form (re-validated
    independently before the result is returned); ``provenance`` records
    how a resilient solve got its answer (engine, attempt log, fault
    summary, fallback reason) and is None for plain ``solve_sssp``.
    """

    source: int
    dist: np.ndarray | None
    parent: np.ndarray | None
    price: np.ndarray | None
    negative_cycle: list[int] | None
    stats: ScalingStats
    cost: Cost
    certificate: Certificate | None = None
    provenance: SolveProvenance | None = None

    @property
    def has_negative_cycle(self) -> bool:
        return self.negative_cycle is not None


def solve_sssp(g: DiGraph, source: int, *,
               mode: str = "parallel", assp_engine=None, eps: float = 0.2,
               seed=0, acc: CostAccumulator | None = None,
               model: CostModel = DEFAULT_MODEL,
               check_certificates: bool = True,
               fault_plan=None, retry_policy: RetryPolicy | None = None,
               guard: BudgetGuard | None = None,
               token: CancelToken | None = None,
               checkpoint_path=None, resume: bool = False,
               on_checkpoint=None, backend=None) -> SsspResult:
    """Single-source shortest paths with integer (possibly negative) weights.

    Parameters
    ----------
    mode : "parallel" | "sequential"
        Parallel Goldberg (the paper) vs sequential Goldberg (baseline).
    assp_engine, eps :
        The §4 ASSSP black box used inside chain elimination.
    check_certificates : bool
        Re-validate the feasible price / negative cycle before returning
        (cheap; on by default — the library never hands out an unchecked
        certificate).  A rejected certificate raises
        :class:`~repro.resilience.errors.VerificationError`.
    fault_plan, retry_policy, guard :
        Resilience hooks, threaded into every randomized stage; see
        :mod:`repro.resilience`.  ``solve_sssp_resilient`` owns the
        outermost retry/fallback loop around this function.
    token, checkpoint_path, resume, on_checkpoint :
        Preemption hooks (see :mod:`repro.resilience.preempt` and
        :mod:`repro.resilience.checkpoint`): cooperative cancellation /
        deadline checks at phase boundaries and in the primitives below,
        plus phase-level checkpointing of the scaling loop with verified
        resume.  A resumed solve is bit-identical to an uninterrupted one.
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
    if isinstance(backend, str):
        with resolve_backend(backend) as be:
            return solve_sssp(
                g, source, mode=mode, assp_engine=assp_engine, eps=eps,
                seed=seed, acc=acc, model=model,
                check_certificates=check_certificates,
                fault_plan=fault_plan, retry_policy=retry_policy,
                guard=guard, token=token, checkpoint_path=checkpoint_path,
                resume=resume, on_checkpoint=on_checkpoint, backend=be)
    if not (0 <= source < g.n):
        raise InputValidationError("source out of range")
    if (backend is not None and fault_plan is not None
            and hasattr(backend, "install_fault_plan")):
        backend.install_fault_plan(fault_plan)
    local = CostAccumulator()
    with trace_span("solve", acc=local, phase="solve", mode=mode,
                    n=g.n, m=g.m, source=source, seed=seed) as sp:
        scal = scaled_reweighting(g, mode=mode, assp_engine=assp_engine,
                                  eps=eps, seed=seed, acc=local, model=model,
                                  fault_plan=fault_plan,
                                  retry_policy=retry_policy, guard=guard,
                                  token=token, checkpoint_path=checkpoint_path,
                                  resume=resume, on_checkpoint=on_checkpoint)
        if scal.negative_cycle is not None:
            cert = Certificate("negative_cycle",
                               cycle=list(scal.negative_cycle))
            if check_certificates and not cert.verify(g):
                raise VerificationError(
                    "internal error: invalid cycle certificate",
                    stage="solve_sssp")
            sp.set(certificate=cert.kind,
                   cycle_length=len(scal.negative_cycle))
            metric_inc("repro_solves_total", mode=mode,
                       outcome="negative_cycle")
            if acc is not None:
                acc.charge_cost(local.snapshot())
                acc.merge_stages_from(local)
            return SsspResult(source, None, None, None, scal.negative_cycle,
                              scal.stats, local.snapshot(), certificate=cert)

        price = scal.price
        cert = Certificate("price", price=price)
        if check_certificates and not cert.verify(g):
            raise VerificationError(
                "internal error: infeasible price function",
                stage="solve_sssp")
        sp.set(certificate=cert.kind)
        if token is not None:
            token.check("sssp:final-dijkstra")
        if backend is not None and g.m:
            # physical execution of the reduced-weight map moves to the
            # backend; the model cost charged below is unchanged, which is
            # what keeps golden costs bit-exact across backends
            parts = backend.map_blocks(
                g.m, _reduced_weights_block, (g.src, g.dst, g.w, price),
                token=token)
            w_red = np.concatenate(parts)
        else:
            w_red = g.w + price[g.src] - price[g.dst] if g.m else g.w
        local.charge(*model.map_ws(g.m))
        with local.stage("final-dijkstra"), \
                trace_span("final-dijkstra", acc=local,
                           phase="solve") as dsp, \
                profile_scope("final-dijkstra"):
            dj = dijkstra(g, source, weights=w_red, model=model)
            local.charge_cost(dj.cost)
            dsp.count("settled", int(np.isfinite(dj.dist).sum()))
        dist = dj.dist.copy()
        finite = np.isfinite(dist)
        # undo the reweighting: dist_w(s,v) = dist_red(s,v) + p(v) − p(s)
        dist[finite] += price[np.flatnonzero(finite)] - price[source]
        metric_inc("repro_solves_total", mode=mode, outcome="distances")
        metric_observe("repro_solve_work", local.work)
        metric_observe("repro_solve_span_model", local.span_model)
        if acc is not None:
            acc.charge_cost(local.snapshot())
            acc.merge_stages_from(local)
        return SsspResult(source, dist, dj.parent, price, None, scal.stats,
                          local.snapshot(), certificate=cert)


def solve_sssp_resilient(g: DiGraph, source: int, *,
                         mode: str = "parallel", engine: str | None = None,
                         assp_engine=None,
                         eps: float = 0.2, seed=0,
                         acc: CostAccumulator | None = None,
                         model: CostModel = DEFAULT_MODEL,
                         retry_policy: RetryPolicy | None = None,
                         max_retries: int | None = None,
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
    times (attempt 0 with ``seed`` itself, later attempts with derived
    seeds); any :class:`~repro.resilience.errors.VerificationError` —
    including retry exhaustion of a nested stage — triggers the next
    attempt.  ``max_work``/``max_span`` install a
    :class:`~repro.resilience.guard.BudgetGuard` over the model's cost
    accounting.  When attempts or budget run out and ``fallback`` is on,
    the solve degrades to the deterministic Bellman–Ford baseline and the
    result's provenance records ``engine="fallback:bellman_ford"`` plus
    the reason and full attempt history.  With ``fallback`` off, the
    terminal error propagates.

    Preemption (PR 2): ``deadline`` (a
    :class:`~repro.resilience.preempt.Deadline` or plain seconds) and/or
    ``token`` make the solve cooperatively preemptible — checks run at
    phase boundaries and inside the runtime primitives.  Deadline expiry
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
    price or validated cycle) that is re-checked independently here before
    being returned.  ``raise_on_cycle`` converts cycle results into
    :class:`~repro.resilience.errors.NegativeCycleError`.

    ``backend`` selects the execution substrate (see :func:`solve_sssp`);
    a name builds a :class:`~repro.runtime.backends.DegradationLadder`
    owned by this call.  A
    :class:`~repro.resilience.errors.WorkerPoolError` that survives the
    ladder (every rung exhausted) is treated like budget exhaustion: the
    solve degrades to Bellman–Ford — executed in-process, the most
    reliable substrate left — instead of crashing.  The provenance
    records the final rung, every ladder demotion, and every worker loss
    absorbed along the way.

    ``engine`` selects a solver from the registry in
    :mod:`repro.core.engines` (``goldberg_parallel``,
    ``goldberg_sequential``, ``bnw_scaling``, ``fischer_simple``).  The
    Goldberg names are synonyms for ``mode`` and keep every feature
    above, including checkpointing.  Other engines run through the same
    attempt loop — verified certificates, seed-escalating retries,
    budget/deadline guards, fault injection at the ``potential`` site,
    Bellman–Ford degradation — but do not support
    ``checkpoint_path``/``resume`` (an
    :class:`~repro.resilience.errors.InputValidationError`).
    """
    if isinstance(backend, str):
        with resolve_backend(backend) as be:
            return solve_sssp_resilient(
                g, source, mode=mode, engine=engine,
                assp_engine=assp_engine, eps=eps,
                seed=seed, acc=acc, model=model, retry_policy=retry_policy,
                max_retries=max_retries, fault_plan=fault_plan,
                max_work=max_work, max_span=max_span, fallback=fallback,
                raise_on_cycle=raise_on_cycle, deadline=deadline,
                token=token, checkpoint_path=checkpoint_path,
                resume=resume, on_checkpoint=on_checkpoint, backend=be)
    validate_graph(g, source)
    engine_obj = None
    engine_label = mode
    if engine is not None:
        # deferred import: repro.core.engines imports solve_sssp from here
        from .engines import ENGINE_TO_MODE, get_sssp_engine

        if engine in ENGINE_TO_MODE:
            # Goldberg engines ARE solve_sssp; keep its native path so
            # checkpointing and the assp_engine plumbing stay available
            mode = ENGINE_TO_MODE[engine]
            engine_label = engine
        else:
            engine_obj = get_sssp_engine(engine)
            engine_label = engine
            if checkpoint_path is not None or resume:
                raise InputValidationError(
                    f"engine {engine!r} does not support checkpointing; "
                    "use goldberg_parallel or goldberg_sequential")
    if max_retries is not None and retry_policy is None:
        retry_policy = RetryPolicy(max_attempts=max_retries + 1)
    policy = retry_policy or RetryPolicy(max_attempts=3)
    guard = (BudgetGuard(max_work=max_work, max_span=max_span)
             if (max_work is not None or max_span is not None) else None)
    token = make_token(deadline, token)
    attempts: list[AttemptRecord] = []
    failure: Exception | None = None

    for attempt in range(policy.max_attempts):
        aseed = policy.attempt_seed(seed, attempt)
        primary = attempt == 0
        try:
            with cancel_scope(token), \
                    trace_span("attempt", phase="resilience",
                               attempt=attempt, seed=aseed):
                if engine_obj is not None:
                    res = engine_obj.solve(
                        g, source, seed=aseed, acc=acc, model=model,
                        check_certificates=True, fault_plan=fault_plan,
                        token=token, backend=backend)
                    if guard is not None:
                        # registry engines do not thread the guard through
                        # their phases; enforce the budget on the whole
                        # attempt's cost instead (raises BudgetExceededError)
                        guard.debit(res.cost)
                else:
                    res = solve_sssp(
                        g, source, mode=mode, assp_engine=assp_engine,
                        eps=eps, seed=aseed, acc=acc, model=model,
                        check_certificates=True, fault_plan=fault_plan,
                        retry_policy=policy, guard=guard, token=token,
                        checkpoint_path=checkpoint_path if primary else None,
                        resume=resume and primary,
                        on_checkpoint=on_checkpoint if primary else None,
                        backend=backend)
        except DeadlineExceededError as exc:
            attempts.append(AttemptRecord("solve_sssp", attempt, aseed,
                                          False,
                                          f"{type(exc).__name__}: {exc}"))
            failure = exc
            break  # elapsed time is not refundable — no further attempts
        except VerificationError as exc:
            attempts.append(AttemptRecord("solve_sssp", attempt, aseed,
                                          False,
                                          f"{type(exc).__name__}: {exc}"))
            failure = exc
            trace_event("retry", stage="solve_sssp", attempt=attempt,
                        error=type(exc).__name__)
            metric_inc("repro_retries_total", stage="solve_sssp",
                       error=type(exc).__name__)
            continue
        except BudgetExceededError as exc:
            attempts.append(AttemptRecord("solve_sssp", attempt, aseed,
                                          False,
                                          f"{type(exc).__name__}: {exc}"))
            failure = exc
            break  # spent work is not refundable — no further attempts
        except WorkerPoolError as exc:
            # the execution substrate itself failed past every ladder
            # rung — retrying on the same substrate cannot help, so break
            # straight to the in-process fallback
            attempts.append(AttemptRecord("solve_sssp", attempt, aseed,
                                          False,
                                          f"{type(exc).__name__}: {exc}"))
            failure = exc
            break
        attempts.append(AttemptRecord("solve_sssp", attempt, aseed, True))
        res.provenance = SolveProvenance(
            engine=engine_label, attempts=attempts,
            faults=fault_plan.summary() if fault_plan is not None else None)
        res.provenance.record_backend(backend)
        return _finish(g, res, raise_on_cycle)

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
    res = _bellman_ford_fallback(g, source, model, acc)
    res.provenance = SolveProvenance(
        engine="fallback:bellman_ford", attempts=attempts,
        fallback_reason=reason,
        faults=fault_plan.summary() if fault_plan is not None else None)
    res.provenance.record_backend(backend)
    return _finish(g, res, raise_on_cycle)


def _bellman_ford_fallback(g: DiGraph, source: int, model: CostModel,
                           acc: CostAccumulator | None) -> SsspResult:
    """Graceful degradation: deterministic O(nm) Bellman–Ford solve.

    Distances come from source-rooted Bellman–Ford; the price certificate
    comes from Johnson-style supersource potentials (every vertex finite),
    so the fallback result is exactly as checkable as the primary one.
    """
    local = CostAccumulator()
    with local.stage("fallback-bellman-ford"), \
            trace_span("fallback-bellman-ford", acc=local,
                       phase="resilience", n=g.n, m=g.m) as sp, \
            profile_scope("fallback-bellman-ford"):
        bf = bellman_ford(g, source, model=model)
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
        return SsspResult(source, None, None, None, list(cycle),
                          ScalingStats(), local.snapshot(), certificate=cert)
    cert = Certificate("price", price=price)
    return SsspResult(source, bf.dist, bf.parent, price, None,
                      ScalingStats(), local.snapshot(), certificate=cert)


def _finish(g: DiGraph, res: SsspResult, raise_on_cycle: bool) -> SsspResult:
    """Final gate: independently re-check the certificate, then return
    (or raise, for cycles on request).  No unchecked result escapes."""
    cert = res.certificate
    if cert is None or not cert.verify(g):
        raise VerificationError(
            "result certificate failed its final independent re-check",
            stage="solve_sssp_resilient")
    if raise_on_cycle and res.has_negative_cycle:
        raise NegativeCycleError(
            f"negative cycle of length {len(res.negative_cycle)} detected",
            certificate=cert)
    return res


__all__ = ["SsspResult", "solve_sssp", "solve_sssp_resilient"]
