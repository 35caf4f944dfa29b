"""Execution backends: serial / thread / fault-tolerant process pools.

The paper's bounds only pay off on real cores, so the runtime offers three
interchangeable execution substrates behind one protocol:

* :class:`SerialBackend` — in-process, one block at a time (the reference
  semantics everything else must bit-match);
* :class:`~repro.runtime.executor.ForkJoinPool` — the thread pool (GIL
  bound; real speed-ups only when bodies release the GIL);
* :class:`ProcessForkJoinPool` — OS processes.  Once workers are separate
  processes they can die, hang, or straggle, which makes the execution
  layer itself a fault domain.  This pool is built for that: per-task
  heartbeats with a configurable liveness timeout, worker-death detection
  (pipe EOF / process sentinel), straggler re-dispatch with capped
  exponential backoff, and deterministic re-execution of only the lost
  blocks.

Determinism contract
--------------------
``map_blocks(n, fn, args)`` requires ``fn`` to be a *pure function of
``(lo, hi, *args)``* over disjoint index slices, returning a picklable
value.  That single contract is what makes every robustness mechanism
sound: a block may be executed twice (straggler duplicate), on a respawned
worker (death), or on a different rung of the ladder (demotion), and the
concatenated results are bit-identical regardless — re-dispatch is
idempotent by construction.

Graceful degradation
--------------------
:class:`DegradationLadder` chains backends (process → thread → serial).
When a rung cannot complete a call — worker losses past the budget, block
attempts exhausted — it raises
:class:`~repro.resilience.errors.WorkerPoolError`; the ladder records a
:class:`Demotion` and transparently re-executes the whole call on the next
rung.  The serial rung cannot fail structurally, so a laddered call either
returns correct results or propagates the body's own exception — the
execution layer never crashes a solve.

Every backend shares one front, :class:`~repro.runtime.executor.BlockPool`:
the shut-down check, the cancel token, the empty range and the inline
one-block path exist once.  Under an active
:class:`~repro.runtime.racecheck.RaceChecker` that front routes every
backend through the same sequential logical-block partition
(:func:`~repro.runtime.executor.checked_map_blocks`), so race findings are
independent of both pool size and backend choice.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Protocol, runtime_checkable

from ..observability.metrics import metric_inc
from ..observability.tracer import current_tracer, trace_event
from ..observability.worker import (
    WorkerSession,
    record_shipped_block,
    ship_flags,
)
from ..resilience.errors import InputValidationError, WorkerPoolError
from ..resilience.faults import current_fault_plan
from ..resilience.preempt import (
    CancelToken,
    Deadline,
    cancel_scope,
    current_token,
)
from .executor import BlockFn, BlockPool, ForkJoinPool, check_count

BACKEND_NAMES = ("serial", "thread", "process")


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the solvers require of an execution substrate."""

    name: str
    n_workers: int

    def map_blocks(self, n: int, fn: BlockFn, args: tuple = (), *,
                   grain: int | None = None) -> list: ...

    def shutdown(self) -> None: ...


class SerialBackend(ForkJoinPool):
    """The reference rung: one worker, everything in-process."""

    name = "serial"

    def __init__(self, *, grain: int = 1024) -> None:
        super().__init__(n_workers=1, grain=grain)


# ---------------------------------------------------------------------------
# telemetry records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerLoss:
    """One worker lost mid-call: death (nonzero exit) or hang (liveness
    timeout exceeded with no heartbeat)."""

    kind: str                  # "death" | "hang"
    wid: int
    pid: int | None
    exitcode: int | None
    block: tuple[int, int] | None   # (lo, hi) in flight, if attributable
    attempt: int | None             # 1-based dispatch attempt of that block
    detail: str

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "wid": self.wid, "pid": self.pid,
                "exitcode": self.exitcode,
                "block": list(self.block) if self.block else None,
                "attempt": self.attempt, "detail": self.detail}


@dataclass(frozen=True)
class Demotion:
    """One rung-change of the degradation ladder."""

    from_backend: str
    to_backend: str
    reason: str

    def to_json(self) -> dict[str, Any]:
        return {"from": self.from_backend, "to": self.to_backend,
                "reason": self.reason}


class RemoteTraceback(Exception):
    """Carries a worker-process traceback as the ``__cause__`` of the
    re-raised exception, mirroring ``concurrent.futures``."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return f"\n--- worker traceback ---\n{self.text}"


def _encode_exc(exc: BaseException) -> tuple:
    import traceback as _tb

    text = "".join(_tb.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return ("pickle", pickle.dumps(exc), text)
    except Exception:  # repro: noqa[RS007] unpicklable user exception: fall back to repr transport
        return ("text", f"{type(exc).__name__}: {exc}", text)


def _decode_exc(encoded: tuple) -> BaseException:
    kind, payload, text = encoded
    if kind == "pickle":
        try:
            exc = pickle.loads(payload)
        except Exception:  # repro: noqa[RS007] payload from a dying worker may be undecodable
            exc = WorkerPoolError(f"undecodable worker exception: {text}")
    else:
        exc = WorkerPoolError(payload)
    exc.__cause__ = RemoteTraceback(text)
    return exc


# ---------------------------------------------------------------------------
# worker process main loop
# ---------------------------------------------------------------------------

def _worker_main(wid: int, conn: Any, heartbeat_interval: float) -> None:
    """One worker: receive ``(epoch, bid, fn, lo, hi, args, attempt,
    faults, remaining, telem)`` tasks on its private pipe, run ``fn`` on a
    side thread while the main loop streams heartbeats, send the result
    back.

    ``telem`` is the parent's :func:`~repro.observability.worker.
    ship_flags` — when set, the block runs inside a fresh
    :class:`~repro.observability.worker.WorkerSession` whose packed
    spans/metric deltas ride the ``ok`` result (and whose progress
    snapshot rides every heartbeat).  The session is entered even when
    ``telem`` is None: it sets a fresh run context, so in-worker
    instrumentation can never record into a dead fork-snapshot copy of
    the parent's tracer or registry.  The deadline token goes on top of
    that context.

    Injected systemic faults (:class:`~repro.resilience.faults.
    WorkerFaults`) fire *here*, inside the worker process, exactly as a
    real infrastructure fault would: ``worker_kill`` SIGKILLs the
    process, ``worker_hang`` wedges it before any task event, and
    ``result_drop`` computes the block but never sends the answer.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        except Exception:  # repro: noqa[RS007] undecodable task (e.g. fn unknown to this fork snapshot): die quietly, the parent's death detection re-dispatches to a fresh worker
            os._exit(71)   # EX_OSERR: poisoned task, let the parent reap us
        if msg is None:
            return
        (epoch, bid, fn, lo, hi, args, attempt, faults, remaining,
         telem) = msg
        if faults is not None and faults.fires("worker_kill", lo, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        if faults is not None and faults.fires("worker_hang", lo, attempt):
            time.sleep(faults.hang_seconds)  # wedged: no start, no heartbeat
        try:
            conn.send(("start", wid, epoch, bid, attempt))
        except (BrokenPipeError, OSError):
            return
        box: dict[str, Any] = {}
        done = threading.Event()
        sess = WorkerSession(telem)

        def _run(box=box, done=done, fn=fn, lo=lo, hi=hi, args=args,
                 remaining=remaining, epoch=epoch, bid=bid,
                 attempt=attempt, sess=sess) -> None:
            token = None
            if remaining is not None:
                # deadline propagation across the process boundary: the
                # parent ships seconds-remaining at dispatch; cooperative
                # checks inside fn observe a local token bound to it
                token = CancelToken(Deadline.after(max(remaining, 0.0)))
            try:
                with sess, cancel_scope(token):
                    value = fn(lo, hi, *args)
                box["msg"] = ("ok", wid, epoch, bid, attempt, value,
                              sess.collect())
            except BaseException as exc:  # repro: noqa[RS007] full fidelity: every failure crosses the pipe as data
                box["msg"] = ("err", wid, epoch, bid, attempt,
                              _encode_exc(exc))
            finally:
                done.set()

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        while not done.wait(heartbeat_interval):
            try:
                conn.send(("hb", wid, epoch, bid, attempt,
                           sess.progress()))
            except (BrokenPipeError, OSError):
                return
        if faults is not None and faults.fires("result_drop", lo, attempt):
            continue  # computed, never sent: parent's liveness re-dispatches
        try:
            conn.send(box["msg"])
        except (BrokenPipeError, OSError):
            return


class _Worker:
    __slots__ = ("wid", "proc", "conn", "busy", "last_event",
                 "last_progress")

    def __init__(self, wid: int, proc: Any, conn: Any) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.busy: tuple[int, int, int, tuple[int, int]] | None = None
        # busy = (epoch, bid, attempt, (lo, hi)); None when idle
        self.last_event = time.monotonic()
        # latest heartbeat-piggybacked telemetry snapshot
        # (spans_closed, metric_families), for /progress liveness
        self.last_progress: tuple[int, int] | None = None


class _Task:
    __slots__ = ("bid", "lo", "hi", "dispatches", "inflight", "not_before",
                 "first_dispatch")

    def __init__(self, bid: int, lo: int, hi: int) -> None:
        self.bid = bid
        self.lo = lo
        self.hi = hi
        self.dispatches = 0
        self.inflight: set[int] = set()
        self.not_before = 0.0
        self.first_dispatch: float | None = None


class ProcessForkJoinPool(BlockPool):
    """A multiprocessing fork-join pool that survives its own workers.

    Each worker owns a private duplex pipe (no shared queue locks — a
    SIGKILLed worker can never wedge its siblings), runs one block at a
    time, and streams heartbeats while computing.  The parent detects:

    * **death** — pipe EOF / process sentinel: the worker is respawned
      and its in-flight block re-dispatched;
    * **hang** — no event for ``liveness_timeout`` seconds: the worker
      is SIGKILLed, respawned, and the block re-dispatched;
    * **stragglers** — a block alive (heartbeating) past
      ``straggler_factor × liveness_timeout`` is *duplicated* onto an
      idle worker with capped exponential backoff; the first result
      wins, the late one is discarded (blocks are pure, so duplication
      is harmless).

    A block may be dispatched at most ``max_dispatches`` times and a
    single call may absorb at most ``max_worker_losses`` losses; past
    either budget the call raises
    :class:`~repro.resilience.errors.WorkerPoolError` so the
    degradation ladder can demote.  All telemetry (spawns, losses,
    re-dispatches) lands in the ambient metrics registry and in
    :attr:`worker_losses` for provenance.  Each call ships the ambient
    fault plan's systemic slice with every dispatch and mirrors the
    dispatch into the plan; the pool keeps no plan between calls.

    The timing settings must be finite: ``heartbeat_interval``,
    ``liveness_timeout`` and ``straggler_factor`` above 0, the backoff
    pair at least 0.  A NaN timeout would make every liveness comparison
    false and leave a wedged worker wedged.  The counts must be
    integers: ``n_workers``, ``grain`` and ``max_dispatches`` at least
    1, ``max_worker_losses`` at least 0.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None, *,
                 grain: int = 1024,
                 heartbeat_interval: float = 0.05,
                 liveness_timeout: float = 2.0,
                 straggler_factor: float = 4.0,
                 max_dispatches: int = 5,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 1.0,
                 max_worker_losses: int | None = None,
                 mp_context: Any = None) -> None:
        if n_workers is None:
            n_workers = min(8, os.cpu_count() or 1)
        for name, value in (("heartbeat_interval", heartbeat_interval),
                            ("liveness_timeout", liveness_timeout),
                            ("straggler_factor", straggler_factor)):
            if not 0 < value < math.inf:
                raise InputValidationError(
                    f"{name} must be finite and > 0, got {value!r}")
        for name, value in (("backoff_base", backoff_base),
                            ("backoff_cap", backoff_cap)):
            if not 0 <= value < math.inf:
                raise InputValidationError(
                    f"{name} must be finite and >= 0, got {value!r}")
        self.n_workers = check_count("n_workers", n_workers, 1)
        self.grain = check_count("grain", grain, 1)
        self.max_dispatches = check_count("max_dispatches", max_dispatches, 1)
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.straggler_factor = straggler_factor
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_worker_losses = (
            4 * self.n_workers + 8 if max_worker_losses is None
            else check_count("max_worker_losses", max_worker_losses, 0))
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
        self._ctx = mp_context
        self._workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self._epoch = 0
        self._closed = False
        self.worker_losses: list[WorkerLoss] = []

    # -- worker lifecycle ----------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of live workers (chaos harnesses SIGKILL these)."""
        return [w.proc.pid for w in self._workers.values()
                if w.proc.is_alive() and w.proc.pid is not None]

    def live_status(self) -> dict[str, Any]:
        """Worker-fleet liveness for the ``/progress`` endpoint."""
        now = time.monotonic()
        return {
            "backend": self.name,
            "n_workers": self.n_workers,
            "losses": len(self.worker_losses),
            "workers": [
                {"wid": w.wid, "pid": w.proc.pid,
                 "alive": w.proc.is_alive(),
                 "busy": (list(w.busy[3]) if w.busy is not None else None),
                 "last_event_age_s": round(now - w.last_event, 3),
                 "progress": (list(w.last_progress)
                              if w.last_progress is not None else None)}
                for w in self._workers.values()],
        }

    def _spawn_worker(self) -> _Worker:
        wid = self._next_wid
        self._next_wid += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, self.heartbeat_interval),
            daemon=True, name=f"repro-worker-{wid}")
        proc.start()
        child_conn.close()
        w = _Worker(wid, proc, parent_conn)
        self._workers[wid] = w
        metric_inc("repro_workers_spawned_total", backend=self.name)
        return w

    def _reap_worker(self, w: _Worker, kind: str, detail: str) -> None:
        """Kill (if needed) and forget a lost worker, recording the
        loss."""
        block = attempt = None
        if w.busy is not None:
            _, _, att, (lo, hi) = w.busy
            block, attempt = (lo, hi), att
        if w.proc.is_alive():
            try:
                w.proc.terminate()
                w.proc.join(0.2)
                if w.proc.is_alive():
                    w.proc.kill()
                    w.proc.join(0.5)
            except OSError:
                pass
        try:
            w.conn.close()
        except OSError:
            pass
        self._workers.pop(w.wid, None)
        self.worker_losses.append(WorkerLoss(
            kind=kind, wid=w.wid, pid=w.proc.pid,
            exitcode=w.proc.exitcode, block=block, attempt=attempt,
            detail=detail))
        metric_inc("repro_worker_losses_total", kind=kind)
        # mark the loss in the trace: the lost worker's telemetry died
        # with it (nothing was shipped), so the event is the record
        trace_event("worker-lost", wid=w.wid, kind=kind,
                    block=list(block) if block else None,
                    attempt=attempt, detail=detail)

    # -- the fault-tolerant map ----------------------------------------

    def _map_many(self, bounds: list[tuple[int, int]], fn: BlockFn,
                  args: tuple, psp: Any) -> list:
        tasks = [_Task(bid, lo, hi) for bid, (lo, hi) in enumerate(bounds)]
        results = self._drive(tasks, fn, args, psp)
        psp.count("blocks_run", len(tasks))
        return [results[t.bid] for t in tasks]

    def _drive(self, tasks: list[_Task], fn: BlockFn, args: tuple,
               psp: Any) -> dict[int, Any]:
        self._epoch += 1
        epoch = self._epoch
        losses_before = len(self.worker_losses)
        results: dict[int, Any] = {}
        pending: deque[int] = deque(t.bid for t in tasks)
        by_bid = {t.bid: t for t in tasks}
        poll = min(self.heartbeat_interval, 0.05)
        tracer = current_tracer()
        dispatch_sid = psp.span.sid if tracer is not None else None
        telem = ship_flags()
        token = current_token()
        plan = current_fault_plan()
        faults = None if plan is None else plan.systemic()

        def record_block_span(t: _Task, wid: int, attempt: int,
                              shipped: Any) -> None:
            # accepted result: splice the worker's shipped telemetry
            # under this call's map-blocks span and fold its metric
            # deltas — this runs *after* the epoch/duplicate filter, so
            # stale straggler telemetry is discarded with its result
            record_shipped_block(shipped, parent=dispatch_sid, wid=wid,
                                 attempt=attempt, lo=t.lo, hi=t.hi,
                                 backend=self.name)
            metric_inc("repro_blocks_completed_total", backend=self.name)

        def dispatch(w: _Worker, t: _Task, *, cause: str) -> bool:
            t.dispatches += 1
            attempt = t.dispatches
            remaining = None if token is None else token.remaining()
            if plan is not None:
                plan.note_worker_dispatch(t.lo, t.hi, attempt)
            try:
                w.conn.send((epoch, t.bid, fn, t.lo, t.hi, args, attempt,
                             faults, remaining, telem))
            except (BrokenPipeError, OSError):
                t.dispatches -= 1
                self._reap_worker(w, "death", "pipe broke at dispatch")
                return False
            w.busy = (epoch, t.bid, attempt, (t.lo, t.hi))
            w.last_event = time.monotonic()
            t.inflight.add(w.wid)
            if t.first_dispatch is None:
                t.first_dispatch = time.monotonic()
            if cause != "fresh":
                metric_inc("repro_worker_redispatches_total", cause=cause)
                t.not_before = time.monotonic() + min(
                    self.backoff_base * (2 ** max(t.dispatches - 2, 0)),
                    self.backoff_cap)
            return True

        def lose_block(w: _Worker) -> None:
            """A lost worker's in-flight block goes back to pending."""
            if w.busy is None:
                return
            b_epoch, bid, _, _ = w.busy
            if b_epoch != epoch:
                return  # stale task from an abandoned call
            t = by_bid[bid]
            t.inflight.discard(w.wid)
            if bid not in results and not t.inflight and bid not in pending:
                pending.appendleft(bid)

        def check_budgets() -> None:
            lost = len(self.worker_losses) - losses_before
            if lost > self.max_worker_losses:
                raise WorkerPoolError(
                    f"{lost} worker losses in one call exceed the budget "
                    f"of {self.max_worker_losses}",
                    backend=self.name,
                    losses=self.worker_losses[losses_before:])

        first_error: tuple[int, BaseException] | None = None
        while len(results) < len(tasks):
            # cooperative: on a cancel, in-flight blocks become stale (the
            # epoch tag discards their results); workers stay alive and
            # usable for the next call
            if token is not None:
                token.check("map_blocks:poll")
            if first_error is not None and not any(
                    t.inflight for t in tasks if t.bid not in results):
                raise first_error[1]
            while len(self._workers) < self.n_workers:
                self._spawn_worker()
            # dispatch pending blocks (and straggler duplicates) to
            # idle workers
            now = time.monotonic()
            if first_error is None:
                idle = [w for w in self._workers.values() if w.busy is None]
                for w in idle:
                    bid = self._next_dispatchable(pending, by_bid, results,
                                                  now)
                    if bid is None:
                        break
                    t = by_bid[bid]
                    cause = "fresh" if t.dispatches == 0 else "loss"
                    dispatch(w, t, cause=cause)
                self._duplicate_stragglers(by_bid, results, pending,
                                           dispatch, now)
            check_budgets()
            # wait for events or deaths
            conns = {w.conn: w for w in self._workers.values()}
            sentinels = {w.proc.sentinel: w for w in self._workers.values()}
            try:
                ready = connection.wait(
                    list(conns) + list(sentinels), timeout=poll)
            except OSError:
                ready = []
            dead_seen = []
            for r in ready:
                if r in conns:
                    w = conns[r]
                    alive = self._drain_conn(w, epoch, by_bid, results,
                                             record_block_span)
                    if alive is not None and first_error is None:
                        first_error = alive  # (bid, exc) from a worker
                    elif alive is not None:
                        if alive[0] < first_error[0]:
                            first_error = alive
                elif r in sentinels:
                    dead_seen.append(sentinels[r])
            for w in dead_seen:
                if w.wid not in self._workers:
                    continue  # already reaped via pipe EOF
                # drain any result that raced the death
                self._drain_conn(w, epoch, by_bid, results,
                                 record_block_span)
                if w.wid in self._workers and not w.proc.is_alive():
                    lose_block(w)
                    self._reap_worker(
                        w, "death",
                        f"worker exited with code {w.proc.exitcode}")
            # liveness: busy workers with no event inside the timeout
            # are presumed wedged — SIGKILL, respawn, re-dispatch
            now = time.monotonic()
            for w in list(self._workers.values()):
                if w.busy is None:
                    continue
                if now - w.last_event > self.liveness_timeout:
                    lose_block(w)
                    self._reap_worker(
                        w, "hang",
                        f"no heartbeat for {now - w.last_event:.2f}s "
                        f"(liveness timeout {self.liveness_timeout}s)")
            check_budgets()
            self._check_attempts(tasks, results, pending, losses_before)
        return results

    def _next_dispatchable(self, pending: deque, by_bid: dict,
                           results: dict, now: float) -> int | None:
        for _ in range(len(pending)):
            bid = pending.popleft()
            if bid in results:
                continue
            t = by_bid[bid]
            if now < t.not_before:
                pending.append(bid)  # backing off; try a later block
                continue
            return bid
        return None

    def _duplicate_stragglers(self, by_bid: dict, results: dict,
                              pending: deque, dispatch, now: float) -> None:
        threshold = self.straggler_factor * self.liveness_timeout
        for t in by_bid.values():
            if (t.bid in results or not t.inflight
                    or t.first_dispatch is None
                    or t.bid in pending):
                continue
            if (now - t.first_dispatch > threshold
                    and now >= t.not_before
                    and t.dispatches < self.max_dispatches):
                idle = next((w for w in self._workers.values()
                             if w.busy is None), None)
                if idle is not None:
                    dispatch(idle, t, cause="straggler")

    def _drain_conn(self, w: _Worker, epoch: int, by_bid: dict,
                    results: dict, record_block_span
                    ) -> tuple[int, BaseException] | None:
        """Pump every buffered event from one worker; returns the first
        decoded ``(bid, exception)`` for the current epoch, if any."""
        error: tuple[int, BaseException] | None = None
        while True:
            try:
                if not w.conn.poll():
                    return error
                msg = w.conn.recv()
            except (EOFError, OSError):
                if w.wid in self._workers:
                    b = w.busy
                    if b is not None and b[0] == epoch:
                        t = by_bid[b[1]]
                        t.inflight.discard(w.wid)
                        if (b[1] not in results and not t.inflight):
                            by_bid[b[1]].not_before = 0.0
                    self._reap_worker(w, "death", "pipe EOF")
                return error
            kind = msg[0]
            w.last_event = time.monotonic()
            if kind == "start":
                continue
            if kind == "hb":
                if len(msg) > 5 and msg[5] is not None:
                    w.last_progress = msg[5]
                continue
            if kind == "ok":
                _, wid, m_epoch, bid, attempt, payload, shipped = msg
            else:
                _, wid, m_epoch, bid, attempt, payload = msg
                shipped = None
            w.busy = None
            if m_epoch != epoch or bid in results:
                # stale epoch or late duplicate: discard — shipped
                # telemetry rides the result, so it is dropped by
                # exactly the same test (no double accounting)
                continue
            t = by_bid[bid]
            t.inflight.discard(wid)
            if kind == "ok":
                results[bid] = payload
                record_block_span(t, wid, attempt, shipped)
            elif kind == "err":
                exc = _decode_exc(payload)
                if error is None or bid < error[0]:
                    error = (bid, exc)
        return error

    def _check_attempts(self, tasks: list[_Task], results: dict,
                        pending: deque, losses_before: int) -> None:
        for t in tasks:
            if (t.bid not in results and not t.inflight
                    and t.bid not in pending):
                # lost with no live copy: re-queue if budget remains
                if t.dispatches < self.max_dispatches:
                    pending.appendleft(t.bid)
                else:
                    raise WorkerPoolError(
                        f"block [{t.lo}, {t.hi}) failed all "
                        f"{self.max_dispatches} dispatch attempts",
                        backend=self.name,
                        losses=self.worker_losses[losses_before:])

    # -- lifecycle ------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        for w in list(self._workers.values()):
            if w.busy is None:
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            else:
                try:
                    w.proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + 2.0
        for w in list(self._workers.values()):
            w.proc.join(max(deadline - time.monotonic(), 0.1))
            if w.proc.is_alive():
                try:
                    w.proc.kill()
                    w.proc.join(0.5)
                except OSError:
                    pass
            try:
                w.conn.close()
            except OSError:
                pass
        self._workers.clear()


# ---------------------------------------------------------------------------
# the graceful-degradation ladder
# ---------------------------------------------------------------------------

class DegradationLadder:
    """process → thread → serial, demoting on structural failure.

    Rungs are lazy (a thread pool only exists if the process rung ever
    demotes).  ``map_blocks`` re-executes the *whole call* on the next
    rung after a :class:`~repro.resilience.errors.WorkerPoolError` —
    sound because blocks are pure functions of ``(lo, hi)``.  Demotions
    are permanent for the ladder's lifetime and recorded (with worker
    losses) for :class:`~repro.resilience.retry.SolveProvenance`.
    """

    def __init__(self, rungs: list[tuple[str, Any]]) -> None:
        if not rungs:
            raise ValueError("ladder needs at least one rung")
        self._rungs = rungs              # [(name, factory-or-instance)]
        self._instances: dict[int, Any] = {}
        self._rung = 0
        self.demotions: list[Demotion] = []
        self.worker_losses: list[WorkerLoss] = []

    @classmethod
    def for_backend(cls, name: str, *, n_workers: int | None = None,
                    **process_opts: Any) -> "DegradationLadder":
        """The standard ladder starting at ``name``
        (``process``/``thread``/``serial``)."""
        if name not in BACKEND_NAMES:
            raise InputValidationError(
                f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
        rungs: list[tuple[str, Any]] = []
        if name == "process":
            rungs.append(("process", lambda: ProcessForkJoinPool(
                n_workers, **process_opts)))
        if name in ("process", "thread"):
            rungs.append(("thread", lambda: ForkJoinPool(n_workers)))
        rungs.append(("serial", SerialBackend))
        return cls(rungs)

    # -- protocol surface ----------------------------------------------

    @property
    def name(self) -> str:
        return self._rungs[self._rung][0]

    @property
    def n_workers(self) -> int:
        return self._instance().n_workers

    def _instance(self) -> Any:
        be = self._instances.get(self._rung)
        if be is None:
            factory = self._rungs[self._rung][1]
            be = factory() if callable(factory) else factory
            self._instances[self._rung] = be
        return be

    def _demote(self, reason: str) -> None:
        old_name = self._rungs[self._rung][0]
        old = self._instances.get(self._rung)
        if old is not None:
            self.worker_losses.extend(getattr(old, "worker_losses", ()))
            try:
                old.shutdown()
            except OSError:
                pass
            self._instances.pop(self._rung, None)
        self._rung += 1
        new_name = self._rungs[self._rung][0]
        self.demotions.append(Demotion(old_name, new_name, reason))
        metric_inc("repro_backend_demotions_total",
                   from_backend=old_name, to_backend=new_name)

    def map_blocks(self, n: int, fn: BlockFn, args: tuple = (), *,
                   grain: int | None = None) -> list:
        while True:
            be = self._instance()
            try:
                return be.map_blocks(n, fn, args, grain=grain)
            except WorkerPoolError as exc:
                if self._rung >= len(self._rungs) - 1:
                    raise
                self._demote(f"{type(exc).__name__}: {exc}")

    def live_status(self) -> dict[str, Any]:
        """Current rung's worker liveness (``/progress``), without
        instantiating a rung that never ran."""
        be = self._instances.get(self._rung)
        inner = getattr(be, "live_status", None)
        status: dict[str, Any] = (inner() if callable(inner) else {
            "backend": self.name,
            "n_workers": getattr(be, "n_workers", None),
        })
        status["rung"] = self.name
        status["demotions"] = len(self.demotions)
        return status

    def telemetry(self) -> dict[str, Any]:
        """Backend provenance: current rung, demotions, worker losses."""
        losses = list(self.worker_losses)
        current = self._instances.get(self._rung)
        if current is not None:
            losses.extend(getattr(current, "worker_losses", ()))
        return {"backend": self.name,
                "demotions": [d.to_json() for d in self.demotions],
                "worker_losses": [loss.to_json() for loss in losses]}

    def shutdown(self) -> None:
        for be in self._instances.values():
            try:
                be.shutdown()
            except OSError:
                pass
        self._instances.clear()

    def __enter__(self) -> "DegradationLadder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def resolve_backend(spec: Any, *, n_workers: int | None = None,
                    **process_opts: Any):
    """Normalise the public ``backend=`` argument.

    ``None`` stays ``None`` (classic in-process execution); a string
    becomes the standard :class:`DegradationLadder` for that rung; an
    object with a callable ``map_blocks`` and ``shutdown`` passes through
    unchanged, and anything else raises
    :class:`~repro.resilience.errors.InputValidationError`.  The check
    reads attributes instead of ``isinstance(spec, ExecutionBackend)``,
    which would evaluate a ladder's ``n_workers`` and start its first
    rung.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        return DegradationLadder.for_backend(spec, n_workers=n_workers,
                                             **process_opts)
    if not (callable(getattr(spec, "map_blocks", None))
            and callable(getattr(spec, "shutdown", None))):
        raise InputValidationError(
            f"backend must be a backend name or an object with map_blocks "
            f"and shutdown, got {type(spec).__name__}")
    return spec


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessForkJoinPool",
    "DegradationLadder",
    "Demotion",
    "WorkerLoss",
    "RemoteTraceback",
    "resolve_backend",
]
