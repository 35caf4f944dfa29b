"""Optional real-thread execution of parallel-for bodies.

The library's algorithms are written against the cost-model primitives and
run sequentially by default (correct and fast under CPython's GIL on a
single-core host).  This module provides a small fork-join executor so the
same parallel-for *structure* can be demonstrated on real threads — useful on
free-threaded builds or when bodies release the GIL (numpy kernels).

The executor is deliberately simple: a persistent thread pool plus a
``parallel_for`` that block-partitions an index range, mirroring the static
scheduling idiom of the HPC guides.  Determinism is preserved because bodies
write to disjoint slices.

Two failure channels are handled explicitly:

* a worker exception cancels every block not yet started, drains the ones
  already running, and re-raises the first failure (in block-submission
  order) — later blocks never keep computing behind a doomed loop;
* a cooperative :class:`~repro.resilience.preempt.CancelToken` (passed
  explicitly or installed ambiently via
  :func:`~repro.resilience.preempt.cancel_scope`) is honoured at loop
  entry, before each block is dispatched, and at the start of each block's
  body; a cancelled loop stops dispatching, drains in-flight blocks, and
  raises :class:`~repro.resilience.errors.CancelledError` — never killing
  a thread mid-write.

Each block runs in its own :func:`contextvars.copy_context` of the
submitting thread, so a block sees the run context
(:mod:`repro.runcontext`) it would see on the serial backend: the
tracer, registry, cancel token, budget guard and race checker.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextvars import copy_context
from functools import partial
from typing import Any, Callable

from ..observability.metrics import metric_inc
from ..observability.tracer import current_tracer, trace_span
from ..resilience.preempt import CancelToken, current_token
from .racecheck import RaceChecker, current_race_checker

# fn(lo, hi, *args) -> a picklable result for the block; see map_blocks
BlockFn = Callable[..., Any]


def _in_copied_context(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` bound to a copy of the calling thread's run context — one
    copy per submitted block, because a context cannot be entered by two
    threads at once."""
    return partial(copy_context().run, fn)


def checked_map_blocks(checker: RaceChecker, n: int, fn: BlockFn,
                       args: tuple, grain: int,
                       token: CancelToken | None) -> list:
    """Shadow-memory path shared by every backend's ``map_blocks``: run
    the checker's *logical* blocks sequentially under fork-tree task
    tags, so findings are identical for serial, thread, and process
    backends at any worker count."""
    region = checker.open_region()
    blocks = checker.blocks_for(n, grain)
    step = (n + blocks - 1) // blocks
    out = []
    with trace_span("map-blocks", phase="runtime", n=n,
                    blocks=blocks, workers=1) as psp:
        for bi, lo in enumerate(range(0, n, step)):
            if token is not None:
                token.check("map_blocks:block")
            with checker.task(region, bi):
                out.append(fn(lo, min(lo + step, n), *args))
        psp.count("blocks_run", len(out))
        if token is not None:
            token.check("map_blocks:join")
    return out


class ForkJoinPool:
    """A tiny fork-join pool for block-partitioned parallel loops.

    Doubles as the ``thread`` rung of the execution-backend ladder (see
    :mod:`repro.runtime.backends`): it satisfies the
    :class:`~repro.runtime.backends.ExecutionBackend` protocol with both
    the shared-memory :meth:`parallel_for` and the pure-function
    :meth:`map_blocks` contracts.
    """

    name = "thread"
    supports_shared_memory = True

    def __init__(self, n_workers: int | None = None, *,
                 grain: int = 1024) -> None:
        if n_workers is None:
            n_workers = min(8, os.cpu_count() or 1)
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.grain = grain
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
        )
        self._closed = False
        self._lock = threading.Lock()

    def parallel_for(self, n: int, body: Callable[[int, int], None],
                     grain: int = 1024,
                     token: CancelToken | None = None) -> None:
        """Run ``body(lo, hi)`` over a block partition of ``range(n)``.

        Blocks are disjoint, so bodies may write to disjoint output slices
        without synchronisation.  Falls back to one sequential call when the
        range is small or the pool has a single worker.

        ``token`` (defaulting to the ambient
        :func:`~repro.resilience.preempt.current_token`) makes the loop
        preemptible: cancellation observed before/under dispatch stops new
        blocks, already-running blocks drain, and
        :class:`~repro.resilience.errors.CancelledError` is raised after
        the join.  On a worker exception, pending blocks are cancelled and
        the first exception (in submission order) is re-raised once every
        started block has finished.
        """
        if self._closed:
            raise RuntimeError("parallel_for on a shut-down ForkJoinPool")
        if token is None:
            token = current_token()
        if token is not None:
            token.check("parallel_for")
        if n <= 0:
            return
        checker = current_race_checker()
        if checker is not None:
            # Shadow-memory mode: partition into the checker's *logical*
            # blocks (a function of the loop, not of pool size) and run
            # them sequentially under fork-tree task tags — logical races
            # are detected identically at 1, 2, or 8 workers, and no
            # physical schedule can hide one.
            region = checker.open_region()
            blocks = checker.blocks_for(n, grain)
            step = (n + blocks - 1) // blocks
            with trace_span("parallel-for", phase="runtime", n=n,
                            blocks=blocks, workers=self.n_workers) as psp:
                nrun = 0
                for bi, lo in enumerate(range(0, n, step)):
                    if token is not None:
                        token.check("parallel_for:block")
                    with checker.task(region, bi):
                        body(lo, min(lo + step, n))
                    nrun += 1
                psp.count("blocks_run", nrun)
                if token is not None:
                    token.check("parallel_for:join")
            return
        if self._pool is None or n <= grain:
            with trace_span("parallel-for", phase="runtime", n=n,
                            blocks=1, workers=1) as psp:
                psp.count("blocks_run", 1)
                body(0, n)
            return
        # a few blocks per worker (not one): stragglers rebalance, and a
        # failure or cancellation can actually cancel a queued tail
        blocks = min(max(1, n // grain), 4 * self.n_workers)
        step = (n + blocks - 1) // blocks

        if token is None:
            run_block = body
        else:
            def run_block(lo: int, hi: int) -> None:
                token.check("parallel_for:block")
                body(lo, hi)

        with trace_span("parallel-for", phase="runtime", n=n, blocks=blocks,
                        workers=self.n_workers) as psp:
            tracer = current_tracer()
            if tracer is not None:
                # worker threads record detached block spans under the
                # dispatch span (they must not touch the main parent stack)
                dispatch_sid = psp.span.sid
                inner_block = run_block

                def run_block(lo: int, hi: int) -> None:
                    with tracer.span("parallel-for-block",
                                     parent=dispatch_sid, detached=True,
                                     phase="runtime", lo=lo, hi=hi):
                        inner_block(lo, hi)

            futures = []
            for lo in range(0, n, step):
                if token is not None and token.cancelled:
                    break  # stop dispatching; drain blocks in flight
                futures.append(self._pool.submit(
                    _in_copied_context(run_block), lo, min(lo + step, n)))
            psp.count("blocks_run", len(futures))

            self._join_or_raise(futures)
            if token is not None:
                token.check("parallel_for:join")

    @staticmethod
    def _join_or_raise(futures) -> None:
        """Join every started block; on failure cancel the queued tail,
        drain, and re-raise the first failure in submission order *with
        the worker's original traceback* — the frame inside the block
        body must stay visible to the caller's except/debugger."""
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        failed = any(not f.cancelled() and f.exception() is not None
                     for f in done)
        if failed or not_done:
            for f in not_done:
                f.cancel()
            wait(futures)  # drain blocks that were already running
        for f in futures:  # re-raise first failure in submission order
            if not f.cancelled() and f.exception() is not None:
                exc = f.exception()
                raise exc.with_traceback(exc.__traceback__)

    def map_blocks(self, n: int, fn: BlockFn, args: tuple = (), *,
                   grain: int | None = None,
                   token: CancelToken | None = None) -> list:
        """Run ``fn(lo, hi, *args)`` over a block partition of
        ``range(n)`` and return the per-block results in block order.

        This is the *pure-function* sibling of :meth:`parallel_for` and
        the portable backend contract: ``fn`` must be a deterministic
        function of ``(lo, hi, *args)`` with no shared-memory writes, so
        any backend (serial, thread, process) may execute, duplicate, or
        re-execute blocks and the concatenated results stay
        bit-identical.  Cancellation and failure semantics match
        :meth:`parallel_for`.
        """
        if self._closed:
            raise RuntimeError("map_blocks on a shut-down ForkJoinPool")
        if token is None:
            token = current_token()
        if token is not None:
            token.check("map_blocks")
        if n <= 0:
            return []
        g = self.grain if grain is None else grain
        checker = current_race_checker()
        if checker is not None:
            return checked_map_blocks(checker, n, fn, args, g, token)
        if self._pool is None or n <= g:
            with trace_span("map-blocks", phase="runtime", n=n,
                            blocks=1, workers=1,
                            backend=self.name) as psp:
                psp.count("blocks_run", 1)
                out = [fn(0, n, *args)]
            metric_inc("repro_blocks_completed_total", backend=self.name)
            if token is not None:
                token.check("map_blocks:join")
            return out
        blocks = min(max(1, n // g), 4 * self.n_workers)
        step = (n + blocks - 1) // blocks

        def run_block(lo: int, hi: int):
            if token is not None:
                token.check("map_blocks:block")
            return fn(lo, hi, *args)

        with trace_span("map-blocks", phase="runtime", n=n, blocks=blocks,
                        workers=self.n_workers, backend=self.name) as psp:
            tracer = current_tracer()
            if tracer is not None:
                dispatch_sid = psp.span.sid
                inner_block = run_block

                def run_block(lo: int, hi: int):
                    with tracer.span("map-blocks-block",
                                     parent=dispatch_sid, detached=True,
                                     phase="runtime", lo=lo, hi=hi,
                                     backend=self.name):
                        return inner_block(lo, hi)

            futures = []
            for lo in range(0, n, step):
                if token is not None and token.cancelled:
                    break  # stop dispatching; drain blocks in flight
                futures.append(self._pool.submit(
                    _in_copied_context(run_block), lo, min(lo + step, n)))
            psp.count("blocks_run", len(futures))
            self._join_or_raise(futures)
            if token is not None:
                token.check("map_blocks:join")
            out = [f.result() for f in futures]
            metric_inc("repro_blocks_completed_total", len(futures),
                       backend=self.name)
            return out

    def shutdown(self) -> None:
        """Release the worker threads; idempotent (extra calls are no-ops)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ForkJoinPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_default_pool: ForkJoinPool | None = None
_default_lock = threading.Lock()


def default_pool() -> ForkJoinPool:
    """Process-wide lazily created pool (size = CPU count, capped at 8).

    A shut-down default pool is replaced by a fresh one on the next call:
    ``shutdown()`` (direct, or via the context manager) must never leave
    the module-global permanently broken for later ``parallel_for``
    users.
    """
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool._closed:
            _default_pool = ForkJoinPool()
        return _default_pool
