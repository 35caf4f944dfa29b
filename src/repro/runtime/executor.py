"""Fork–join execution of pure block functions.

The library's algorithms are written against the cost-model primitives and
run sequentially by default (correct and fast under CPython's GIL on a
single-core host).  Work reaches a real execution backend through one
contract, ``map_blocks(n, fn, args)``: ``fn(lo, hi, *args)`` is a
deterministic function of its block of ``range(n)`` and returns that
block's result, so any backend may run, duplicate or re-run blocks and
the per-block results stay bit-identical.

:class:`BlockPool` is that contract's front, shared by every backend: the
shut-down check, the cancel token, the empty range, the race-checker
route and the inline one-block path.  A backend supplies only
:meth:`BlockPool._map_many`, the dispatch of two or more blocks.
:class:`ForkJoinPool` dispatches them to a persistent thread pool — useful
on free-threaded builds or when blocks release the GIL (numpy kernels);
the process pool lives in :mod:`repro.runtime.backends`.

Two failure channels are handled explicitly:

* a block exception cancels every block not yet started, drains the ones
  already running, and re-raises the first failure (in block order) —
  later blocks never keep computing behind a doomed call;
* the ambient :class:`~repro.resilience.preempt.CancelToken` is honoured
  at entry, before each block is dispatched, at the start of each block,
  and at the join; a cancelled call stops dispatching, drains in-flight
  blocks, and raises :class:`~repro.resilience.errors.CancelledError` —
  never killing a thread mid-write.

Each thread-pool block runs in its own :func:`contextvars.copy_context`
of the submitting thread, so a block sees the run context
(:mod:`repro.runcontext`) it would see on the serial backend: the
tracer, registry, cancel token, budget guard and race checker.
"""

from __future__ import annotations

import numbers
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextvars import copy_context
from functools import partial
from typing import Any, Callable, TypeVar

from ..observability.metrics import metric_inc
from ..observability.tracer import current_tracer, trace_span
from ..resilience.errors import InputValidationError
from ..resilience.preempt import check_cancelled, current_token
from .racecheck import RaceChecker, current_race_checker

# fn(lo, hi, *args) -> a picklable result for the block; see map_blocks
BlockFn = Callable[..., Any]
_Pool = TypeVar("_Pool", bound="BlockPool")


def _in_copied_context(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` bound to a copy of the calling thread's run context — one
    copy per submitted block, because a context cannot be entered by two
    threads at once."""
    return partial(copy_context().run, fn)


def check_count(name: str, value: Any, minimum: int) -> int:
    """``value`` as an ``int``, or :class:`InputValidationError` unless it
    is an integer (not a bool) of at least ``minimum``: a zero grain would
    divide by zero, a negative one run one inline block."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise InputValidationError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def checked_map_blocks(checker: RaceChecker, n: int, fn: BlockFn,
                       args: tuple, grain: int) -> list:
    """Shadow-memory path of every backend's ``map_blocks``: run the
    checker's *logical* blocks sequentially under fork-tree task tags,
    so findings are identical for serial, thread, and process backends
    at any worker count."""
    region = checker.open_region()
    blocks = checker.blocks_for(n, grain)
    step = (n + blocks - 1) // blocks
    out = []
    with trace_span("map-blocks", phase="runtime", n=n,
                    blocks=blocks, workers=1) as psp:
        for bi, lo in enumerate(range(0, n, step)):
            check_cancelled("map_blocks:block")
            with checker.task(region, bi):
                out.append(fn(lo, min(lo + step, n), *args))
        psp.count("blocks_run", len(out))
        check_cancelled("map_blocks:join")
    return out


class BlockPool:
    """The ``map_blocks`` front every execution backend shares.

    Subclasses set ``name``, ``n_workers``, ``grain`` and ``_closed``
    and implement :meth:`_map_many` and :meth:`shutdown`; everything else
    about a call — its checks, its race-checker route and its inline
    path — lives here, once.
    """

    name: str
    n_workers: int
    grain: int
    _closed: bool

    def _inline(self, blocks: int) -> bool:
        """Whether a call planned as ``blocks`` blocks runs as one
        in-process block."""
        return blocks <= 1

    def map_blocks(self, n: int, fn: BlockFn, args: tuple = (), *,
                   grain: int | None = None) -> list:
        """Run ``fn(lo, hi, *args)`` over a block partition of
        ``range(n)`` and return the per-block results in block order.

        ``fn`` must be a deterministic function of ``(lo, hi, *args)``
        with no shared-memory writes, so any backend (serial, thread,
        process) may execute, duplicate, or re-execute blocks and the
        concatenated results stay bit-identical.  The ambient cancel
        token is checked at entry, per block and at the join.
        """
        if self._closed:
            raise RuntimeError(
                f"map_blocks on a shut-down {type(self).__name__}")
        g = self.grain if grain is None else check_count("grain", grain, 1)
        check_cancelled("map_blocks")
        if n <= 0:
            return []
        checker = current_race_checker()
        if checker is not None:
            # logical blocks, sequential, in-process: findings do not
            # depend on the backend or its pool size
            return checked_map_blocks(checker, n, fn, args, g)
        # a few blocks per worker (not one): stragglers rebalance, and a
        # failure or cancellation can cancel a queued tail
        blocks = min(max(1, n // g), 4 * self.n_workers)
        if self._inline(blocks):
            with trace_span("map-blocks", phase="runtime", n=n,
                            blocks=1, workers=1,
                            backend=self.name) as psp:
                psp.count("blocks_run", 1)
                out = [fn(0, n, *args)]
            metric_inc("repro_blocks_completed_total", backend=self.name)
        else:
            step = (n + blocks - 1) // blocks
            bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
            with trace_span("map-blocks", phase="runtime", n=n,
                            blocks=len(bounds), workers=self.n_workers,
                            backend=self.name) as psp:
                out = self._map_many(bounds, fn, args, psp)
        check_cancelled("map_blocks:join")
        return out

    def _map_many(self, bounds: list[tuple[int, int]], fn: BlockFn,
                  args: tuple, psp: Any) -> list:
        """Results of ``fn`` on each ``(lo, hi)`` of ``bounds``, in
        order, dispatched inside the call's ``map-blocks`` span
        ``psp``."""
        raise NotImplementedError

    def __enter__(self: _Pool) -> _Pool:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        raise NotImplementedError


class ForkJoinPool(BlockPool):
    """A tiny fork-join thread pool: the ``thread`` rung of the
    execution-backend ladder (see :mod:`repro.runtime.backends`)."""

    name = "thread"

    def __init__(self, n_workers: int | None = None, *,
                 grain: int = 1024) -> None:
        if n_workers is None:
            n_workers = min(8, os.cpu_count() or 1)
        self.n_workers = check_count("n_workers", n_workers, 1)
        self.grain = check_count("grain", grain, 1)
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
        )
        self._closed = False
        self._lock = threading.Lock()

    def _inline(self, blocks: int) -> bool:
        return blocks <= 1 or self._pool is None

    def _map_many(self, bounds: list[tuple[int, int]], fn: BlockFn,
                  args: tuple, psp: Any) -> list:
        assert self._pool is not None
        token = current_token()

        def run_block(lo: int, hi: int):
            # runs in a copy of this thread's context: the same token
            check_cancelled("map_blocks:block")
            return fn(lo, hi, *args)

        tracer = current_tracer()
        if tracer is not None:
            # worker threads record detached block spans under the
            # dispatch span (they must not touch the main parent stack)
            dispatch_sid = psp.span.sid
            inner_block = run_block

            def run_block(lo: int, hi: int):
                with tracer.span("map-blocks-block",
                                 parent=dispatch_sid, detached=True,
                                 phase="runtime", lo=lo, hi=hi,
                                 backend=self.name):
                    return inner_block(lo, hi)

        futures = []
        for lo, hi in bounds:
            if token is not None and token.cancelled:
                break  # stop dispatching; drain blocks in flight
            futures.append(self._pool.submit(
                _in_copied_context(run_block), lo, hi))
        psp.count("blocks_run", len(futures))
        self._join_or_raise(futures)
        metric_inc("repro_blocks_completed_total", len(futures),
                   backend=self.name)
        return [f.result() for f in futures]

    @staticmethod
    def _join_or_raise(futures) -> None:
        """Join every started block; on failure cancel the queued tail,
        drain, and re-raise the first failure in submission order *with
        the worker's original traceback* — the frame inside the block
        function must stay visible to the caller's except/debugger."""
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

    def shutdown(self) -> None:
        """Release the worker threads; idempotent (extra calls are no-ops)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
