"""Tests for the fork-join thread executor's ``map_blocks``."""

import threading
import time

import numpy as np
import pytest

from repro.resilience import CancelToken, Deadline, cancel_scope
from repro.resilience.errors import CancelledError, DeadlineExceededError
from repro.runtime import ForkJoinPool


def _bounds(lo, hi):
    return (lo, hi)


class TestForkJoinPool:
    def test_sequential_fallback(self):
        ident = threading.get_ident()
        with ForkJoinPool(n_workers=1) as pool:
            out = pool.map_blocks(10_000, lambda lo, hi: (
                threading.get_ident(), np.arange(lo, hi)), grain=10)
        # one worker: the whole range is one block on the caller's thread
        assert len(out) == 1 and out[0][0] == ident
        np.testing.assert_array_equal(out[0][1], np.arange(10_000))

    def test_threaded_blocks_disjoint(self):
        n = 50_000
        with ForkJoinPool(n_workers=4) as pool:
            out = pool.map_blocks(n, _bounds, grain=1000)
        assert len(out) > 1
        assert out[0][0] == 0 and out[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(out, out[1:]))

    def test_empty_range(self):
        called = []
        with ForkJoinPool(n_workers=2) as pool:
            assert pool.map_blocks(
                0, lambda lo, hi: called.append((lo, hi))) == []
        assert called == []

    def test_small_range_single_call(self):
        with ForkJoinPool(n_workers=4) as pool:
            assert pool.map_blocks(10, _bounds, grain=1024) == [(0, 10)]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ForkJoinPool(n_workers=0)

    def test_exception_propagates(self):
        def body(lo, hi):
            raise RuntimeError("boom")

        with ForkJoinPool(n_workers=2) as pool:
            with pytest.raises(RuntimeError):
                pool.map_blocks(10_000, body, grain=10)


class TestErrorHandling:
    """Satellite: first failure cancels pending blocks and is re-raised."""

    def test_first_exception_in_submission_order_wins(self):
        barrier = threading.Barrier(2, timeout=5)

        def body(lo, hi):
            # two workers fail "simultaneously"; the re-raised error must
            # be the earliest *block's*, independent of wall-clock order
            barrier.wait()
            if lo == 0:
                time.sleep(0.05)
                raise ValueError("block-0")
            raise KeyError("block-1")

        with ForkJoinPool(n_workers=2) as pool:
            with pytest.raises(ValueError, match="block-0"):
                pool.map_blocks(2_000, body, grain=10)

    def test_failure_cancels_not_yet_started_blocks(self):
        ran = []
        lock = threading.Lock()
        release = threading.Event()

        def body(lo, hi):
            if lo == 0:
                raise RuntimeError("early failure")
            release.wait(timeout=5)
            with lock:
                ran.append(lo)

        # 8 blocks on 1 pooled worker thread... use 2 workers, 8 blocks:
        # the failure in block 0 must cancel the queued tail even though
        # one long block is still draining
        pool = ForkJoinPool(n_workers=2)
        try:
            t = threading.Timer(0.1, release.set)
            t.start()
            with pytest.raises(RuntimeError, match="early failure"):
                pool.map_blocks(8_000, body, grain=10)
            t.join()
            # the queued tail was cancelled: of the 7 non-failing blocks,
            # only the ones a worker had already picked up (at most one
            # per worker) may complete
            assert len(ran) <= 2
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = ForkJoinPool(n_workers=2)
        pool.shutdown()
        pool.shutdown()  # second call is a no-op, not an error

    def test_context_manager_shuts_down(self):
        with ForkJoinPool(n_workers=2) as pool:
            pass
        assert pool._pool is None  # the worker threads were released
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.map_blocks(10, lambda lo, hi: None)


class TestCancellation:
    """Satellite/tentpole: the pool is cancellation-aware."""

    def test_precancelled_token_raises_before_any_block(self):
        tok = CancelToken()
        tok.cancel("stop")
        calls = []
        with ForkJoinPool(n_workers=2) as pool, cancel_scope(tok):
            with pytest.raises(CancelledError):
                pool.map_blocks(10_000, lambda lo, hi: calls.append(lo),
                                grain=10)
        assert calls == []

    def test_expired_deadline_raises_deadline_error(self):
        tok = CancelToken(Deadline(0.0, clock=lambda: 1.0))
        with ForkJoinPool(n_workers=2) as pool, cancel_scope(tok):
            with pytest.raises(DeadlineExceededError):
                pool.map_blocks(10_000, lambda lo, hi: None, grain=10)

    def test_cancel_stops_dispatch_and_raises_after_drain(self, monkeypatch):
        tok = CancelToken()
        pool = ForkJoinPool(n_workers=2)
        real_submit = pool._pool.submit
        submitted = []

        def counting_submit(fn, lo, hi):
            f = real_submit(fn, lo, hi)
            submitted.append(lo)
            if len(submitted) == 1:  # cancel mid-dispatch
                tok.cancel("mid-dispatch stop")
            return f

        monkeypatch.setattr(pool._pool, "submit", counting_submit)
        try:
            with pytest.raises(CancelledError), cancel_scope(tok):
                # 2 workers and tiny grain would normally dispatch 8 blocks
                pool.map_blocks(4_000, lambda lo, hi: None, grain=10)
            assert len(submitted) == 1  # dispatch stopped at the cancel
        finally:
            pool.shutdown()

    def test_body_cancel_still_raises_after_completion(self):
        tok = CancelToken()
        done = []

        def body(lo, hi):
            done.append(lo)
            tok.cancel("from inside")

        with ForkJoinPool(n_workers=2) as pool, cancel_scope(tok):
            with pytest.raises(CancelledError):
                pool.map_blocks(4_000, body, grain=10)
        assert done  # blocks that started drained cleanly

    def test_ambient_token_via_cancel_scope(self):
        tok = CancelToken()
        tok.cancel("ambient")
        with ForkJoinPool(n_workers=2) as pool:
            with cancel_scope(tok):
                with pytest.raises(CancelledError):
                    pool.map_blocks(10_000, lambda lo, hi: None, grain=10)
            pool.map_blocks(100, lambda lo, hi: None)  # scope popped


class TestTracebackPreservation:
    """Satellite: a block's exception reaches the caller with the
    block-frame traceback intact, not an opaque re-raise."""

    def test_block_frame_visible_in_traceback(self):
        import traceback

        def exploding_block_body(lo, hi):
            raise ValueError(f"kaboom in [{lo}, {hi})")

        with ForkJoinPool(n_workers=2) as pool:
            with pytest.raises(ValueError, match="kaboom") as ei:
                pool.map_blocks(4_000, exploding_block_body, grain=10)
        frames = traceback.format_exception(
            ei.type, ei.value, ei.value.__traceback__)
        text = "".join(frames)
        assert "exploding_block_body" in text
        assert "kaboom in" in text

    def test_map_blocks_preserves_traceback_too(self):
        import traceback

        def exploding_map_block(lo, hi):
            raise KeyError("map-kaboom")

        with ForkJoinPool(n_workers=2) as pool:
            with pytest.raises(KeyError) as ei:
                pool.map_blocks(4_000, exploding_map_block, grain=10)
        text = "".join(traceback.format_exception(
            ei.type, ei.value, ei.value.__traceback__))
        assert "exploding_map_block" in text


class TestMapBlocksThreaded:
    """The thread pool's side of the portable ``map_blocks`` contract."""

    def test_results_concatenate_in_order(self):
        arr = np.arange(1000)
        with ForkJoinPool(n_workers=4) as pool:
            out = pool.map_blocks(1000, lambda lo, hi: arr[lo:hi] * 2,
                                  grain=100)
        assert len(out) > 1
        assert np.array_equal(np.concatenate(out), arr * 2)

    def test_small_n_runs_inline(self):
        ident = threading.get_ident()
        seen = []

        def body(lo, hi):
            seen.append(threading.get_ident())
            return hi - lo

        with ForkJoinPool(n_workers=4) as pool:
            assert pool.map_blocks(50, body, grain=100) == [50]
        assert seen == [ident]  # caller thread, no dispatch

    def test_precancelled_token_raises(self):
        tok = CancelToken()
        tok.cancel("stop")
        with ForkJoinPool(n_workers=2) as pool, cancel_scope(tok):
            with pytest.raises(CancelledError):
                pool.map_blocks(1000, lambda lo, hi: None, grain=10)

    def test_after_shutdown_raises(self):
        pool = ForkJoinPool(n_workers=2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.map_blocks(10, lambda lo, hi: None)

    def test_thread_backend_surface(self):
        with ForkJoinPool(n_workers=2) as pool:
            assert pool.name == "thread"
            assert pool.n_workers == 2
