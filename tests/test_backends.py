"""Execution-backend suite: the fault-tolerant process pool, the
degradation ladder, and backend-invariant results.

Worker-process block functions must be module-level (picklable by
reference); every timing knob is turned small so recovery paths run in
tenths of a second.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.baselines.bellman_ford import bellman_ford, bellman_ford_parallel
from repro.core.sssp import solve_sssp, solve_sssp_resilient
from repro.graph.generators import bf_hard_graph, hidden_potential_graph
from repro.observability.metrics import MetricsRegistry, metering
from repro.resilience.errors import (
    CancelledError,
    DeadlineExceededError,
    InputValidationError,
    WorkerPoolError,
)
from repro.resilience.faults import (
    SYSTEMIC_SITES,
    FaultPlan,
    FaultSpec,
    WorkerFaults,
    fault_scope,
)
from repro.resilience.preempt import (
    CancelToken,
    Deadline,
    cancel_scope,
    check_cancelled,
)
from repro.runtime.backends import (
    BACKEND_NAMES,
    DegradationLadder,
    ExecutionBackend,
    ProcessForkJoinPool,
    RemoteTraceback,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.executor import ForkJoinPool
from repro.runtime.racecheck import race_checking


# ---------------------------------------------------------------------------
# module-level block functions (the picklable map_blocks contract)
# ---------------------------------------------------------------------------

def _square(lo, hi, arr):
    return arr[lo:hi] ** 2


def _ident(lo, hi):
    return list(range(lo, hi))


def _boom(lo, hi):
    if lo >= 40:
        raise ValueError(f"boom at {lo}")
    return lo


def _napping(lo, hi, naps, nap):
    for _ in range(naps):
        time.sleep(nap)
        check_cancelled("test:block")
    return lo


def _slow(lo, hi, seconds):
    time.sleep(seconds)
    return lo


def _pid(lo, hi):
    return os.getpid()


ARR = np.arange(100)


def fast_pool(n_workers=2, **kw):
    kw.setdefault("grain", 8)
    kw.setdefault("heartbeat_interval", 0.02)
    kw.setdefault("liveness_timeout", 0.5)
    kw.setdefault("backoff_base", 0.01)
    kw.setdefault("straggler_factor", 100.0)  # no duplicates unless asked
    return ProcessForkJoinPool(n_workers, **kw)


# ---------------------------------------------------------------------------
# protocol and plumbing
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "thread", "process")

    @pytest.mark.parametrize("make,name,in_process", [
        (SerialBackend, "serial", True),
        (ForkJoinPool, "thread", True),
        (lambda: ProcessForkJoinPool(1), "process", False),
    ])
    def test_backend_surface(self, make, name, in_process):
        be = make()
        try:
            assert be.name == name
            assert be.n_workers >= 1
            for attr in ("map_blocks", "shutdown"):
                assert callable(getattr(be, attr))
            assert not hasattr(be, "parallel_for")
            # the process rung runs a multi-block call in its workers
            pids = set(be.map_blocks(64, _pid, grain=8))
            assert (pids == {os.getpid()}) is in_process
        finally:
            be.shutdown()

    def test_protocol_declares_one_loop_contract(self):
        members = {k for k in vars(ExecutionBackend)
                   if not k.startswith("_")} | set(
            ExecutionBackend.__annotations__)
        assert members == {"name", "n_workers", "map_blocks", "shutdown"}

    def test_resolve_backend(self):
        assert resolve_backend(None) is None
        lad = resolve_backend("process")
        assert isinstance(lad, DegradationLadder) and lad.name == "process"
        lad.shutdown()
        pool = SerialBackend()
        assert resolve_backend(pool) is pool
        pool.shutdown()
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    @pytest.mark.parametrize("spec", [42, object(), b"serial"])
    def test_resolve_backend_rejects_non_backends(self, spec):
        with pytest.raises(InputValidationError, match="map_blocks"):
            resolve_backend(spec)

    def test_resolve_backend_passes_a_ladder_without_starting_it(self):
        lad = DegradationLadder.for_backend("process", n_workers=2)
        assert resolve_backend(lad) is lad
        assert lad._instances == {}  # no rung was built
        lad.shutdown()

    def test_shutdown_idempotent_and_closed_raises(self):
        p = fast_pool()
        p.shutdown()
        p.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            p.map_blocks(10, _ident)


class TestTimingSettings:
    """A NaN liveness timeout makes every liveness comparison false, so a
    wedged worker is never reaped: the pool refuses non-finite
    timings."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("name", ["heartbeat_interval",
                                      "liveness_timeout",
                                      "straggler_factor"])
    def test_positive_settings_must_be_finite_and_positive(self, name,
                                                           value):
        with pytest.raises(InputValidationError, match=name):
            ProcessForkJoinPool(1, **{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), -0.5])
    @pytest.mark.parametrize("name", ["backoff_base", "backoff_cap"])
    def test_backoff_settings_must_be_finite_and_nonnegative(self, name,
                                                             value):
        with pytest.raises(InputValidationError, match=name):
            ProcessForkJoinPool(1, **{name: value})

    def test_zero_backoff_is_accepted(self):
        ProcessForkJoinPool(1, backoff_base=0.0, backoff_cap=0.0).shutdown()


_POOLS = {"serial": lambda **kw: SerialBackend(**kw),
          "thread": lambda **kw: ForkJoinPool(2, **kw),
          "process": lambda **kw: ProcessForkJoinPool(1, **kw)}


class TestCountSettings:
    """A zero grain divides by zero and a negative one silently runs one
    inline block; a negative loss budget fails every multi-block call
    with no worker lost.  Every pool refuses such counts up front."""

    @pytest.mark.parametrize("grain", [0, -3, True, 2.5])
    @pytest.mark.parametrize("pool", sorted(_POOLS))
    def test_grain_is_an_int_of_at_least_one(self, pool, grain):
        with pytest.raises(InputValidationError, match="grain"):
            _POOLS[pool](grain=grain)
        with _POOLS[pool](grain=4) as be:
            for n in (0, 10):
                with pytest.raises(InputValidationError, match="grain"):
                    be.map_blocks(n, _ident, grain=grain)

    def test_numpy_integer_grain_is_accepted(self):
        with ForkJoinPool(2, grain=np.int64(4)) as be:
            assert be.map_blocks(10, _ident, grain=np.int64(5)) == [
                list(range(5)), list(range(5, 10))]

    @pytest.mark.parametrize("make, name", [
        (lambda: ForkJoinPool(0), "n_workers"),
        (lambda: ProcessForkJoinPool(0), "n_workers"),
        (lambda: ProcessForkJoinPool(1, max_dispatches=0), "max_dispatches"),
        (lambda: ProcessForkJoinPool(1, max_worker_losses=-1, grain=8),
         "max_worker_losses"),
        (lambda: ProcessForkJoinPool(1, max_worker_losses=0.5),
         "max_worker_losses"),
    ])
    def test_counts_raise_input_validation_error(self, make, name):
        with pytest.raises(InputValidationError, match=name):
            make()

    def test_zero_worker_losses_is_accepted(self):
        ProcessForkJoinPool(1, max_worker_losses=0).shutdown()


# ---------------------------------------------------------------------------
# plain execution
# ---------------------------------------------------------------------------

class TestMapBlocks:
    def test_concatenation_is_partition_independent(self):
        # block *structure* may differ by worker count; the concatenated
        # result is the contract and must be bit-identical everywhere
        outs = {}
        for make in (lambda: SerialBackend(grain=8),
                     lambda: ForkJoinPool(2, grain=8), fast_pool):
            be = make()
            try:
                outs[be.name] = be.map_blocks(100, _square, (ARR,))
            finally:
                be.shutdown()
        for got in outs.values():
            assert np.array_equal(np.concatenate(got), ARR ** 2)
        # same worker count + grain => same block partition, in order
        assert [len(b) for b in outs["thread"]] == \
               [len(b) for b in outs["process"]]

    def test_empty_and_single_block(self):
        with fast_pool() as p:
            assert p.map_blocks(0, _ident) == []
            # n <= grain short-circuits in-process: no workers spawn
            assert p.map_blocks(5, _ident) == [[0, 1, 2, 3, 4]]
            assert p.worker_pids() == []

    def test_pool_is_reusable_across_calls(self):
        with fast_pool() as p:
            first = p.map_blocks(100, _square, (ARR,))
            pids = p.worker_pids()
            second = p.map_blocks(100, _square, (ARR,))
            assert p.worker_pids() == pids  # same workers, no respawn
            assert all(np.array_equal(a, b) for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# failure channels
# ---------------------------------------------------------------------------

class TestFailures:
    def test_worker_exception_propagates_with_remote_traceback(self):
        with fast_pool() as p:
            with pytest.raises(ValueError, match="boom at") as ei:
                p.map_blocks(100, _boom)
            cause = ei.value.__cause__
            assert isinstance(cause, RemoteTraceback)
            # the block function's frame must be visible to the caller
            assert "_boom" in cause.text
            assert "boom at" in cause.text
            # deterministic errors fail fast: no loss, no respawn storm
            assert p.worker_losses == []
            # the pool survives the failure
            out = p.map_blocks(100, _square, (ARR,))
            assert np.array_equal(np.concatenate(out), ARR ** 2)

    def test_heartbeats_keep_slow_blocks_alive(self):
        # blocks take 4x the liveness timeout, but heartbeat every 20ms:
        # alive-but-slow must NOT be treated as hung
        with fast_pool(liveness_timeout=0.2) as p:
            out = p.map_blocks(20, _slow, (0.8,), grain=10)
            assert out == [0, 10]
            assert p.worker_losses == []

    def test_straggler_duplicated_first_result_wins(self):
        with fast_pool(n_workers=4, liveness_timeout=0.2,
                       straggler_factor=1.0, backoff_cap=0.02) as p:
            out = p.map_blocks(20, _slow, (0.5,), grain=5)
            assert out == [0, 5, 10, 15]
            # duplicates are discarded, never double-counted
            assert len(out) == 4


class TestCancellation:
    def test_pre_cancelled_token_raises_immediately(self):
        tok = CancelToken()
        tok.cancel("stop")
        with fast_pool() as p, cancel_scope(tok):
            with pytest.raises(CancelledError):
                p.map_blocks(100, _square, (ARR,))

    def test_mid_call_cancel_keeps_workers_alive(self):
        tok = CancelToken()
        with fast_pool() as p:
            threading.Timer(0.1, tok.cancel, ("user",)).start()
            t0 = time.monotonic()
            with pytest.raises(CancelledError), cancel_scope(tok):
                p.map_blocks(40, _slow, (0.6,), grain=5)
            assert time.monotonic() - t0 < 0.5  # did not drain all blocks
            # cooperative: workers were not killed, and stale in-flight
            # results are discarded (epoch tag) — next call is clean
            out = p.map_blocks(100, _square, (ARR,))
            assert np.array_equal(np.concatenate(out), ARR ** 2)
            assert p.worker_losses == []

    def test_deadline_propagates_across_process_boundary(self):
        tok = CancelToken(Deadline.after(0.15))
        with fast_pool() as p:
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError), cancel_scope(tok):
                p.map_blocks(20, _napping, (100, 0.02), grain=5)
            assert time.monotonic() - t0 < 1.5  # not the full 2s sleep


# ---------------------------------------------------------------------------
# injected systemic faults
# ---------------------------------------------------------------------------

class TestSystemicFaults:
    def test_worker_kill_recovered_bit_identically(self):
        plan = FaultPlan([FaultSpec("worker_kill", calls=(1,))], seed=3)
        with fast_pool() as p, fault_scope(plan):
            out = p.map_blocks(100, _square, (ARR,))
            assert np.array_equal(np.concatenate(out), ARR ** 2)
            assert all(loss.kind == "death" for loss in p.worker_losses)
            assert len(p.worker_losses) >= 1
            # parent-side mirror recorded the fired faults for provenance
            assert plan.fired("worker_kill") == len(p.worker_losses)

    def test_result_drop_healed_by_redispatch(self):
        plan = FaultPlan([FaultSpec("result_drop", calls=(1,))], seed=5)
        with fast_pool(liveness_timeout=0.2) as p, fault_scope(plan):
            out = p.map_blocks(100, _square, (ARR,))
            assert np.array_equal(np.concatenate(out), ARR ** 2)
        assert plan.fired("result_drop") >= 1

    def test_worker_hang_detected_and_replaced(self):
        plan = FaultPlan([FaultSpec("worker_hang", calls=(1,))], seed=7)
        with fast_pool(liveness_timeout=0.2) as p, fault_scope(plan):
            out = p.map_blocks(100, _square, (ARR,))
            assert np.array_equal(np.concatenate(out), ARR ** 2)
            assert any(loss.kind == "hang" for loss in p.worker_losses)

    def test_persistent_kill_exhausts_dispatch_budget(self):
        plan = FaultPlan([FaultSpec("worker_kill")], seed=1)
        with fast_pool(max_dispatches=2, max_worker_losses=100) as p, \
                fault_scope(plan):
            with pytest.raises(WorkerPoolError, match="dispatch attempts"):
                p.map_blocks(100, _square, (ARR,))
            assert p.worker_losses  # the error carries the loss story

    def test_loss_budget_trips(self):
        plan = FaultPlan([FaultSpec("worker_kill")], seed=2)
        with fast_pool(max_worker_losses=1) as p, fault_scope(plan):
            with pytest.raises(WorkerPoolError, match="exceed the budget"):
                p.map_blocks(100, _square, (ARR,))

    def test_worker_faults_decisions_are_pure(self):
        wf = WorkerFaults(seed=9, specs=(FaultSpec("worker_kill",
                                                   rate=0.5),))
        for lo in (0, 13, 26):
            for attempt in (1, 2, 3):
                a = wf.fires("worker_kill", lo, attempt)
                b = wf.fires("worker_kill", lo, attempt)
                assert a == b  # no hidden state
        assert not wf.fires("worker_hang", 0, 1)  # unspecified site
        with pytest.raises(ValueError, match="not a systemic site"):
            WorkerFaults(specs=(FaultSpec("assp"),))

    def test_plan_systemic_slice(self):
        plan = FaultPlan([FaultSpec("worker_kill", rate=0.2),
                          FaultSpec("assp")], seed=4)
        wf = plan.systemic()
        assert wf is not None and len(wf.specs) == 1
        assert wf.specs[0].site == "worker_kill"
        assert FaultPlan([FaultSpec("assp")]).systemic() is None
        assert set(SYSTEMIC_SITES) == {"worker_kill", "worker_hang",
                                       "result_drop"}

    def test_a_plan_never_outlives_its_solve(self):
        """A caller-owned pool keeps no plan: a later solve without one
        kills no worker and leaves the plan as its own solve left it."""
        g = hidden_potential_graph(300, 3000, potential_spread=8, seed=1)
        plan = FaultPlan([FaultSpec("worker_kill", calls=(1,))])
        with ProcessForkJoinPool(2, grain=256, liveness_timeout=1.0) as p:
            first = solve_sssp_resilient(g, 0, backend=p, fault_plan=plan)
            losses = len(p.worker_losses)
            assert losses == plan.fired("worker_kill") > 0
            calls, events = dict(plan.calls), list(plan.events)
            second = solve_sssp_resilient(g, 0, backend=p)
            assert len(p.worker_losses) == losses
        assert (plan.calls, plan.events) == (calls, events)
        assert second.provenance.faults is None
        assert np.array_equal(first.dist, second.dist)


# ---------------------------------------------------------------------------
# external SIGKILL (the chaos primitive, in miniature)
# ---------------------------------------------------------------------------

class TestExternalKill:
    def test_sigkill_mid_call_recovers(self):
        import os
        import signal as _signal

        with fast_pool(liveness_timeout=0.6) as p:
            # warm the pool so there are pids to kill
            p.map_blocks(100, _square, (ARR,))
            state = {"killed": 0}

            def killer():
                deadline = time.monotonic() + 1.0
                while time.monotonic() < deadline:
                    pids = p.worker_pids()
                    if pids:
                        try:
                            os.kill(pids[0], _signal.SIGKILL)
                            state["killed"] += 1
                        except ProcessLookupError:
                            pass
                        return
                    time.sleep(0.01)

            t = threading.Thread(target=killer)
            t.start()
            out = p.map_blocks(20, _slow, (0.25,), grain=5)
            t.join()
            assert out == [0, 5, 10, 15]
            if state["killed"]:
                assert any(loss.kind == "death"
                           for loss in p.worker_losses)


# ---------------------------------------------------------------------------
# the degradation ladder
# ---------------------------------------------------------------------------

class TestLadder:
    def test_demotes_on_persistent_kill_and_records(self):
        plan = FaultPlan([FaultSpec("worker_kill")], seed=1)
        reg = MetricsRegistry()
        lad = DegradationLadder.for_backend(
            "process", n_workers=2, grain=8, heartbeat_interval=0.02,
            liveness_timeout=0.3, backoff_base=0.01, max_dispatches=2,
            max_worker_losses=3)
        with metering(reg), lad, fault_scope(plan):
            out = lad.map_blocks(100, _square, (ARR,))
        assert np.array_equal(np.concatenate(out), ARR ** 2)
        assert lad.name == "thread"
        tele = lad.telemetry()
        assert tele["backend"] == "thread"
        assert len(tele["demotions"]) == 1
        d = tele["demotions"][0]
        assert (d["from"], d["to"]) == ("process", "thread")
        assert "WorkerPoolError" in d["reason"]
        assert tele["worker_losses"]  # losses survive the demotion
        assert json.dumps(tele)  # provenance-ready: plain JSON types
        fams = {f.name for f in reg.families()}
        assert "repro_backend_demotions_total" in fams
        assert "repro_worker_losses_total" in fams
        assert "repro_workers_spawned_total" in fams

    def test_provenance_lists_only_its_own_solve(self):
        """Three solves on one caller-owned ladder, only the first with a
        plan: each provenance lists the losses and demotions of its own
        solve, not the ladder's lifetime totals."""
        g = hidden_potential_graph(300, 3000, potential_spread=8, seed=1)
        plan = FaultPlan([FaultSpec("worker_kill", calls=(1,))])
        with DegradationLadder.for_backend("process", n_workers=2,
                                           grain=256,
                                           liveness_timeout=1.0) as lad:
            first, *rest = [
                solve_sssp_resilient(g, 0, backend=lad,
                                     fault_plan=faults).provenance
                for faults in (plan, None, None)]
        assert len(first.worker_losses) == plan.fired("worker_kill") > 0
        assert first.demotions == []
        assert [(p.worker_losses, p.demotions) for p in rest] == [
            ([], []), ([], [])]

    def test_thread_ladder_ends_serial(self):
        lad = DegradationLadder.for_backend("thread", n_workers=2)
        with lad:
            out = lad.map_blocks(100, _square, (ARR,), grain=8)
        assert np.array_equal(np.concatenate(out), ARR ** 2)

    def test_exhausted_ladder_raises(self):
        class Broken:
            name = "broken"
            n_workers = 1

            def map_blocks(self, *a, **kw):
                raise WorkerPoolError("always broken", backend="broken")

            def shutdown(self):
                pass

        lad = DegradationLadder([("broken", Broken())])
        with pytest.raises(WorkerPoolError, match="always broken"):
            lad.map_blocks(10, _ident)


# ---------------------------------------------------------------------------
# race-checker compatibility
# ---------------------------------------------------------------------------

class TestRaceChecker:
    def test_checker_runs_logical_blocks_without_processes(self):
        with fast_pool() as p:
            with race_checking() as checker:
                out = p.map_blocks(100, _square, (ARR,), grain=8)
            assert np.array_equal(np.concatenate(out), ARR ** 2)
            assert p.worker_pids() == []  # no workers were ever spawned
            assert checker.findings() == []

    def test_logical_blocks_identical_across_backends(self):
        counts = []
        for make in (SerialBackend,
                     lambda: ForkJoinPool(4),
                     lambda: ProcessForkJoinPool(4)):
            be = make()
            try:
                with race_checking():
                    out = be.map_blocks(100, _ident, grain=8)
            finally:
                be.shutdown()
            counts.append([len(b) for b in out])
        assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# solver integration: results are backend-invariant
# ---------------------------------------------------------------------------

class TestSolverIntegration:
    def test_bellman_ford_parallel_matches_reference(self):
        g = bf_hard_graph(60, 140, seed=7)
        ref = bellman_ford(g, 0)
        for make in (SerialBackend,
                     lambda: ForkJoinPool(2, grain=16),
                     lambda: fast_pool(grain=16)):
            be = make()
            try:
                res = bellman_ford_parallel(g, 0, backend=be, grain=16)
            finally:
                be.shutdown()
            assert np.array_equal(res.dist, ref.dist)

    @pytest.mark.parametrize("backend", [42, object()])
    def test_non_backend_rejected_before_any_work(self, backend,
                                                  monkeypatch):
        from repro.core.engines import GoldbergParallelEngine

        searched = []
        monkeypatch.setattr(GoldbergParallelEngine, "_potential",
                            lambda self, g, **kw: searched.append(g))
        g = hidden_potential_graph(16, 40, seed=1)
        with pytest.raises(InputValidationError, match="map_blocks"):
            solve_sssp_resilient(g, 0, seed=7, backend=backend)
        assert searched == []  # the potential search never started
        with pytest.raises(InputValidationError, match="map_blocks"):
            bellman_ford_parallel(g, 0, backend=backend)

    def test_bellman_ford_parallel_accepts_a_backend_name(self):
        g = bf_hard_graph(30, 70, seed=2)
        res = bellman_ford_parallel(g, 0, backend="thread", grain=8)
        assert np.array_equal(res.dist, bellman_ford(g, 0).dist)

    def test_solve_sssp_backend_string_owns_lifecycle(self):
        g = hidden_potential_graph(16, 40, seed=1)
        base = solve_sssp(g, 0, seed=7)
        res = solve_sssp(g, 0, seed=7, backend="serial")
        assert np.array_equal(res.dist, base.dist)
        assert res.cost == base.cost

    def test_resilient_solve_records_backend_provenance(self):
        g = hidden_potential_graph(16, 40, seed=1)
        with fast_pool(grain=8) as p:
            lad = DegradationLadder([("process", p)])
            res = solve_sssp_resilient(g, 0, seed=7, backend=lad)
        base = solve_sssp_resilient(g, 0, seed=7)
        assert np.array_equal(res.dist, base.dist)
        prov = res.provenance
        assert prov.backend == "process"
        assert prov.demotions == [] and prov.worker_losses == []
        doc = prov.to_json()
        assert doc["backend"] == "process"
        assert json.dumps(doc)

    def test_resilient_solve_survives_total_backend_failure(self):
        class Broken:
            name = "broken"
            n_workers = 1

            def map_blocks(self, *a, **kw):
                raise WorkerPoolError("substrate gone", backend="broken")

            def shutdown(self):
                pass

        g = hidden_potential_graph(16, 40, seed=1)
        res = solve_sssp_resilient(g, 0, seed=7, backend=Broken())
        # the solve completed anyway — via the in-process fallback — and
        # the provenance says exactly why
        assert res.dist is not None
        prov = res.provenance
        assert prov.used_fallback
        assert "WorkerPoolError" in prov.fallback_reason
        base = solve_sssp_resilient(g, 0, seed=7)
        assert np.array_equal(res.dist, base.dist)

    def test_resilient_no_fallback_propagates_worker_pool_error(self):
        class Broken:
            name = "broken"
            n_workers = 1

            def map_blocks(self, *a, **kw):
                raise WorkerPoolError("substrate gone", backend="broken")

            def shutdown(self):
                pass

        g = hidden_potential_graph(16, 40, seed=1)
        with pytest.raises(WorkerPoolError, match="substrate gone"):
            solve_sssp_resilient(g, 0, seed=7, backend=Broken(),
                                 fallback=False)
