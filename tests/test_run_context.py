"""Ambient state under threads: one run context per thread.

Every piece of ambient solve state — tracer, metrics registry, profiler,
cancel token, budget guard, fault plan, race checker — is a field of one
:class:`~repro.runcontext.RunContext` behind one ``ContextVar``.  These
tests pin what that buys: scopes entered on two threads at once stay
separate, concurrent solves keep separate traces and metrics, nothing a
thread installs outlives its scope, and a thread-pool block sees what a
serial block sees.  The last class keeps the ambient state in that one
place, and ``token`` and ``fault_plan`` parameters on the solve entry
points only.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import sys
import threading
import time
from contextlib import ExitStack

import pytest

from repro import VerificationError, solve_sssp
from repro.graph.generators import hidden_potential_graph
from repro.observability import (
    MetricsRegistry,
    Tracer,
    current_metrics,
    current_tracer,
    metering,
    tracing,
)
from repro.observability.profiler import (
    PhaseProfiler,
    current_profiler,
    profiling,
)
from repro.observability.worker import WorkerSession
from repro.resilience import (
    BudgetGuard,
    CancelToken,
    FaultPlan,
    cancel_scope,
    current_fault_plan,
    current_guard,
    current_token,
    fault_scope,
    guard_scope,
)
from repro.runcontext import EMPTY_CONTEXT, current_context
from repro.runtime import (
    RaceChecker,
    SerialBackend,
    current_race_checker,
    race_checking,
)
from repro.runtime.executor import ForkJoinPool

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# name -> (scope, reader, fresh object)
SCOPES = {
    "tracing": (tracing, current_tracer, Tracer),
    "metering": (metering, current_metrics, MetricsRegistry),
    "profiling": (profiling, current_profiler, PhaseProfiler),
    "race_checking": (race_checking, current_race_checker, RaceChecker),
    "cancel_scope": (cancel_scope, current_token, CancelToken),
    "guard_scope": (guard_scope, current_guard, BudgetGuard),
    "fault_scope": (fault_scope, current_fault_plan, FaultPlan),
}

TIMEOUT = 30.0


def _run_threads(*targets):
    """Run ``targets`` on threads, re-raising the first failure."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT)
        assert not t.is_alive(), "thread did not finish"
    if errors:
        raise errors[0]


def _interleave(enter_a, enter_b, check_a=lambda: None):
    """Thread A enters, B enters, A checks, A exits, B exits; then each
    thread reads its context again once both have exited.  ``enter_x``
    returns the context manager a thread enters."""
    a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
    after = {}

    def thread_a():
        with enter_a():
            a_in.set()
            assert b_in.wait(TIMEOUT)
            check_a()
        a_out.set()
        assert b_out.wait(TIMEOUT)
        after["a"] = current_context()

    def thread_b():
        assert a_in.wait(TIMEOUT)
        with enter_b():
            b_in.set()
            assert a_out.wait(TIMEOUT)
        b_out.set()
        after["b"] = current_context()

    _run_threads(thread_a, thread_b)
    return after


class TestInterleavedScopes:
    @pytest.mark.parametrize("name", sorted(SCOPES))
    def test_each_thread_sees_its_own_object(self, name):
        scope, current, make = SCOPES[name]
        obj_a, obj_b = make(), make()
        seen = {}
        after = _interleave(lambda: scope(obj_a), lambda: scope(obj_b),
                            lambda: seen.setdefault("a", current()))
        assert seen["a"] is obj_a
        assert after == {"a": EMPTY_CONTEXT, "b": EMPTY_CONTEXT}
        assert current() is None
        assert current_context() == EMPTY_CONTEXT

    def test_scopes_hold_under_fast_thread_switching(self):
        # more threads than cores, switching every microsecond: a scope
        # shared between threads would hand one thread another's tracer
        wrong = []

        def churn():
            mine = Tracer()
            for _ in range(2000):
                with tracing(mine), metering(None):
                    if current_tracer() is not mine:
                        wrong.append(current_tracer())
            if current_tracer() is not None:
                wrong.append(current_tracer())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(*[churn] * 4)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


def _solve_three_times(g, tracer, registry):
    with tracing(tracer), metering(registry):
        return [solve_sssp(g, 0, seed=0) for _ in range(3)]


def _span_names(tracer):
    return collections.Counter(s.name for s in tracer.spans)


def _counters(registry):
    return {name: fam["samples"] for name, fam in registry.state().items()
            if fam["type"] == "counter"}


class TestConcurrentSolves:
    def test_each_solve_keeps_its_own_trace_and_metrics(self):
        graphs = [hidden_potential_graph(120, 480, seed=s) for s in (1, 2)]
        # the same three solves alone, one graph at a time
        alone = []
        for g in graphs:
            tr, reg = Tracer(), MetricsRegistry()
            _solve_three_times(g, tr, reg)
            alone.append((tr, reg))
        single = []
        for g in graphs:
            tr = Tracer()
            with tracing(tr):
                solve_sssp(g, 0, seed=0)
            single.append(_span_names(tr))

        barrier = threading.Barrier(2, timeout=TIMEOUT)
        got = [None, None]

        def worker(i):
            def run():
                tr, reg = Tracer(), MetricsRegistry()
                barrier.wait()
                got[i] = (tr, reg, _solve_three_times(graphs[i], tr, reg))
            return run

        _run_threads(worker(0), worker(1))
        for i in (0, 1):
            tr, reg, results = got[i]
            names = _span_names(tr)
            assert names == {k: 3 * v for k, v in single[i].items()}
            assert names == _span_names(alone[i][0])
            assert _counters(reg) == _counters(alone[i][1])
            roots = tr.roots()
            assert [r.name for r in roots] == ["solve"] * 3
            for root, res in zip(roots, results):
                assert (root.work, root.span, root.span_model) == (
                    res.cost.work, res.cost.span, res.cost.span_model)
        assert current_tracer() is None and current_metrics() is None


class TestNoLeak:
    def test_interleaved_scopes_leave_nothing_for_later_solves(self):
        tracers = [Tracer(), Tracer()]
        checkers = [RaceChecker(), RaceChecker()]

        def enter(i):
            def scopes():
                stack = ExitStack()
                stack.enter_context(tracing(tracers[i]))
                stack.enter_context(race_checking(checkers[i]))
                return stack
            return scopes

        _interleave(enter(0), enter(1))
        before = [(len(t.spans), c.n_accesses)
                  for t, c in zip(tracers, checkers)]
        solve_sssp(hidden_potential_graph(120, 480, seed=1), 0, seed=0)
        after = [(len(t.spans), c.n_accesses)
                 for t, c in zip(tracers, checkers)]
        assert after == before
        assert current_context() == EMPTY_CONTEXT


def _seen(lo, hi, tok, guard, reg):
    return (current_token() is tok, current_guard() is guard,
            current_metrics() is reg)


class TestThreadBackend:
    def test_blocks_see_what_serial_blocks_see(self):
        tok, guard, reg = CancelToken(), BudgetGuard(), MetricsRegistry()
        answers = {}
        for name, pool in (("serial", SerialBackend(grain=8)),
                           ("thread", ForkJoinPool(2, grain=8))):
            with pool, cancel_scope(tok), guard_scope(guard), metering(reg):
                answers[name] = pool.map_blocks(64, _seen,
                                                (tok, guard, reg))
        # the serial backend runs one block, the thread backend eight
        assert len(answers["thread"]) == 8
        assert set(answers["thread"]) == set(answers["serial"]) == {
            (True, True, True)}

    def test_one_context_copy_per_block(self):
        # concurrent blocks each enter their own copy (two threads cannot
        # enter one context) and never see each other's scopes
        tracers = {}

        def block(lo, hi):
            tr = Tracer()
            with tracing(tr):
                time.sleep(0.001)
                tracers[lo] = current_tracer() is tr
            return current_tracer()

        with ForkJoinPool(2, grain=8) as pool:
            out = pool.map_blocks(64, block)
        assert out == [None] * 8
        assert all(tracers.values()) and len(tracers) == 8


class TestScopeSemantics:
    def test_none_masks_the_observability_planes(self):
        for name in ("tracing", "metering", "profiling"):
            scope, current, make = SCOPES[name]
            outer = make()
            with scope(outer):
                with scope(None) as got:
                    assert got is None and current() is None
                assert current() is outer

    def test_none_keeps_the_outer_token_and_guard(self):
        for name in ("cancel_scope", "guard_scope", "fault_scope"):
            scope, current, make = SCOPES[name]
            outer = make()
            with scope(outer) as got:
                assert got is outer
                with scope(None) as inner:
                    assert inner is None and current() is outer
                assert current() is outer
            assert current() is None

    def test_race_checking_installs_a_fresh_checker(self):
        with race_checking() as checker:
            assert isinstance(checker, RaceChecker)
            assert current_race_checker() is checker
            with race_checking() as inner:
                assert inner is not checker
        assert current_race_checker() is None

    def test_exit_restores_the_entered_context(self):
        tr = Tracer()
        with tracing(tr):
            entered = current_context()
            with pytest.raises(RuntimeError):
                with metering(MetricsRegistry()), profiling(PhaseProfiler()):
                    raise RuntimeError("unwind")
            assert current_context() is entered
        assert current_context() is EMPTY_CONTEXT

    def test_worker_session_starts_from_the_empty_context(self):
        with tracing(Tracer()), cancel_scope(CancelToken()), \
                guard_scope(BudgetGuard()), fault_scope(FaultPlan()), \
                race_checking():
            with WorkerSession((False, True)):
                ctx = current_context()
                assert isinstance(ctx.metrics, MetricsRegistry)
                assert ctx._replace(metrics=None) == EMPTY_CONTEXT._replace(
                    in_session=True)


class TestFaultScope:
    def test_scopes_nest_and_restore_on_exit(self):
        outer, inner = FaultPlan(), FaultPlan()
        with fault_scope(outer):
            with fault_scope(inner) as got:
                assert got is inner and current_fault_plan() is inner
                with fault_scope(None):
                    assert current_fault_plan() is inner
            assert current_fault_plan() is outer
            with pytest.raises(RuntimeError), fault_scope(inner):
                raise RuntimeError("unwind")
            assert current_fault_plan() is outer
        assert current_fault_plan() is None

    def test_a_solve_on_another_thread_does_not_see_the_plan(self):
        g = hidden_potential_graph(120, 480, seed=1)
        plan = FaultPlan.always("potential")
        other = {}
        with fault_scope(plan):
            _run_threads(lambda: other.setdefault("res",
                                                  solve_sssp(g, 0, seed=0)))
            assert plan.calls["potential"] == 0
            with pytest.raises(VerificationError, match="infeasible price"):
                solve_sssp(g, 0, seed=0)
        assert plan.calls["potential"] == 1
        assert other["res"].certificate.checked


# ---------------------------------------------------------------------------
# one mechanism: no module globals, thread-locals or other ContextVars,
# and a cancel token or fault plan reaches the code below the solve entry
# points only through the run context
# ---------------------------------------------------------------------------

ALLOWED_GLOBALS: set[tuple[str, str]] = set()
RUN_CONTEXT_MODULE = "runcontext.py"
# the functions that take a ``token`` parameter: the solve entry points,
# and the scope and normaliser that install and build the token
TOKEN_ENTRY_POINTS = {
    ("core/sssp.py", "solve_sssp"),
    ("core/sssp.py", "solve_sssp_resilient"),
    ("core/engines.py", "_PotentialEngine.solve"),
    ("resilience/preempt.py", "cancel_scope"),
    ("resilience/preempt.py", "make_token"),
}
# the functions that take a ``fault_plan`` parameter: the solve entry
# points, whose ``_PotentialEngine.solve`` installs it with ``fault_scope``
FAULT_PLAN_ENTRY_POINTS = {
    ("core/sssp.py", "solve_sssp"),
    ("core/sssp.py", "solve_sssp_resilient"),
    ("core/engines.py", "_PotentialEngine.solve"),
}


def _module_level(tree):
    """Nodes outside function bodies (module and class bodies)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _functions(tree):
    """``(qualified name, node)`` of every function, nested ones and
    methods included."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not isinstance(node, ast.ClassDef):
                yield prefix + node.name, node
            prefix += node.name + "."
        stack.extend((prefix, child) for child in ast.iter_child_nodes(node))


def _ambient_state_violations(path, rel):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for name, fn in _functions(tree):
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if (any(p.arg == "token" for p in params)
                and (rel, name) not in TOKEN_ENTRY_POINTS):
            out.append(f"{rel}:{fn.lineno}: token parameter of {name}")
        if (any(p.arg == "fault_plan" for p in params)
                and (rel, name) not in FAULT_PLAN_ENTRY_POINTS):
            out.append(f"{rel}:{fn.lineno}: fault_plan parameter of {name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out += [f"{rel}:{node.lineno}: global {name}"
                    for name in node.names
                    if (rel, name) not in ALLOWED_GLOBALS]
        elif (isinstance(node, ast.Call) and rel != RUN_CONTEXT_MODULE
              and ast.unparse(node.func).rsplit(".", 1)[-1]
              == "ContextVar"):
            out.append(f"{rel}:{node.lineno}: ContextVar(")
    for node in _module_level(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "local"
                and ast.unparse(node.value) == "threading"):
            out.append(f"{rel}:{node.lineno}: module-level threading.local")
        elif (isinstance(node, ast.ImportFrom) and node.module == "threading"
              and any(a.name == "local" for a in node.names)):
            out.append(f"{rel}:{node.lineno}: module-level threading.local")
    return out


class TestOneMechanism:
    def test_ambient_state_lives_in_the_run_context_only(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            found += _ambient_state_violations(
                path, path.relative_to(SRC).as_posix())
        assert found == []

    @pytest.mark.parametrize("code, what", [
        ("_X = None\ndef f():\n    global _X\n    _X = 1\n", "global _X"),
        ("import threading\n_T = threading.local()\n", "threading.local"),
        ("import threading\nclass _A(threading.local):\n    x = None\n",
         "threading.local"),
        ("import contextvars\nV = contextvars.ContextVar('v')\n",
         "ContextVar("),
        ("class E:\n    def step(self, g, *, token=None):\n        pass\n",
         "token parameter of E.step"),
        ("def stage(g, *, fault_plan=None):\n    pass\n",
         "fault_plan parameter of stage"),
    ])
    def test_detector_fires_on_each_mechanism(self, tmp_path, code, what):
        path = tmp_path / "mod.py"
        path.write_text(code, encoding="utf-8")
        found = _ambient_state_violations(path, "mod.py")
        assert len(found) == 1 and what in found[0]

    def test_instance_thread_locals_are_allowed(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import threading\nclass C:\n    def __init__(s):\n"
                        "        s._tls = threading.local()\n",
                        encoding="utf-8")
        assert _ambient_state_violations(path, "mod.py") == []

