"""The certified tail every engine shares (``repro.core.engines``).

Every entry point — ``solve_sssp``, ``solve_sssp_resilient`` and
``engine.solve`` — reaches the same tail, so each check here holds for
all of them: the source and the engine name are checked before any
work, ``engine=`` reaches every registered engine, checkpoint support is
an engine capability, and the ``potential`` fault hook fires once per
feasible solve and never on a cycle answer.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.sssp as sssp_module
from repro import solve_sssp, solve_sssp_resilient
from repro.assp import get_engine
from repro.core.engines import SSSP_ENGINES, _PotentialEngine, get_sssp_engine
from repro.core.extensions import (
    all_pairs_shortest_paths,
    find_negative_cycle,
    solve_difference_constraints,
)
from repro.graph.generators import (
    hidden_potential_graph,
    random_digraph,
    zero_heavy_digraph,
)
from repro.graph import DiGraph
from repro.graph.validate import validate_graph
from repro.observability import Tracer, tracing
from repro.resilience import (
    Certificate,
    FaultPlan,
    InputValidationError,
    VerificationError,
)
from repro.runtime import CostAccumulator

ENGINES = ("goldberg_parallel", "goldberg_sequential", "bnw_scaling",
           "fischer_simple")
CALLS = ("solve_sssp", "solve_sssp_resilient") + ENGINES


def _solve(call, g, source, **kw):
    if call == "solve_sssp":
        return solve_sssp(g, source, **kw)
    if call == "solve_sssp_resilient":
        return solve_sssp_resilient(g, source, **kw)
    return get_sssp_engine(call).solve(g, source, **kw)


def _rejected_before_any_work(fn, match=None):
    """``fn(acc)`` raises InputValidationError having charged nothing
    and opened no span."""
    acc = CostAccumulator()
    tr = Tracer()
    with tracing(tr), pytest.raises(InputValidationError, match=match):
        fn(acc)
    assert acc.work == 0.0
    assert not tr.spans


# every public function taking ``engine=``: (graph, engine, acc) -> result
ENGINE_CALLS = {
    "solve_sssp": lambda g, engine, acc: solve_sssp(g, 0, engine=engine,
                                                    acc=acc),
    "solve_sssp_resilient": lambda g, engine, acc: solve_sssp_resilient(
        g, 0, engine=engine, acc=acc),
    "all_pairs_shortest_paths": lambda g, engine, acc:
        all_pairs_shortest_paths(g, engine=engine, acc=acc),
    "find_negative_cycle": lambda g, engine, acc: find_negative_cycle(
        g, engine=engine),
    "solve_difference_constraints": lambda g, engine, acc:
        solve_difference_constraints(2, [(0, 1, -1)], engine=engine),
}


@pytest.fixture
def g():
    return hidden_potential_graph(20, 60, seed=1)


class TestSourceCheck:
    @pytest.mark.parametrize("call", CALLS)
    def test_bad_source_rejected_before_any_work(self, g, call):
        for source in (1.5, np.float64(2.5), float("nan"), float("inf"),
                       float("-inf"), -1, g.n, 2 ** 70, "0", [0]):
            _rejected_before_any_work(
                lambda acc: _solve(call, g, source, acc=acc))

    @pytest.mark.parametrize("call", CALLS)
    def test_integral_floats_and_bools_are_their_int(self, g, call):
        for source, value in ((np.float64(2.0), 2), (2.0, 2), (True, 1),
                              (np.int32(3), 3)):
            res = _solve(call, g, source)
            assert type(res.source) is int and res.source == value
            np.testing.assert_array_equal(res.dist,
                                          _solve(call, g, value).dist)

    def test_validate_graph_uses_the_same_check(self, g):
        assert validate_graph(g, np.float64(2.0)) == 2
        assert validate_graph(g, True) == 1
        assert validate_graph(g) is None
        for source in (1.5, float("nan"), float("inf"), -1, g.n):
            with pytest.raises(InputValidationError):
                validate_graph(g, source)


class TestEngineNames:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_solve_sssp_reaches_every_engine(self, g, engine):
        cyclic = random_digraph(20, 50, min_w=-3, max_w=9, seed=5)
        for graph in (g, cyclic):
            got = solve_sssp(graph, 0, engine=engine, seed=3)
            want = get_sssp_engine(engine).solve(graph, 0, seed=3)
            for field in ("dist", "parent", "price"):
                np.testing.assert_array_equal(getattr(got, field),
                                              getattr(want, field))
            assert got.negative_cycle == want.negative_cycle
            assert got.cost == want.cost
        assert got.has_negative_cycle

    @pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
    def test_unknown_engine_rejected_before_any_work(self, g, call):
        for graph in (zero_heavy_digraph(50, 200, seed=1), g):
            _rejected_before_any_work(
                lambda acc: ENGINE_CALLS[call](graph, "bogus", acc), "bogus")
            # unhashable names were a TypeError from the registry's dict
            for name in (["x"], {}, None, 3):
                _rejected_before_any_work(
                    lambda acc: ENGINE_CALLS[call](graph, name, acc),
                    "unknown SSSP engine")
        with pytest.raises(InputValidationError, match="goldberg_parallel"):
            get_sssp_engine("nope")
        for name in (["x"], {}):
            with pytest.raises(InputValidationError, match="unknown ASSSP"):
                get_engine(name)


@pytest.mark.parametrize("engine", ("bnw_scaling", "fischer_simple"))
def test_checkpoint_request_rejected_by_the_tail(g, engine, tmp_path):
    ck = tmp_path / "ck.bin"
    _rejected_before_any_work(
        lambda acc: get_sssp_engine(engine).solve(g, 0, acc=acc,
                                                  checkpoint_path=ck),
        "checkpoint")
    assert not ck.exists()


@pytest.mark.parametrize("engine", ENGINES)
def test_potential_fault_fires_once_and_never_on_a_cycle(g, engine):
    plan = FaultPlan.always("potential")
    with pytest.raises(VerificationError, match="infeasible price"):
        get_sssp_engine(engine).solve(g, 0, fault_plan=plan)
    assert plan.calls["potential"] == 1
    cyclic = random_digraph(20, 50, min_w=-3, max_w=9, seed=5)
    plan = FaultPlan.always("potential")
    res = get_sssp_engine(engine).solve(cyclic, 0, seed=7, fault_plan=plan)
    assert res.has_negative_cycle
    assert plan.calls["potential"] == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_solves_are_labelled_with_their_engine(g, engine):
    tr = Tracer()
    with tracing(tr):
        res = solve_sssp_resilient(g, 0, engine=engine)
    assert res.provenance.engine == engine
    (solve,) = [s for s in tr.spans if s.name == "solve"]
    assert solve.attrs["engine"] == engine


@pytest.fixture
def verifies(monkeypatch):
    """The kind of every ``Certificate.verify`` call, in call order, and
    whether it passed."""
    calls: list[tuple[str, bool]] = []
    real = Certificate.verify

    def spy(self, graph):
        ok = real(self, graph)
        calls.append((self.kind, ok))
        return ok

    monkeypatch.setattr(Certificate, "verify", spy)
    return calls


class TestOneVerifyPerAnswer:
    """The tail verifies an engine's certificate and the fallback verifies
    its own, once each; ``solve_sssp_resilient`` does not check them
    again."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_answer_is_verified_once(self, g, engine, verifies):
        cyclic = random_digraph(20, 50, min_w=-3, max_w=9, seed=5)
        for graph, kind in ((g, "price"), (cyclic, "negative_cycle")):
            verifies.clear()
            res = solve_sssp_resilient(graph, 0, engine=engine, seed=7)
            assert res.certificate.kind == kind
            assert verifies == [(kind, True)]

    def test_fallback_answer_is_verified_once(self, g, verifies):
        res = solve_sssp_resilient(g, 0, max_work=1)
        assert res.provenance.used_fallback
        assert verifies == [("price", True)]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_corrupted_potential_still_fails_and_retries(self, g, engine,
                                                         verifies):
        plan = FaultPlan.on_calls("potential", 1)
        res = solve_sssp_resilient(g, 0, engine=engine, fault_plan=plan)
        assert [a.ok for a in res.provenance.attempts] == [False, True]
        assert "VerificationError" in res.provenance.attempts[0].error
        assert verifies == [("price", False), ("price", True)]
        with pytest.raises(VerificationError, match="infeasible price"):
            solve_sssp(g, 0, engine=engine,
                       fault_plan=FaultPlan.always("potential"))

    def test_corrupted_fallback_certificate_still_fails(self, g,
                                                        monkeypatch):
        real = sssp_module.johnson_potential

        def corrupted(graph):
            pot = real(graph)
            price = pot.price.copy()
            price[graph.dst[0]] += 10 ** 6   # edge 0's reduced weight < 0
            return dataclasses.replace(pot, price=price)

        monkeypatch.setattr(sssp_module, "johnson_potential", corrupted)
        with pytest.raises(VerificationError, match="fallback"):
            solve_sssp_resilient(g, 0, max_work=1)


# 0 -> 1 (-2), 1 -> 2 (1), 0 -> 2 (5): feasible, with a negative edge
FEASIBLE = DiGraph.from_edges(3, [(0, 1, -2), (1, 2, 1), (0, 2, 5)])


class _FakeCycleEngine(_PotentialEngine):
    """Claims the feasible ``FEASIBLE`` has the negative cycle [0, 1]."""

    name = "fake-cycle"

    def _potential(self, g, *, seed, acc, backend, **options):
        return None, [0, 1], None


class _InfeasiblePriceEngine(_PotentialEngine):
    """Hands back the zero price, under which edge 0 -> 1 stays
    negative."""

    name = "infeasible-price"

    def _potential(self, g, *, seed, acc, backend, **options):
        return np.zeros(g.n, dtype=np.int64), None, None


@pytest.mark.parametrize("engine", [_FakeCycleEngine,
                                    _InfeasiblePriceEngine])
@pytest.mark.parametrize("call", [
    lambda g, name: find_negative_cycle(g, engine=name),
    lambda g, name: all_pairs_shortest_paths(g, engine=name),
    lambda g, name: solve_sssp(g, 0, engine=name)],
    ids=["find_negative_cycle", "all_pairs_shortest_paths", "solve_sssp"])
def test_every_potential_reader_checks_the_witness(engine, call,
                                                   monkeypatch):
    # find_negative_cycle and APSP read the potential past the tail's
    # check: they returned the fake cycle, and APSP blamed the caller's
    # weights for the bad price ("dijkstra requires nonnegative weights")
    monkeypatch.setitem(SSSP_ENGINES._factories, engine.name, engine)
    with pytest.raises(VerificationError, match=engine.name):
        call(FEASIBLE, engine.name)
