"""The certified tail every engine shares (``repro.core.engines``).

Every entry point — ``solve_sssp``, ``solve_sssp_resilient`` and
``engine.solve`` — reaches the same tail, so each check here holds for
all of them: the source and the engine name are checked before any
work, ``engine=`` reaches every registered engine, checkpoint support is
an engine capability, and the ``potential`` fault hook fires once per
feasible solve and never on a cycle answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve_sssp, solve_sssp_resilient
from repro.core.engines import get_sssp_engine
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
from repro.graph.validate import validate_graph
from repro.observability import Tracer, tracing
from repro.resilience import FaultPlan, InputValidationError, VerificationError
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
        with pytest.raises(InputValidationError, match="goldberg_parallel"):
            get_sssp_engine("nope")


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
