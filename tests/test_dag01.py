"""Tests for the §3 peeling algorithm (Algorithms 1–2, Theorems 4/8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dag01.peeling as peeling
from oracles import assert_same_result, propagate_reference
from repro.baselines import dag_limited_sssp_reference
from repro.dag01 import (
    NO_EDGE,
    chain_depths,
    dag01_limited_sssp,
    dag01_limited_sssp_naive,
    recover_chain,
)
from repro.graph import (
    DiGraph,
    layered_dag,
    negative_chain_gadget,
    random_dag,
)
from repro.observability import Trace, Tracer, tracing
from repro.reach import reachable_mask
from repro.resilience import FaultPlan, fault_scope
from repro.resilience.errors import InputValidationError, VerificationError
from repro.runtime import CostAccumulator


def assert_matches_reference(g, source, limit, seed=0):
    res = dag01_limited_sssp(g, source, limit, seed=seed)
    expected = dag_limited_sssp_reference(g, source, limit)
    np.testing.assert_array_equal(res.dist, expected)
    return res


def check_parent_contract(g, res):
    """Theorem 4: parent(v)=(x,y) has w=-1 and dist(x)=dist(v)+1."""
    for v in range(g.n):
        x, y = int(res.parent_edge[v, 0]), int(res.parent_edge[v, 1])
        if x == NO_EDGE:
            continue
        assert g.min_weight_between(x, y) == -1
        if np.isfinite(res.dist[v]) and np.isfinite(res.dist[x]):
            assert res.dist[x] == res.dist[v] + 1


class TestSmallCases:
    def test_single_vertex(self):
        g = DiGraph.from_edges(1, [])
        res = dag01_limited_sssp(g, 0, 3)
        assert res.dist.tolist() == [0]

    def test_zero_only_edges(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
        res = dag01_limited_sssp(g, 0, 2)
        assert res.dist.tolist() == [0, 0, 0]

    def test_simple_chain(self):
        g = negative_chain_gadget(4)
        res = dag01_limited_sssp(g, 0, 4)
        assert res.dist.tolist() == [0, -1, -2, -3, -4]

    def test_limit_cuts_off(self):
        g = negative_chain_gadget(4)
        res = dag01_limited_sssp(g, 0, 2)
        assert res.dist.tolist() == [0, -1, -2, -np.inf, -np.inf]

    def test_limit_zero(self):
        g = negative_chain_gadget(2)
        res = dag01_limited_sssp(g, 0, 0)
        assert res.dist.tolist() == [0, -np.inf, -np.inf]

    def test_unreachable_vertices_inf(self):
        g = DiGraph.from_edges(4, [(0, 1, -1), (2, 3, -1)])
        res = dag01_limited_sssp(g, 0, 3)
        assert res.dist.tolist() == [0, -1, np.inf, np.inf]

    def test_zero_edge_then_negative(self):
        # two paths: 0 -0-> 1 -(-1)-> 3 and 0 -(-1)-> 2 -(-1)-> 3
        g = DiGraph.from_edges(4, [(0, 1, 0), (1, 3, -1), (0, 2, -1),
                                   (2, 3, -1)])
        res = dag01_limited_sssp(g, 0, 5)
        assert res.dist.tolist() == [0, 0, -1, -2]

    def test_diamond_zeros(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (0, 2, -1), (1, 3, 0),
                                   (2, 3, 0)])
        res = dag01_limited_sssp(g, 0, 5)
        assert res.dist.tolist() == [0, 0, -1, -1]


class TestValidation:
    def test_rejects_cyclic(self):
        g = DiGraph.from_edges(2, [(0, 1, 0), (1, 0, 0)])
        with pytest.raises(ValueError, match="acyclic"):
            dag01_limited_sssp(g, 0, 1)

    def test_rejects_bad_weights(self):
        g = DiGraph.from_edges(2, [(0, 1, 2)])
        with pytest.raises(ValueError, match="weights"):
            dag01_limited_sssp(g, 0, 1)

    def test_rejects_bad_source(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        with pytest.raises(ValueError, match="source"):
            dag01_limited_sssp(g, 9, 1)

    def test_rejects_negative_limit(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        with pytest.raises(ValueError, match="limit"):
            dag01_limited_sssp(g, 0, -1)

    @pytest.mark.parametrize("extra", [2, -1], ids=["longer", "shorter"])
    @pytest.mark.parametrize("tail", [False, True],
                             ids=["all-reachable", "unreachable-tail"])
    def test_rejects_priorities_of_wrong_length(self, extra, tail):
        """One priority per vertex of ``g``, whether or not the vertices
        the array misses or adds are reachable from the source."""
        edges = [(0, 1, -1), (1, 2, 0)] + ([] if tail else [(2, 3, -1)])
        g = DiGraph.from_edges(4, edges)
        pri = np.ones(g.n + extra, dtype=np.int64)
        with pytest.raises(InputValidationError, match="priorities"):
            dag01_limited_sssp(g, 0, 2, priorities=pri)

    @pytest.mark.parametrize("pri", [[0, 1, 2], [1, 1, 4]],
                             ids=["zero", "above-k"])
    def test_rejects_caller_priorities_outside_the_contract(self, pri):
        """A caller's priorities outside ``[1, k]`` are bad input, not the
        retry signal ``VerificationError`` that a redraw can heal."""
        g = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0)])
        with pytest.raises(InputValidationError, match="priorities"):
            dag01_limited_sssp(g, 0, 2, priorities=pri)

    def test_caller_priorities_are_checked_on_the_reachable_vertices(self):
        """``k`` counts the vertices reachable from the source, and an
        unreachable vertex's priority is not read."""
        g = DiGraph.from_edges(4, [(0, 1, -1), (1, 2, 0)])
        with pytest.raises(InputValidationError, match=r"need \[1, 3\]"):
            dag01_limited_sssp(g, 0, 2, priorities=[1, 4, 1, 1])
        res = dag01_limited_sssp(g, 0, 2, priorities=[1, 2, 3, 99])
        assert res.dist.tolist() == [0, -1, -1, np.inf]

    def test_fault_perturbed_priorities_still_signal_a_retry(self):
        g = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0)])
        with pytest.raises(VerificationError, match="§3.1"), \
                fault_scope(FaultPlan.always("priorities")):
            dag01_limited_sssp(g, 0, 2, priorities=[1, 2, 3])

    def test_validate_off_skips_checks(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        res = dag01_limited_sssp(g, 0, 1, validate=False)
        assert res.dist.tolist() == [0, 0]


class TestRandomAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags(self, seed):
        g = random_dag(40, 180, weights=(0, -1), seed=seed)
        res = assert_matches_reference(g, 0, limit=10, seed=seed)
        check_parent_contract(g, res)

    @pytest.mark.parametrize("seed", range(4))
    def test_layered(self, seed):
        g = layered_dag(8, 5, p_negative=0.6, seed=seed)
        res = assert_matches_reference(g, 0, limit=8, seed=seed)
        check_parent_contract(g, res)

    @pytest.mark.parametrize("p_neg", [0.0, 0.1, 0.9, 1.0])
    def test_negative_density_sweep(self, p_neg):
        g = layered_dag(6, 4, p_negative=p_neg, seed=3)
        assert_matches_reference(g, 0, limit=6)

    @pytest.mark.parametrize("limit", [0, 1, 2, 5, 50])
    def test_limit_sweep(self, limit):
        g = layered_dag(7, 4, p_negative=0.5, seed=1)
        assert_matches_reference(g, 0, limit=limit)

    @given(st.integers(0, 100_000), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_property_random(self, seed, limit):
        g = random_dag(18, 60, weights=(0, -1), seed=seed)
        assert_matches_reference(g, 0, limit=limit, seed=seed)

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_property_priorities_irrelevant_to_output(self, seed):
        """Output is deterministic regardless of the random priorities."""
        g = random_dag(15, 50, weights=(0, -1), seed=seed)
        d1 = dag01_limited_sssp(g, 0, 5, seed=1).dist
        d2 = dag01_limited_sssp(g, 0, 5, seed=2).dist
        np.testing.assert_array_equal(d1, d2)


class TestAdversarialPriorities:
    def test_all_same_priority(self):
        g = layered_dag(5, 4, p_negative=0.5, seed=0)
        pri = np.ones(g.n, dtype=np.int64)
        res = dag01_limited_sssp(g, 0, 6, priorities=pri)
        expected = dag_limited_sssp_reference(g, 0, 6)
        np.testing.assert_array_equal(res.dist, expected)

    def test_adversarial_increasing(self):
        g = negative_chain_gadget(6, tail=1)
        pri = (np.arange(g.n, dtype=np.int64) % 3) + 1
        res = dag01_limited_sssp(g, 0, 6, priorities=pri)
        expected = dag_limited_sssp_reference(g, 0, 6)
        np.testing.assert_array_equal(res.dist, expected)


class TestChainRecovery:
    def test_simple_chain(self):
        g = negative_chain_gadget(5)
        res = dag01_limited_sssp(g, 0, 5)
        chain = recover_chain(res, 5)
        assert chain == [(i, i + 1) for i in range(5)]
        assert chain_depths(res, chain) == [0.0, -1.0, -2.0, -3.0, -4.0]

    def test_chain_heads_descend(self):
        g = layered_dag(7, 4, p_negative=0.8, seed=5)
        res = dag01_limited_sssp(g, 0, 4)
        deep = np.flatnonzero(res.dist == -4)
        if len(deep) == 0:
            pytest.skip("no depth-4 vertex in this instance")
        chain = recover_chain(res, 4)
        assert chain_depths(res, chain) == [0.0, -1.0, -2.0, -3.0]
        for u, v in chain:
            assert g.min_weight_between(u, v) == -1

    def test_no_vertex_at_depth(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        res = dag01_limited_sssp(g, 0, 3)
        with pytest.raises(ValueError):
            recover_chain(res, 2)

    def test_bad_depth(self):
        g = negative_chain_gadget(2)
        res = dag01_limited_sssp(g, 0, 2)
        with pytest.raises(ValueError):
            recover_chain(res, 0)

    def test_explicit_start(self):
        g = negative_chain_gadget(3)
        res = dag01_limited_sssp(g, 0, 3)
        chain = recover_chain(res, 2, start=2)
        assert chain == [(0, 1), (1, 2)]
        with pytest.raises(ValueError):
            recover_chain(res, 2, start=1)


class TestNaiveBaseline:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        g = random_dag(30, 120, weights=(0, -1), seed=seed)
        res = dag01_limited_sssp_naive(g, 0, 8)
        expected = dag_limited_sssp_reference(g, 0, 8)
        np.testing.assert_array_equal(res.dist, expected)

    def test_unreachable(self):
        g = DiGraph.from_edges(3, [(0, 1, -1)])
        res = dag01_limited_sssp_naive(g, 0, 2)
        assert res.dist[2] == np.inf

    def test_reach_calls_grow_with_depth(self):
        g = negative_chain_gadget(10, tail=2)
        res = dag01_limited_sssp_naive(g, 0, 10)
        assert res.reach_calls >= 10


class TestInstrumentation:
    def test_label_changes_bounded(self):
        """Corollary 6: O(log^2 n) label changes per vertex (generous const)."""
        g = layered_dag(10, 8, p_negative=0.5, seed=7)
        res = dag01_limited_sssp(g, 0, 10, seed=7)
        bound = 8 * np.log2(g.n + 2) ** 2
        assert res.label_changes.max() <= bound

    def test_costs_accumulate(self):
        g = layered_dag(6, 5, p_negative=0.5, seed=2)
        acc = CostAccumulator()
        res = dag01_limited_sssp(g, 0, 6, acc=acc)
        assert acc.work == res.cost.work > 0
        assert res.cost.span_model > 0

    def test_peeling_cheaper_than_naive_on_deep_graphs(self):
        """E4 shape: labelled peeling does less reachability work than the
        per-round-recompute baseline on deep instances."""
        g = negative_chain_gadget(40, tail=3)
        smart = dag01_limited_sssp(g, 0, 40, seed=0)
        naive = dag01_limited_sssp_naive(g, 0, 40)
        assert smart.reach_node_total < naive.reach_node_total

    def test_rounds_reported(self):
        g = negative_chain_gadget(5)
        res = dag01_limited_sssp(g, 0, 10)
        assert res.rounds == 5

    def test_deep_layered_instance_takes_many_rounds(self):
        g = layered_dag(40, 12, p_negative=0.9, seed=1)
        assert dag01_limited_sssp(g, 0, 40, seed=1).rounds > 10

    def test_level_sets(self):
        g = negative_chain_gadget(3)
        res = dag01_limited_sssp(g, 0, 3)
        levels = res.level_sets(3)
        assert [lv.tolist() for lv in levels] == [[0], [1], [2], [3]]


@st.composite
def peeling_instances(draw):
    """A {0, −1} DAG on 1..40 vertices, connected from vertex 0 or not,
    with a limit and, half the time, priorities given in ``[1, k]`` for
    the ``k`` vertices reachable from 0 (the §3.1 contract)."""
    n = draw(st.integers(1, 40))
    g = random_dag(n, draw(st.integers(0, 3 * n)),
                   weight_probs=draw(st.sampled_from([None, (0.2, 0.8),
                                                      (0.8, 0.2)])),
                   seed=draw(st.integers(0, 2 ** 32 - 1)),
                   connect_from_source=draw(st.sampled_from([0, None])))
    k = int(reachable_mask(g, np.array([0])).sum())
    pri = draw(st.none() | st.lists(st.integers(1, k), min_size=g.n,
                                    max_size=g.n))
    return (g, draw(st.integers(0, 8)), draw(st.integers(0, 2 ** 32 - 1)),
            None if pri is None else np.array(pri, dtype=np.int64))


@given(peeling_instances())
@settings(max_examples=150, deadline=None)
def test_propagate_matches_per_priority_reference(inst):
    """Propagate with one in-edge gather per call and its reach restricted
    to V' by ``within=`` returns the result, makes the charges and traces
    the reach spans (``n``, ``m``, ``sources``, ``rounds``) of the form
    with one gather and one induced subgraph per priority."""
    g, limit, seed, pri = inst

    def run():
        acc, tracer = CostAccumulator(), Tracer()
        with tracing(tracer):
            res = dag01_limited_sssp(g, 0, limit, seed=seed, acc=acc,
                                     priorities=pri)
        reach = [(sp.attrs["n"], sp.attrs["m"], sp.attrs["sources"],
                  sp.counters["rounds"])
                 for sp in Trace.from_tracer(tracer).spans
                 if sp.name == "reach"]
        return res, acc.snapshot(), reach

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peeling, "_propagate", propagate_reference)
        want = run()
    assert_same_result(got[0], want[0], "Dag01Result")
    assert got[1] == want[1]
    assert got[2] == want[2]


def skip_top_priority(propagate):
    """A wrong Propagate: it starts one priority below the highest, so
    when nothing fires at the highest it labels the same vertices and
    leaves out that skipped priority's three charges."""
    def wrong(st, vprime):
        cap = st.cap
        st.cap = cap - 1
        try:
            propagate(st, vprime)
        finally:
            st.cap = cap
    return wrong


@pytest.mark.differential
def test_recheck_mode_catches_a_propagate_that_drops_a_skipped_priority(
        monkeypatch):
    """The re-check mode runs every peeling call against
    ``oracles.dag01_limited_sssp_reference`` and fails one whose charges
    differ, even when its result is right.  On ``0 -(−1)-> 1 -(0)-> 2``
    with priorities ``[1, 2, 1]`` nothing fires at priority 2."""
    g = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0)])
    pri = np.array([1, 2, 1])
    good = peeling.dag01_limited_sssp(g, 0, 2, priorities=pri)
    monkeypatch.setattr(peeling, "_propagate",
                        skip_top_priority(peeling._propagate))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peeling, "dag01_limited_sssp",
                   peeling.dag01_limited_sssp.__wrapped__)
        bad = peeling.dag01_limited_sssp(g, 0, 2, priorities=pri)
    assert_same_result(bad.dist, good.dist)
    assert bad.cost != good.cost
    with pytest.raises(AssertionError,
                       match="dag01_limited_sssp.cost.work differs"):
        peeling.dag01_limited_sssp(g, 0, 2, priorities=pri)


@pytest.mark.differential
def test_recheck_mode_gives_the_reference_its_own_fault_plan():
    """The reference runs on a copy of the ambient fault plan: the
    caller's plan counts one ``priorities`` call per peeling call, and a
    fault planned for the second call fires once, in the kernel."""
    g = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0)])
    plan = FaultPlan.on_calls("priorities", 2)
    with fault_scope(plan):
        peeling.dag01_limited_sssp(g, 0, 2)
        assert plan.calls["priorities"] == 1
        with pytest.raises(VerificationError, match="§3.1"):
            peeling.dag01_limited_sssp(g, 0, 2)
    assert plan.calls["priorities"] == 2 and plan.fired("priorities") == 1
