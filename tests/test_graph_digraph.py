"""Tests for the CSR DiGraph."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_same_graph, digraph_reference
from repro.graph import DiGraph
from repro.graph.digraph import _csr_orders
from repro.resilience.errors import InputValidationError
from repro.runtime.primitives import _as_int64


def small_graph():
    return DiGraph.from_edges(4, [(0, 1, 5), (0, 2, 3), (1, 3, 1),
                                  (2, 3, -2), (3, 0, 0)])


class TestConstruction:
    def test_counts(self):
        g = small_graph()
        assert g.n == 4 and g.m == 5

    def test_empty_graph(self):
        g = DiGraph.from_edges(3, [])
        assert g.n == 3 and g.m == 0
        assert g.successors(0).tolist() == []

    def test_zero_vertices(self):
        g = DiGraph.from_edges(0, [])
        assert g.n == 0 and g.m == 0

    def test_edges_sorted_by_src_dst(self):
        g = DiGraph.from_edges(3, [(2, 0, 1), (0, 2, 2), (0, 1, 3)])
        assert g.src.tolist() == [0, 0, 2]
        assert g.dst.tolist() == [1, 2, 0]

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 5, 1)])

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            DiGraph(-1, np.array([]), np.array([]), np.array([]))

    def test_bad_edge_shape(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 1)])

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            DiGraph(2, np.array([0]), np.array([1, 0]), np.array([1]))

    def test_parallel_edges_allowed(self):
        g = DiGraph.from_edges(2, [(0, 1, 3), (0, 1, 7)])
        assert g.m == 2
        assert g.min_weight_between(0, 1) == 3

    def test_self_loop_allowed(self):
        g = DiGraph.from_edges(2, [(0, 0, 1)])
        assert g.has_edge(0, 0)

    @pytest.mark.parametrize("n", [5.0, np.int32(5), np.float64(5.0),
                                   np.array(5)])
    def test_integral_vertex_count_is_its_int(self, n):
        # 5.0 raised TypeError from np.zeros in the CSR offsets
        g = DiGraph(n, [0, 1], [1, 2], [1, -1])
        assert type(g.n) is int
        assert_same_graph(g, DiGraph(5, [0, 1], [1, 2], [1, -1]))

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), -1, 2.5, "3",
                                   [3], None])
    def test_bad_vertex_count_is_rejected(self, n):
        # all but -1 escaped as numpy's or Python's ValueError, TypeError
        # or OverflowError
        with pytest.raises(InputValidationError, match="vertex count"):
            DiGraph(n, [0, 1], [1, 2], [1, -1])

    def test_infinite_vertex_count_in_from_edges(self):
        # raised OverflowError from the CSR offsets
        with pytest.raises(InputValidationError, match="vertex count"):
            DiGraph.from_edges(float("inf"), [(0, 1, 1)])

    @pytest.mark.parametrize("src,dst,w", [
        ([[0, 1]], [[1, 2]], [[1, 1]]),  # raised IndexError
        (0, 1, 1),  # raised TypeError
        ([0, 1], [[1, 2]], [1, 1]),
    ], ids=["2-d", "0-d", "one-2-d"])
    def test_edge_arrays_must_be_one_dimensional(self, src, dst, w):
        with pytest.raises(InputValidationError, match="one-dimensional"):
            DiGraph(3, src, dst, w)

    def test_ragged_triples(self):
        # raised numpy's "inhomogeneous shape" ValueError
        with pytest.raises(InputValidationError, match="triples"):
            DiGraph.from_edges(3, [(0, 1, 1), (1, 2)])

    @pytest.mark.parametrize("w, match", [
        # wrapped to -2**63 without a warning
        (np.array([2 ** 63], dtype=np.uint64), "int64"),
        # became -2**63 with only a RuntimeWarning
        (np.array([2.0 ** 63]), "int64"),
        # np.abs(-2**63) is -2**63, which passed the magnitude bound
        (np.array([-2 ** 63]), "magnitude"),
    ], ids=["uint64", "float", "int64-min"])
    def test_weights_past_int64_or_the_bound_are_rejected(self, w, match):
        with pytest.raises(InputValidationError, match=match):
            DiGraph(2, np.array([0]), np.array([1]), w)

    def test_the_cast_keeps_the_exact_float_ends_of_int64(self):
        out = _as_int64(np.array([-2.0 ** 63, 2.0 ** 63 - 1024]), "w")
        assert out.tolist() == [-2 ** 63, 2 ** 63 - 1024]


class TestAdjacency:
    def test_successors(self):
        g = small_graph()
        assert sorted(g.successors(0).tolist()) == [1, 2]

    def test_predecessors(self):
        g = small_graph()
        assert sorted(g.predecessors(3).tolist()) == [1, 2]

    def test_degrees(self):
        g = small_graph()
        assert g.out_degree(0) == 2
        assert g.in_degree(3) == 2
        assert g.out_degree().tolist() == [2, 1, 1, 1]
        assert g.in_degree().tolist() == [1, 1, 1, 2]

    def test_reverse_edge_ids_roundtrip(self):
        g = small_graph()
        # every reverse slot maps to a forward edge with matching endpoints
        for v in range(g.n):
            sl = g.in_slice(v)
            for pos in range(sl.start, sl.stop):
                eid = g.reids[pos]
                assert g.dst[eid] == v
                assert g.src[eid] == g.rindices[pos]

    def test_edge_lookup(self):
        g = small_graph()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.min_weight_between(2, 3) == -2
        assert g.min_weight_between(1, 2) is None

    def test_edges_iterator(self):
        g = DiGraph.from_edges(2, [(0, 1, 9)])
        assert list(g.edges()) == [(0, 1, 9)]


class TestDerived:
    def test_with_weights(self):
        g = small_graph()
        h = g.with_weights(np.zeros(g.m, dtype=np.int64))
        assert h.w.tolist() == [0] * 5
        assert h.indptr is g.indptr  # topology shared

    def test_with_weights_length_check(self):
        with pytest.raises(ValueError):
            small_graph().with_weights(np.zeros(2))

    def test_with_weights_shape_check(self):
        # a (3, 1) column passed the length check and broke bellman_ford
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 5)])
        with pytest.raises(InputValidationError, match="one entry per edge"):
            g.with_weights([[1], [1], [5]])

    def test_reversed(self):
        g = small_graph()
        r = g.reversed()
        assert r.has_edge(1, 0) and not r.has_edge(0, 1)
        assert r.m == g.m

    def test_induced_subgraph(self):
        g = small_graph()
        h, nodes = g.induced_subgraph([0, 1, 3])
        assert nodes.tolist() == [0, 1, 3]
        assert h.n == 3
        # edges inside: (0,1,5), (1,3,1), (3,0,0) -> renumbered
        assert sorted((int(a), int(b), int(c)) for a, b, c in h.edges()) == \
            [(0, 1, 5), (1, 2, 1), (2, 0, 0)]

    def test_induced_subgraph_empty(self):
        g = small_graph()
        h, nodes = g.induced_subgraph([])
        assert h.n == 0 and h.m == 0

    def test_induced_subgraph_out_of_range(self):
        with pytest.raises(ValueError):
            small_graph().induced_subgraph([99])

    def test_induced_subgraph_dedupes_nodes(self):
        g = small_graph()
        h, nodes = g.induced_subgraph([1, 1, 0])
        assert h.n == 2 and nodes.tolist() == [0, 1]

    @pytest.mark.parametrize("nodes", [[0.5, 1.7], [0.0, np.nan],
                                       [0.0, np.inf]])
    def test_induced_subgraph_rejects_non_integral_ids(self, nodes):
        # truncated toward zero, [0.5, 1.7] became nodes [0, 1]
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(InputValidationError, match="nodes"):
            g.induced_subgraph(nodes)

    def test_induced_subgraph_reads_integral_floats_as_ints(self):
        g = small_graph()
        h, nodes = g.induced_subgraph([0.0, 1.0, 3.0])
        want, want_nodes = g.induced_subgraph([0, 1, 3])
        assert nodes.tolist() == want_nodes.tolist()
        assert list(h.edges()) == list(want.edges())


@given(st.integers(2, 20), st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19), st.integers(-5, 5)),
    max_size=60))
@settings(max_examples=40, deadline=None)
def test_csr_consistency_property(n, raw_edges):
    """Forward and reverse CSR describe the same edge multiset."""
    edges = [(u % n, v % n, w) for u, v, w in raw_edges]
    g = DiGraph.from_edges(n, edges)
    fwd = sorted(zip(g.src.tolist(), g.dst.tolist(), g.w.tolist()))
    rev = sorted(zip(g.src[g.reids].tolist(), g.dst[g.reids].tolist(),
                     g.w[g.reids].tolist()))
    assert fwd == rev == sorted((u, v, w) for u, v, w in edges)
    assert g.indptr[-1] == g.m
    assert g.rindptr[-1] == g.m


@st.composite
def edge_inputs(draw):
    """``(n, src, dst, w)`` on few vertices, so parallel edges and
    self-loops are common, n ∈ {0, 1} and m = 0 included, in one of the
    dtypes a caller passes."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 30)) if n else 0
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8,
                                  np.float64]))
    low = 0 if dtype is np.uint8 else -9
    ends = st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)
    src, dst = draw(ends), draw(ends)
    w = draw(st.lists(st.integers(low, 9), min_size=m, max_size=m))
    return n, *(np.array(a, dtype=dtype) for a in (src, dst, w))


@given(edge_inputs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_constructor_matches_the_lexsort_reference(data, rnd):
    """All ten slots equal the two-lexsort build, on the input order and
    on a shuffle of it (ties between parallel edges go by position)."""
    n, src, dst, w = data
    assert_same_graph(DiGraph(n, src, dst, w),
                      digraph_reference(n, src, dst, w))
    perm = np.array(rnd.sample(range(len(src)), len(src)), dtype=np.int64)
    assert_same_graph(DiGraph(float(n), src[perm], dst[perm], w[perm]),
                      digraph_reference(n, src[perm], dst[perm], w[perm]))


@pytest.mark.parametrize("n,m", [
    (2 ** 30, 7),  # n²·m = 7·2^60: both keys
    (2 ** 30, 8),  # n²·m = 2^63: forward lexsort, reverse key
    (2 ** 32, 5),  # forward lexsort, reverse key
    (2 ** 62, 2),  # n·m = 2^63: both lexsorts
    (2 ** 62, 5),
])
def test_orders_around_the_int64_bound(n, m):
    """Just below the int64 bound of the combined keys and past it (where
    the lexsort runs), the orders are the lexsorts', with endpoints up to
    ``n - 1`` and no n-sized array."""
    rng = np.random.default_rng(n % 97 + m)
    ends = np.array([0, 1, n - 2, n - 1], dtype=np.int64)
    src, dst = rng.choice(ends, m), rng.choice(ends, m)
    order, s, d, reids = _csr_orders(n, src, dst)
    want = np.lexsort((dst, src))
    assert order.tolist() == want.tolist()
    assert s.tolist() == src[want].tolist()
    assert d.tolist() == dst[want].tolist()
    assert reids.tolist() == np.lexsort((s, d)).tolist()


def ties_reversed(n, src, dst):
    """A wrong order helper: parallel edges in reverse input order."""
    order = np.lexsort((-np.arange(len(src)), dst, src))
    src, dst = src[order], dst[order]
    return order, src, dst, np.lexsort((src, dst))


@pytest.mark.differential
def test_recheck_mode_catches_a_wrong_public_build(monkeypatch):
    """Differential tests compare every public build with the two-lexsort
    reference (``tests/conftest.py``): an order that breaks ties between
    parallel edges the other way fails there."""
    digraph = importlib.import_module("repro.graph.digraph")
    monkeypatch.setattr(digraph, "_csr_orders", ties_reversed)
    with pytest.raises(AssertionError, match="slot 'w'"):
        DiGraph(2, [0, 0], [1, 1], [3, 7])
