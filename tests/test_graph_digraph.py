"""Tests for the CSR DiGraph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph
from repro.resilience.errors import InputValidationError


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
