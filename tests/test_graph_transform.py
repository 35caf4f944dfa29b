"""Tests for reweighting, condensation, and edge subgraphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DiGraph,
    condense,
    edge_subgraph_mask,
    leq_zero_subgraph,
    reweight,
)


class TestReweight:
    def test_telescopes_on_cycle(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, -1), (2, 0, 4)])
        p = np.array([5, -3, 2])
        rw = reweight(g, p)
        assert rw.sum() == g.w.sum()  # cycle weight invariant

    def test_formula(self):
        g = DiGraph.from_edges(2, [(0, 1, 7)])
        rw = reweight(g, np.array([1, 4]))
        assert rw.tolist() == [7 + 1 - 4]

    def test_length_check(self):
        g = DiGraph.from_edges(2, [(0, 1, 7)])
        with pytest.raises(ValueError):
            reweight(g, np.array([0]))

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_shortest_path_order_preserved(self, n, data):
        """Reweighting changes all s->t path lengths by the same offset."""
        edges = []
        for u in range(n - 1):
            edges.append((u, u + 1, data.draw(st.integers(-3, 3))))
        edges.append((0, n - 1, data.draw(st.integers(-3, 3))))
        g = DiGraph.from_edges(n, edges)
        p = np.array([data.draw(st.integers(-5, 5)) for _ in range(n)])
        rw = reweight(g, p)
        # path 0->..->n-1 and direct edge 0->n-1 shift by p[0]-p[n-1] both
        chain_ids = [i for i in range(g.m)
                     if not (g.src[i] == 0 and g.dst[i] == n - 1)]
        direct = [i for i in range(g.m)
                  if g.src[i] == 0 and g.dst[i] == n - 1][0]
        shift_chain = rw[chain_ids].sum() - g.w[chain_ids].sum()
        shift_direct = rw[direct] - g.w[direct]
        assert shift_chain == shift_direct == p[0] - p[n - 1]


class TestCondense:
    def test_basic_contraction(self):
        # two components {0,1} and {2}; parallel contracted edges collapse
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 0, 0), (0, 2, 5),
                                   (1, 2, 3)])
        c = condense(g, np.array([0, 0, 1]))
        assert c.n_components == 2
        assert c.graph.m == 1
        assert list(c.graph.edges()) == [(0, 1, 3)]  # min of 5 and 3

    def test_rep_eid_points_to_min_weight_edge(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 0, 0), (0, 2, 5),
                                   (1, 2, 3)])
        c = condense(g, np.array([0, 0, 1]))
        eid = int(c.rep_eid[0])
        assert g.w[eid] == 3
        assert (g.src[eid], g.dst[eid]) == (1, 2)

    def test_intra_component_edges_dropped(self):
        g = DiGraph.from_edges(2, [(0, 1, -1), (1, 0, 0)])
        c = condense(g, np.array([0, 0]))
        assert c.graph.m == 0

    def test_custom_weights(self):
        g = DiGraph.from_edges(2, [(0, 1, 100)])
        c = condense(g, np.array([0, 1]), weights=np.array([-7]))
        assert list(c.graph.edges()) == [(0, 1, -7)]

    def test_empty_graph(self):
        g = DiGraph.from_edges(0, [])
        c = condense(g, np.array([], dtype=np.int64))
        assert c.n_components == 0

    def test_label_validation(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            condense(g, np.array([0]))
        with pytest.raises(ValueError):
            condense(g, np.array([-1, 0]))

    @given(st.integers(2, 12), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_condensation_edges_property(self, n, nc, data):
        """Every contracted edge is the min over its original bundle."""
        m = data.draw(st.integers(0, 30))
        edges = [(data.draw(st.integers(0, n - 1)),
                  data.draw(st.integers(0, n - 1)),
                  data.draw(st.integers(-5, 5))) for _ in range(m)]
        g = DiGraph.from_edges(n, edges)
        comp = np.array([data.draw(st.integers(0, nc - 1)) for _ in range(n)])
        comp[0] = nc - 1  # ensure the max id appears
        c = condense(g, comp)
        bundles: dict[tuple[int, int], int] = {}
        for u, v, w in g.edges():
            cu, cv = int(comp[u]), int(comp[v])
            if cu != cv:
                key = (cu, cv)
                bundles[key] = min(bundles.get(key, w), w)
        got = {(u, v): w for u, v, w in c.graph.edges()}
        assert got == bundles


class TestEdgeSubgraphs:
    def test_edge_subgraph_mask(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        h = edge_subgraph_mask(g, np.array([True, False]))
        assert list(h.edges()) == [(0, 1, 1)]
        assert h.n == 3

    def test_mask_length_check(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            edge_subgraph_mask(g, np.array([True, False]))

    def test_leq_zero_subgraph(self):
        g = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0), (2, 0, 3)])
        sub, eids = leq_zero_subgraph(g)
        assert sub.m == 2
        assert sorted((u, v) for u, v, _ in sub.edges()) == [(0, 1), (1, 2)]
        # eids aligned with subgraph edge ids
        for i, (u, v, w) in enumerate(sub.edges()):
            eid = int(eids[i])
            assert (g.src[eid], g.dst[eid], g.w[eid]) == (u, v, w)

    def test_leq_zero_with_reduced_weights(self):
        g = DiGraph.from_edges(2, [(0, 1, 5)])
        sub, eids = leq_zero_subgraph(g, weights=np.array([-2]))
        assert sub.m == 1 and sub.w.tolist() == [-2]
