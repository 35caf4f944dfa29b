"""Tests for multisource reachability and SCC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, random_digraph
from repro.reach import (
    bfs_parents,
    multisource_reachability,
    path_from_parents,
    reachable_mask,
    scc,
    scc_sequential,
)
from repro.reach.scc import lex_rank
from repro.runtime import CostAccumulator


def naive_reachable(g: DiGraph, sources) -> np.ndarray:
    seen = np.zeros(g.n, dtype=bool)
    stack = list(sources)
    seen[list(sources)] = True
    while stack:
        u = stack.pop()
        for v in g.successors(u).tolist():
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


class TestMultisourceReachability:
    def test_single_source_chain(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (1, 2, 0)])
        res = multisource_reachability(g, np.array([0]))
        assert res.pi.tolist() == [0, 0, 0, -1]
        assert res.rounds >= 2

    def test_sources_map_to_themselves(self):
        g = DiGraph.from_edges(3, [(0, 1, 0)])
        res = multisource_reachability(g, np.array([0, 2]))
        assert res.pi[0] == 0 and res.pi[2] == 2

    def test_empty_sources(self):
        g = DiGraph.from_edges(3, [(0, 1, 0)])
        res = multisource_reachability(g, np.array([], dtype=np.int64))
        assert (res.pi == -1).all()

    def test_pi_is_valid_ancestor(self):
        g = random_digraph(40, 160, seed=0)
        sources = np.array([0, 5, 9])
        res = multisource_reachability(g, sources)
        for v in range(g.n):
            p = int(res.pi[v])
            if p >= 0:
                assert p in sources
                assert naive_reachable(g, [p])[v]

    def test_coverage_matches_naive(self):
        g = random_digraph(50, 200, seed=1)
        sources = np.array([3, 17])
        res = multisource_reachability(g, sources)
        np.testing.assert_array_equal(res.pi >= 0,
                                      naive_reachable(g, sources))

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            multisource_reachability(DiGraph.from_edges(2, []),
                                     np.array([5]))

    def test_cost_charged_with_oracle_span(self):
        g = random_digraph(64, 256, seed=2)
        acc = CostAccumulator()
        multisource_reachability(g, np.array([0]), acc)
        assert acc.work > 0
        # model span is the black-box bound, one charge per call
        assert acc.span_model == pytest.approx(
            np.sqrt(64) * np.log2(66), rel=0.01)

    def test_reachable_mask(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (2, 3, 0)])
        mask = reachable_mask(g, np.array([0]))
        assert mask.tolist() == [True, True, False, False]

    @given(st.integers(0, 1000), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_naive(self, seed, k):
        g = random_digraph(20, 60, seed=seed)
        rng = np.random.default_rng(seed)
        sources = rng.choice(20, size=k, replace=False)
        res = multisource_reachability(g, sources)
        np.testing.assert_array_equal(res.pi >= 0,
                                      naive_reachable(g, sources))


class TestBfsParents:
    def test_path_reconstruction(self):
        g = DiGraph.from_edges(5, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        parent = bfs_parents(g, 0)
        assert path_from_parents(parent, 0, 3) == [0, 1, 2, 3]

    def test_unreachable_none(self):
        g = DiGraph.from_edges(3, [(0, 1, 0)])
        parent = bfs_parents(g, 0)
        assert path_from_parents(parent, 0, 2) is None

    def test_source_to_itself(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        parent = bfs_parents(g, 0)
        assert path_from_parents(parent, 0, 0) == [0]

    def test_parents_form_edges(self):
        g = random_digraph(30, 120, seed=3)
        parent = bfs_parents(g, 0)
        for v in range(g.n):
            p = int(parent[v])
            if p >= 0:
                assert g.has_edge(p, v)


class TestScc:
    def check_against_tarjan(self, g):
        par = scc(g).comp
        seq = scc_sequential(g).comp
        # same partition: components induce identical equivalence classes
        n = g.n
        for u in range(n):
            for v in range(u + 1, n):
                assert (par[u] == par[v]) == (seq[u] == seq[v]), (u, v)

    def test_two_cycles(self):
        g = DiGraph.from_edges(5, [(0, 1, 0), (1, 0, 0), (2, 3, 0),
                                   (3, 4, 0), (4, 2, 0), (1, 2, 0)])
        res = scc(g)
        assert res.n_components == 2
        assert res.comp[0] == res.comp[1]
        assert res.comp[2] == res.comp[3] == res.comp[4]
        assert res.comp[0] != res.comp[2]

    def test_dag_all_singletons(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        assert scc(g).n_components == 4

    def test_self_loop_singleton(self):
        g = DiGraph.from_edges(2, [(0, 0, 0), (0, 1, 0)])
        res = scc(g)
        assert res.n_components == 2

    def test_empty_graph(self):
        res = scc(DiGraph.from_edges(0, []))
        assert res.n_components == 0

    def test_isolated_vertices(self):
        res = scc(DiGraph.from_edges(3, []))
        assert res.n_components == 3
        assert sorted(res.comp.tolist()) == [0, 1, 2]

    def test_component_ids_contiguous(self):
        g = random_digraph(30, 90, seed=4)
        res = scc(g)
        assert sorted(set(res.comp.tolist())) == list(range(res.n_components))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_tarjan_random(self, seed):
        g = random_digraph(25, 70 + 10 * seed, seed=seed)
        self.check_against_tarjan(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_tarjan_property(self, seed):
        g = random_digraph(14, 30, seed=seed)
        self.check_against_tarjan(g)

    def test_cost_accumulates(self):
        g = random_digraph(40, 120, seed=5)
        acc = CostAccumulator()
        scc(g, acc)
        assert acc.work > 0 and acc.span_model > 0


class TestLexRank:
    """The SCC block split ranks ``(block, fwd, bwd)`` triples with one
    int64 lexsort; ``np.unique`` over the stacked columns is the
    reference."""

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_unique_inverse(self, k, data):
        col = st.lists(st.integers(-1, 3), min_size=k, max_size=k)
        block, fwd, bwd = (np.array(data.draw(col), dtype=np.int64)
                           for _ in range(3))
        _, want = np.unique(np.stack([block, fwd, bwd]), axis=1,
                            return_inverse=True)
        got = lex_rank(block, fwd, bwd)
        assert got.dtype == np.int64
        assert got.tolist() == want.reshape(-1).tolist()

    def test_duplicates_and_unreached(self):
        block = np.array([1, 0, 1, 0, 1])
        fwd = np.array([-1, 2, -1, 2, 4])
        bwd = np.array([3, -1, 3, -1, -1])
        # sorted distinct triples: (0, 2, -1), (1, -1, 3), (1, 4, -1)
        assert lex_rank(block, fwd, bwd).tolist() == [1, 0, 1, 0, 2]

    def test_empty(self):
        z = np.empty(0, dtype=np.int64)
        assert lex_rank(z, z, z).tolist() == []


class TestSccSequentialOnly:
    def test_big_cycle(self):
        n = 200
        edges = [(i, (i + 1) % n, 0) for i in range(n)]
        res = scc_sequential(DiGraph.from_edges(n, edges))
        assert res.n_components == 1

    def test_chain(self):
        n = 100
        edges = [(i, i + 1, 0) for i in range(n - 1)]
        res = scc_sequential(DiGraph.from_edges(n, edges))
        assert res.n_components == n
