"""Tests for multisource reachability and SCC."""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.improvement as improvement
from conftest import recheck_kernels
from oracles import assert_same_result, lex_rank
from repro.graph import DiGraph, edge_subgraph_mask, random_digraph
from repro.observability import Trace, Tracer, tracing
from repro.reach import (
    NO_SOURCE,
    bfs_parents,
    multisource_reachability,
    multisource_reachability_min,
    path_from_parents,
    reachable_mask,
    scc,
    scc_sequential,
)
from repro.reach.scc import _dense_rank, _split_key
from repro.resilience.errors import InputValidationError
from repro.runtime import CostAccumulator, model


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
        with pytest.raises(InputValidationError):
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


CHAIN = DiGraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])


def strict(call):
    """Run ``call`` with warnings raised as errors (a NaN cast to int64
    warns before it gives a wrong vertex id)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


#: Sources that are not vertex ids of ``CHAIN``.
NOT_VERTEX_IDS = pytest.mark.parametrize(
    "source", [1.5, np.nan, np.inf, -np.inf, 4, -1],
    ids=["fractional", "nan", "inf", "-inf", "too-large", "negative"])
BOTH_SEARCHES = pytest.mark.parametrize(
    "search", [multisource_reachability, multisource_reachability_min],
    ids=["plain", "min"])


class TestSourceValidation:
    """The searches cast ``sources``/``source`` as the public constructor
    casts its arrays and raise :class:`InputValidationError` (a
    ``ValueError``) for anything that is not a vertex id of ``g``."""

    @BOTH_SEARCHES
    @NOT_VERTEX_IDS
    def test_rejects_sources_that_are_not_vertex_ids(self, search, source):
        with pytest.raises(InputValidationError):
            strict(lambda: search(CHAIN, np.array([0, source])))

    @NOT_VERTEX_IDS
    def test_bfs_parents_rejects_a_source_that_is_not_a_vertex_id(
            self, source):
        with pytest.raises(InputValidationError):
            strict(lambda: bfs_parents(CHAIN, source))

    def test_bfs_parents_casts_a_bool_source_to_an_id(self):
        assert bfs_parents(CHAIN, True).tolist() == \
            bfs_parents(CHAIN, 1).tolist() == [-1, -1, 1, 2]

    @BOTH_SEARCHES
    def test_accepts_integral_floats_and_bools(self, search):
        want = search(CHAIN, np.array([1])).pi.tolist()
        assert search(CHAIN, np.array([1.0])).pi.tolist() == want
        assert search(CHAIN, np.array([True])).pi.tolist() == want


@st.composite
def masked_instances(draw):
    """A multigraph on 0..8 vertices (self-loops and parallel edges
    included), an edge mask (random, all-True or all-False) and up to
    four sources, repeats allowed."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.just(0)),
                          max_size=24)) if n else []
    g = DiGraph.from_edges(n, edges)
    mask = draw(st.one_of(
        st.lists(st.booleans(), min_size=g.m, max_size=g.m),
        st.just([True] * g.m), st.just([False] * g.m)))
    sources = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    return g, np.array(mask, dtype=bool), np.array(sources, dtype=np.int64)


def traced_reach(search, g, sources, **kwargs):
    """One ``search`` call with a fresh accumulator under a fresh tracer:
    the result, the charges, and the reach span's attrs, counters and
    cost deltas."""
    acc, tracer = CostAccumulator(), Tracer()
    with tracing(tracer):
        res = search(g, sources, acc, **kwargs)
    (span,) = Trace.from_tracer(tracer).spans
    return res, acc.snapshot(), (span.name, span.attrs, span.counters,
                                 span.work, span.span, span.span_model)


class TestMaskedReachabilityMin:
    """``edge_mask=`` returns, charges and traces what the same call on
    ``edge_subgraph_mask(g, mask)`` does."""

    @given(masked_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_subgraph(self, inst):
        g, mask, sources = inst
        sub = edge_subgraph_mask(g, mask)
        got = traced_reach(multisource_reachability_min, g, sources,
                           edge_mask=mask)
        want = traced_reach(multisource_reachability_min, sub, sources)
        for a, b, what in zip(got, want, ("result", "charges", "span")):
            assert_same_result(a, b, what)

    @given(masked_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_subgraph_on_transpose(self, inst):
        """The transpose's mask is the forward mask read through
        ``g.reids``: its edge ``j`` is ``g``'s edge ``g.reids[j]``."""
        g, mask, sources = inst
        got = traced_reach(multisource_reachability_min, g.reversed(),
                           sources, edge_mask=mask[g.reids])
        want = traced_reach(multisource_reachability_min,
                            edge_subgraph_mask(g, mask).reversed(), sources)
        for a, b, what in zip(got, want, ("result", "charges", "span")):
            assert_same_result(a, b, what)

    def test_all_false_reaches_sources_only(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
        res = multisource_reachability_min(
            g, np.array([0]), edge_mask=np.zeros(g.m, dtype=bool))
        assert res.pi.tolist() == [0, -1, -1] and res.rounds == 1

    def test_empty_graph(self):
        g = DiGraph.from_edges(0, [])
        res = multisource_reachability_min(
            g, np.array([], dtype=np.int64),
            edge_mask=np.zeros(0, dtype=bool))
        assert res.pi.tolist() == [] and res.rounds == 0

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_rejects_misaligned_mask(self, length):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
        with pytest.raises(InputValidationError, match="mask"):
            multisource_reachability_min(g, np.array([0]),
                                         edge_mask=np.ones(length, bool))


@st.composite
def within_instances(draw):
    """A multigraph on 0..8 vertices (self-loops and parallel edges
    included), a vertex mask (random, all-True or all-False) and up to
    four sources inside it, repeats allowed."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.just(0)),
                          max_size=24)) if n else []
    within = np.array(draw(st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.just([True] * n), st.just([False] * n))), dtype=bool)
    inside = within.nonzero()[0].tolist()
    sources = draw(st.lists(st.sampled_from(inside), max_size=4)) \
        if inside else []
    return (DiGraph.from_edges(n, edges), within,
            np.array(sources, dtype=np.int64))


class TestReachabilityWithin:
    """``within=`` returns, in ``g``'s ids, and charges and traces what
    the same call on ``g.induced_subgraph(within.nonzero()[0])`` does."""

    @given(within_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_induced_subgraph(self, inst):
        g, within, sources = inst
        sub, nodes = g.induced_subgraph(within.nonzero()[0])
        got = traced_reach(multisource_reachability, g, sources,
                           within=within)
        want = traced_reach(multisource_reachability, sub,
                            np.searchsorted(nodes, sources))
        pi = np.full(g.n, NO_SOURCE, dtype=np.int64)
        reached = want[0].pi >= 0
        pi[nodes[reached]] = nodes[want[0].pi[reached]]
        want[0].pi = pi
        for a, b, what in zip(got, want, ("result", "charges", "span")):
            assert_same_result(a, b, what)

    def test_stops_at_the_mask(self):
        res = multisource_reachability(
            CHAIN, np.array([0]), within=np.array([True, True, False, True]))
        assert res.pi.tolist() == [0, 0, -1, -1] and res.rounds == 2

    def test_all_false_without_sources(self):
        res = multisource_reachability(CHAIN, np.array([], dtype=np.int64),
                                       within=np.zeros(4, dtype=bool))
        assert res.pi.tolist() == [-1] * 4 and res.rounds == 0

    def test_rejects_a_source_outside_the_mask(self):
        with pytest.raises(InputValidationError, match="within"):
            multisource_reachability(
                CHAIN, np.array([0, 2]),
                within=np.array([True, True, False, True]))

    @pytest.mark.parametrize("length", [0, 3, 5])
    def test_rejects_misaligned_mask(self, length):
        with pytest.raises(InputValidationError, match="mask"):
            multisource_reachability(CHAIN, np.array([0]),
                                     within=np.ones(length, bool))


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


def trim_by_hand(n, edges):
    """The trim passes in plain Python: the vertices they cut and the
    number of passes run."""
    cap = 1 if n < 2 else math.ceil(math.log2(n))
    live = set(range(n))
    passes = 0
    while live and passes < cap:
        passes += 1
        inner = [(u, v) for u, v, _ in edges if u in live and v in live]
        has_in = {v for _, v in inner}
        has_out = {u for u, _ in inner}
        cut = {v for v in live if v not in has_in or v not in has_out}
        if not cut:
            break
        live -= cut
    return sorted(set(range(n)) - live), passes


@st.composite
def trim_instances(draw):
    """A multigraph on 0..30 vertices (self-loops and parallel edges
    included), optionally with a path through every vertex in a random
    order, which is longer than the pass cap from 7 vertices on."""
    n = draw(st.integers(0, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.just(0)),
                          max_size=2 * n)) if n else []
    if n and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges += [(u, v, 0) for u, v in zip(order, order[1:])]
    return n, edges


class TestSccTrim:
    """``scc`` first trims every vertex with no live in-edge or no live
    out-edge, for at most ``⌈lg n⌉`` passes, and numbers the trimmed
    vertices ``0 .. t-1`` in vertex-id order."""

    def check(self, n, edges, seed=0):
        g = DiGraph.from_edges(n, edges)
        res = scc(g, seed=seed)
        seq = scc_sequential(g)
        # the same partition as Tarjan's, with contiguous ids
        pairs = {(int(a), int(b)) for a, b in zip(res.comp, seq.comp)}
        assert len(pairs) == res.n_components == seq.n_components
        assert sorted(set(res.comp.tolist())) == list(range(res.n_components))
        cut, passes = trim_by_hand(n, edges)
        assert res.trim_passes == passes <= max(1, math.ceil(math.log2(n or 1)))
        assert res.trimmed == len(cut)
        assert res.comp[cut].tolist() == list(range(len(cut)))
        return res

    @given(trim_instances(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_partition_and_trim_match_by_hand(self, instance, seed):
        self.check(*instance, seed=seed)

    def test_empty_and_single_vertex(self):
        res = self.check(0, [])
        assert (res.trimmed, res.trim_passes, res.n_components) == (0, 0, 0)
        res = self.check(1, [])
        assert (res.trimmed, res.trim_passes, res.n_components) == (1, 1, 1)

    def test_self_loop_is_not_trimmed(self):
        # 2 has no out-edge, then 1 none left; 0 keeps its self-loop and
        # the rounds finalise it after the trimmed ids
        res = self.check(3, [(0, 0, 0), (0, 1, 0), (1, 2, 0)])
        assert (res.trimmed, res.trim_passes) == (2, 2)
        assert res.comp.tolist() == [2, 0, 1]

    def test_a_path_longer_than_the_cap_reaches_the_rounds(self):
        # each pass cuts the two ends of what is left: 5 passes cut 10 of
        # the 20 vertices, and the rounds finalise the other 10
        n = 20
        res = self.check(n, [(i, i + 1, 0) for i in range(n - 1)])
        assert (res.trimmed, res.trim_passes, res.n_components) == (10, 5, n)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_one_cycle_through_every_vertex_cuts_nothing(self, n):
        res = self.check(n, [(i, (i + 1) % n, 0) for i in range(n)])
        assert (res.trimmed, res.trim_passes, res.n_components) == (0, 1, 1)

    @given(st.integers(2, 30), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_two_layer_dag_is_cut_in_one_pass(self, n, data):
        # every edge goes from the low half to the high half, so each
        # vertex lacks in-edges or out-edges: no center is ever drawn
        h = n // 2
        edges = data.draw(st.lists(st.tuples(st.integers(0, h - 1),
                                             st.integers(h, n - 1),
                                             st.just(0))))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        g = DiGraph.from_edges(n, edges)
        res = scc(g, seed=rng)
        assert (res.trimmed, res.trim_passes) == (n, 1)
        assert res.comp.tolist() == list(range(n))
        assert rng.bit_generator.state == state

    def test_trim_is_charged_per_pass(self):
        # the path 0 -> 1 -> 2 -> 3: two passes cut everything, each one
        # charged pack(m) + map(n) + pack(n), and no round runs
        g = DiGraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        res = scc(g)
        assert (res.trimmed, res.trim_passes) == (4, 2)
        want = CostAccumulator()
        for _ in range(2):
            want.charge(*model.pack_ws(3))
            want.charge(*model.map_ws(4))
            want.charge(*model.pack_ws(4))
        assert res.cost == want.snapshot()


def stale_edge_mask(g, local):
    """A wrong trim for ``scc``: every pass reuses the first pass's
    live-edge mask, so a cut never takes an edge away from the next
    pass."""
    n = g.n
    live = np.ones(n, dtype=bool)
    e = np.ones(g.m, dtype=bool)
    passes = 0
    while live.any() and passes < max((n - 1).bit_length(), 1):
        passes += 1
        local.charge(*model.pack_ws(g.m))
        has_in = np.zeros(n, dtype=bool)
        has_out = np.zeros(n, dtype=bool)
        has_in[g.dst[e]] = True
        has_out[g.src[e]] = True
        local.charge(*model.map_ws(n))
        cut = live & ~(has_in & has_out)
        local.charge(*model.pack_ws(n))
        if not cut.any():
            break
        live[cut] = False
    return live, passes


@pytest.mark.differential
def test_recheck_mode_catches_a_wrong_trim(monkeypatch):
    """On the path 0 -> ... -> 5 the trim cuts {0, 5}, then {1, 4}, then
    {2, 3}.  A trim whose passes reuse the first live-edge mask stops
    after cutting {0, 5}; the rounds still find the right partition, but
    the re-check mode fails the ids, counts and charges."""
    scc_module = importlib.import_module("repro.reach.scc")
    monkeypatch.setattr(scc_module, "_trim", stale_edge_mask)
    recheck_kernels(monkeypatch)
    g = DiGraph.from_edges(6, [(i, i + 1, 0) for i in range(5)])
    with pytest.raises(AssertionError, match="scc"):
        improvement.scc(g)


def reuse_forward_mask(search):
    """A wrong search binding for ``scc``: every second call (the
    backward search, on the transpose) runs with the mask of the call
    before it (the forward search's), not with its transpose's."""
    masks = []

    def wrong(g, sources, acc, edge_mask, m):
        if len(masks) % 2:
            edge_mask = masks[-1]
        masks.append(edge_mask)
        return search(g, sources, acc, edge_mask, m)
    return wrong


@pytest.mark.differential
def test_recheck_mode_catches_a_wrong_scc(monkeypatch):
    """An ``scc`` whose backward searches reuse the forward searches'
    edge masks splits the SCC {1, 3, 4} here, and the re-check mode fails
    it when a caller runs it."""
    scc_module = importlib.import_module("repro.reach.scc")
    monkeypatch.setattr(scc_module, "_min_search",
                        reuse_forward_mask(scc_module._min_search))
    recheck_kernels(monkeypatch)
    g = DiGraph.from_edges(6, [(0, 2, 4), (1, 2, 5), (1, 3, 9), (3, 4, 7),
                               (4, 0, 4), (4, 1, 4), (5, 4, 4)])
    with pytest.raises(AssertionError, match="scc"):
        improvement.scc(g)


def reversed_frontier(round_scalar):
    """A wrong scalar round for ``multisource_reachability``: it visits
    the frontier in reverse, so of two sources reaching a vertex in one
    round the first one wins, not the last."""
    def wrong(indptr, indices, pv, wv, frontier):
        return round_scalar(indptr, indices, pv, wv, frontier[::-1])
    return wrong


@pytest.mark.differential
def test_recheck_mode_catches_a_first_write_wins_reach(monkeypatch):
    """Propagate labels 1 and 3 here, and both reach 2 in the first round
    of its reach from {1, 3}; a scalar round where the first of them wins
    fails the re-check mode when the peeling runs it."""
    multisource = importlib.import_module("repro.reach.multisource")
    monkeypatch.setattr(multisource, "_round_scalar",
                        reversed_frontier(multisource._round_scalar))
    recheck_kernels(monkeypatch)
    g = DiGraph.from_edges(4, [(0, 1, -1), (0, 2, 0), (0, 3, -1), (1, 2, 0),
                               (3, 2, 0)])
    with pytest.raises(AssertionError, match="multisource_reachability"):
        improvement.dag01_limited_sssp(g, 0, 3)


class TestLexRank:
    """The SCC block split ranks ``(block, fwd, bwd)`` triples, and the
    finalised components their ``fwd`` winners, with one int64 lexsort;
    ``np.unique`` (over the stacked columns) is the reference."""

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
        assert lex_rank(z).tolist() == []

    @given(st.lists(st.integers(-2, 5), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_one_key_matches_unique_inverse(self, xs):
        x = np.array(xs, dtype=np.int64)
        _, want = np.unique(x, return_inverse=True)
        got = lex_rank(x)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


class TestSplitKey:
    """``scc`` splits its blocks by the dense rank of one injective key.
    Where every set winner is a member of its vertex's block, as in
    ``scc``, that is the partition ``lex_rank`` of the triples gives."""

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_partition_as_lex_rank(self, n, data):
        block = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=n, max_size=n)),
                         dtype=np.int64)
        members = {b: [-1, *np.flatnonzero(block == b).tolist()]
                   for b in set(block.tolist())}
        fwd, bwd = (np.array([data.draw(st.sampled_from(members[b]))
                              for b in block.tolist()], dtype=np.int64)
                    for _ in range(2))
        got = _dense_rank(_split_key(n, block, fwd, bwd))
        want = lex_rank(block, fwd, bwd)
        assert got.dtype == np.int64
        assert sorted(set(got.tolist())) == list(range(len(set(got.tolist()))))
        assert ((got[:, None] == got[None, :]) ==
                (want[:, None] == want[None, :])).all()

    @given(st.lists(st.integers(-2, 5), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_component_ids_are_the_unique_inverse(self, xs):
        """``scc`` numbers finalised components by ``_dense_rank`` of
        their forward winners: the ids ``lex_rank`` of one key gave."""
        x = np.array(xs, dtype=np.int64)
        _, want = np.unique(x, return_inverse=True)
        got = _dense_rank(x)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


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
