"""Derived graphs equal the public constructor's build, slot for slot.

``reversed``, ``induced_subgraph``, ``edge_subgraph_mask``,
``leq_zero_subgraph``, ``condense`` and ``_with_source`` build through the
trusted ``DiGraph._from_sorted``, which skips validation and both sorts.
Each is compared here against ``DiGraph(n, src, dst, w)`` on the same
edges, in all ten slots, so a wrong order or a wrong reverse permutation
fails at the first array that differs.
"""

import functools
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recheck_kernels, swap_bindings
from oracles import assert_same_graph, assert_same_result, condense_reference
from repro.graph import DiGraph, condense, edge_subgraph_mask, leq_zero_subgraph
from repro.graph.transform import Condensation
from repro.resilience.errors import InputValidationError


@st.composite
def graphs(draw):
    """Small multigraphs: few vertices, so parallel edges and self-loops
    are common; n = 0 and m = 0 included."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 20)) if n else 0
    end = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(end, end, st.integers(-3, 3)),
                          min_size=m, max_size=m))
    return DiGraph.from_edges(n, edges)


@st.composite
def tied_graphs(draw):
    """Multigraphs whose weights are -1 or 0, so parallel edges often tie
    at their minimum."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 24)) if n else 0
    end = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(end, end, st.integers(-1, 0)),
                          min_size=m, max_size=m))
    return DiGraph.from_edges(n, edges)


@st.composite
def masks(draw, m):
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "random":
        return np.array(draw(st.lists(st.booleans(), min_size=m,
                                      max_size=m)), dtype=bool)
    return np.full(m, kind == "full")


def check_reversed(g):
    r = g.reversed()
    assert_same_graph(r, DiGraph(g.n, g.dst, g.src, g.w))
    assert_same_graph(r.reversed(), DiGraph(g.n, g.src, g.dst, g.w))


def check_induced(g, nodes):
    h, kept = g.induced_subgraph(nodes)
    assert kept.tolist() == sorted(set(nodes))
    inside = np.isin(g.src, kept) & np.isin(g.dst, kept)
    renum = np.searchsorted(kept, np.arange(g.n))
    assert_same_graph(h, DiGraph(len(kept), renum[g.src[inside]],
                                 renum[g.dst[inside]], g.w[inside]))


def check_masked(g, mask, weights):
    assert_same_graph(edge_subgraph_mask(g, mask),
                      DiGraph(g.n, g.src[mask], g.dst[mask], g.w[mask]))
    assert_same_graph(edge_subgraph_mask(g, mask, weights=weights),
                      DiGraph(g.n, g.src[mask], g.dst[mask], weights[mask]))


def check_leq_zero(g, weights):
    for w in (None, weights):
        ww = g.w if w is None else w
        sub, eids = leq_zero_subgraph(g, weights=w)
        keep = ww <= 0
        assert_same_graph(sub, DiGraph(g.n, g.src[keep], g.dst[keep],
                                       ww[keep]))
        # eids[i] is the original edge behind subgraph edge i
        assert eids.tolist() == np.flatnonzero(keep).tolist()
        assert (g.src[eids] == sub.src).all()
        assert (g.dst[eids] == sub.dst).all()
        assert (ww[eids] == sub.w).all()


def check_condense(g, comp, weights):
    for w in (None, weights):
        ww = g.w if w is None else w
        c = condense(g, comp, weights=w)
        # reference: per contracted pair, the minimum weight and the first
        # original edge id attaining it
        best: dict[tuple[int, int], tuple[int, int]] = {}
        for e in range(g.m):
            key = (int(comp[g.src[e]]), int(comp[g.dst[e]]))
            if key[0] != key[1]:
                best[key] = min(best.get(key, (int(ww[e]), e)),
                                (int(ww[e]), e))
        keys = sorted(best)
        nc = int(comp.max()) + 1 if g.n else 0
        assert_same_graph(c.graph, DiGraph(
            nc, np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([best[k][0] for k in keys], dtype=np.int64)))
        assert c.rep_eid.tolist() == [best[k][1] for k in keys]


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_derived_graphs_match_public_build(g, data):
    mask = data.draw(masks(g.m))
    weights = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=g.m,
                                          max_size=g.m)), dtype=np.int64)
    check_reversed(g)
    check_masked(g, mask, weights)
    check_leq_zero(g, weights)
    if g.n:
        check_induced(g, data.draw(st.lists(st.integers(0, g.n - 1),
                                            max_size=g.n + 2)))
        comp = np.array(data.draw(st.lists(st.integers(0, g.n - 1),
                                           min_size=g.n, max_size=g.n)))
        check_condense(g, comp, weights)


@pytest.mark.parametrize("n, edges", [
    (0, []),
    (3, []),
    (3, [(0, 0, -1), (0, 0, -1), (0, 1, 2), (0, 1, -2), (2, 1, 0),
         (1, 2, 0), (2, 2, 5), (0, 1, 2)]),
], ids=["n0", "m0", "loops-and-parallel"])
def test_derived_graphs_edge_cases(n, edges):
    g = DiGraph.from_edges(n, edges)
    weights = np.arange(g.m, dtype=np.int64) - 3
    check_reversed(g)
    for mask in (np.zeros(g.m, dtype=bool), np.ones(g.m, dtype=bool),
                 np.arange(g.m) % 2 == 0):
        check_masked(g, mask, weights)
    check_leq_zero(g, weights)
    if n:
        check_induced(g, [])
        check_induced(g, list(range(n)))
        check_induced(g, [2, 0, 2])
        check_condense(g, np.zeros(n, dtype=np.int64), weights)
        check_condense(g, np.array([1, 0, 1]), weights)
        check_condense(g, np.arange(n), weights)


@given(st.one_of(graphs(), tied_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_condense_matches_lexsort_reference(g, data):
    """One stable pair-key sort plus two ``reduceat``s keeps what the
    three-key lexsort kept, ``rep_eid`` included, on random labels, one
    component and every vertex on its own."""
    kind = data.draw(st.sampled_from(["random", "one", "identity"]))
    if kind == "random" and g.n:
        comp = np.array(data.draw(st.lists(st.integers(0, g.n - 1),
                                           min_size=g.n, max_size=g.n)),
                        dtype=np.int64)
    elif kind == "one":
        comp = np.zeros(g.n, dtype=np.int64)
    else:
        comp = np.arange(g.n, dtype=np.int64)
    weights = np.array(data.draw(st.lists(st.integers(-2, 1), min_size=g.m,
                                          max_size=g.m)), dtype=np.int64)
    for w in (None, weights):
        assert_same_result(condense(g, comp, weights=w),
                           condense_reference(g, comp, weights=w), "condense")


def check_with_source(g, targets, w):
    targets = np.array(targets, dtype=np.int64)
    h = g._with_source(targets, w)
    k = len(targets)
    assert_same_graph(h, DiGraph(g.n + 1,
                                 np.r_[g.src, np.full(k, g.n, dtype=np.int64)],
                                 np.r_[g.dst, targets],
                                 np.r_[g.w, np.asarray(w, dtype=np.int64)]))


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_with_source_matches_public_build(g, data):
    kind = data.draw(st.sampled_from(["none", "all", "some"]))
    if kind == "none":
        targets = []
    elif kind == "all":
        targets = list(range(g.n))
    else:
        targets = sorted(data.draw(st.sets(st.integers(0, max(g.n - 1, 0)),
                                           max_size=g.n)))
    w = data.draw(st.lists(st.integers(-3, 3), min_size=len(targets),
                           max_size=len(targets)))
    check_with_source(g, targets, np.array(w, dtype=np.int64))


@pytest.mark.parametrize("n, edges, targets", [
    (0, [], []),
    (3, [], [0, 1, 2]),
    (3, [(0, 0, -1), (0, 0, -1), (0, 1, 2), (0, 1, -2), (2, 1, 0),
         (1, 2, 0), (2, 2, 5), (0, 1, 2)], [1]),
    (3, [(0, 0, -1), (0, 1, 2), (2, 1, 0), (1, 2, 0)], [0, 2]),
], ids=["n0", "m0-all", "loops-and-parallel", "gaps"])
def test_with_source_edge_cases(n, edges, targets):
    g = DiGraph.from_edges(n, edges)
    check_with_source(g, targets, np.arange(len(targets), dtype=np.int64))


def test_with_source_checks_weights_like_the_public_build():
    """Entry weights get the public constructor's cast and cap."""
    g = DiGraph.from_edges(2, [(0, 1, 1)])
    targets = np.array([0, 1], dtype=np.int64)
    assert g._with_source(targets, np.array([1.0, 2.0])).w.tolist() == \
        [1, 1, 2]
    for bad in ([2 ** 60, 0], [0.5, 0.0], [np.nan, 0.0]):
        with pytest.raises(InputValidationError):
            g._with_source(targets, np.array(bad))


def last_min_condense(condense):
    """A wrong ``condense``: each contracted edge's representative is the
    *last* original edge of its group at the minimum weight."""
    @functools.wraps(condense)
    def wrong(g, comp, weights=None):
        c = condense(g, comp, weights)
        w = g.w if weights is None else np.asarray(weights, dtype=np.int64)
        rep = c.rep_eid.copy()
        for i, e in enumerate(c.rep_eid.tolist()):
            tie = ((comp[g.src] == comp[g.src[e]])
                   & (comp[g.dst] == comp[g.dst[e]]) & (w == w[e]))
            rep[i] = tie.nonzero()[0][-1]
        return Condensation(c.graph, c.comp, rep)
    return wrong


@pytest.mark.differential
def test_recheck_mode_catches_a_last_minimum_condense(monkeypatch):
    """Edges 1 and 2 contract to the same pair at the same weight; a
    ``condense`` that keeps edge 2 instead of edge 1 fails the re-check
    mode when a caller runs it."""
    transform = importlib.import_module("repro.graph.transform")
    swap_bindings(monkeypatch, transform.condense,
                  last_min_condense(transform.condense))
    recheck_kernels(monkeypatch)
    g = DiGraph.from_edges(4, [(0, 1, 0), (0, 2, -1), (1, 2, -1),
                               (2, 3, 0)])
    comp = np.array([0, 0, 1, 2])
    improvement = importlib.import_module("repro.core.improvement")
    with pytest.raises(AssertionError, match="condense"):
        improvement.condense(g, comp)


def test_caller_weights_keep_magnitude_check():
    g = DiGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
    big = np.array([2 ** 60, 0], dtype=np.int64)
    with pytest.raises(InputValidationError):
        edge_subgraph_mask(g, np.ones(2, dtype=bool), weights=big)
    with pytest.raises(InputValidationError):
        condense(g, np.array([0, 1]), weights=big)
    with pytest.raises(InputValidationError):
        leq_zero_subgraph(g, weights=-big)
    # the check applies to the kept edges, as in the public constructor
    kept = edge_subgraph_mask(g, np.array([False, True]), weights=big)
    assert kept.w.tolist() == [0]


def test_weights_length_check():
    g = DiGraph.from_edges(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        edge_subgraph_mask(g, np.ones(1, dtype=bool),
                           weights=np.zeros(2, dtype=np.int64))


@pytest.mark.differential
def test_recheck_mode_catches_unsorted_input():
    """Differential tests run with the trusted constructor re-checked
    against the public one (``tests/conftest.py``): unsorted edges must
    fail there, sorted ones pass."""
    z = np.zeros(2, dtype=np.int64)
    ok = DiGraph._from_sorted(2, np.array([0, 1]), np.array([1, 0]), z,
                              np.array([1, 0]))
    assert ok.m == 2
    with pytest.raises(AssertionError, match="slot 'src'"):
        DiGraph._from_sorted(2, np.array([1, 0]), np.array([0, 1]), z,
                             np.array([0, 1]))
