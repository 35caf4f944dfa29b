"""The scalar kernels equal their numpy-indexed references bit for bit.

``dijkstra``, ``dijkstra_from_labels``, ``dag_sssp``, ``scc_sequential``
and BNW's ``_ldd_clusters`` read and write through ``memoryview``s; the
references in ``tests/oracles.py`` are the same loops indexing the numpy
arrays.  Distances must agree byte for byte and parents, component ids
and cluster ids exactly, which pins heap tie-breaking among zero-weight
paths, parallel edges and tied labels; ``_ldd_clusters`` must also leave
its RNG in the same state.  The last tests check that the re-check mode
of ``conftest.py`` fails a kernel that disagrees with its reference.

``dijkstra`` keeps a bucket queue where its reference keeps a
``(distance, vertex)`` tuple heap, so its tests also draw what makes
buckets large and ties many (weights in ``{0, 1}``, parallel edges),
weights whose float sums round past 2^53, and limits at every tentative
distance.  They catch a bucket that pops vertex ids first in, first out,
a same-distance relaxation queued in a fresh bucket instead of the one
being drained, and ``<=`` in place of ``<``.  Setting every vertex still
queued to ``+inf`` when the limit stops the loop, as the tuple heap's
drain did, is an equivalent mutant: the final ``dist > limit`` mask
already does it.

``multisource_reachability`` and ``multisource_reachability_min`` run
each BFS round as a scalar loop or as a numpy round, by the frontier's
size against ``SCALAR_ROUND_MAX``; their tests patch that constant to 0
and to 2^62 to force each form, and leave it as it is on graphs with a
hub vertex whose slot count straddles it, and compare with the
numpy-only references.  They catch labels read live instead of at round
start and the first of two sources reaching a vertex in one round
winning instead of the last.
"""

import copy
import functools
import heapq
import importlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bnw as bnw
import repro.core.engines as engines
import repro.core.fischer as fischer
import repro.core.improvement as improvement
import repro.reach.multisource as multisource
from conftest import recheck_kernels, swap_bindings
from oracles import (
    assert_same_result,
    dag_sssp_reference,
    dijkstra_from_labels_reference,
    dijkstra_reference,
    ldd_clusters_reference,
    multisource_reachability_min_reference,
    multisource_reachability_reference,
    scc_sequential_reference,
)
from repro.baselines.dag_relax import dag_sssp
from repro.baselines.dijkstra import dijkstra, dijkstra_from_labels
from repro.graph import DiGraph
from repro.reach import multisource_reachability, multisource_reachability_min
from repro.reach.scc import scc_sequential
from repro.runtime.metrics import CostAccumulator
from repro.runtime.rng import make_rng

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, min_w=0, max_w=2, dag=False):
    """Multigraphs on 1..7 vertices with 0..20 edges, so parallel edges,
    self-loops, zero-weight ties and unreachable vertices are common.
    ``dag=True`` drops self-loops and orients every edge along a random
    vertex order."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 20))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.integers(min_w, max_w)),
                          min_size=m, max_size=m))
    if dag:
        rank = draw(st.permutations(range(n)))
        edges = [(u, v, w) if rank[u] < rank[v] else (v, u, w)
                 for u, v, w in edges if u != v]
    return DiGraph.from_edges(n, edges)


def edge_weights(g, min_w, max_w):
    """``None`` (use ``g.w``) or an int64 override aligned with the edges."""
    ws = st.lists(st.integers(min_w, max_w), min_size=g.m, max_size=g.m)
    return st.none() | ws.map(lambda w: np.array(w, dtype=np.int64))


@SETTINGS
@given(graphs(), st.data())
def test_dijkstra_matches_reference(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    weights = data.draw(edge_weights(g, 0, 2))
    full = dijkstra_reference(g, source, weights)
    attained = np.unique(full.dist[np.isfinite(full.dist)]).tolist()
    # limits below, at and above every attained distance
    limit = data.draw(st.none() | st.sampled_from(
        [d + step for d in attained for step in (-1, 0, 1)]))
    assert_same_result(dijkstra(g, source, weights, limit),
                       dijkstra_reference(g, source, weights, limit))


def doubled(g):
    """``g`` with every edge twice, at the same weight."""
    return DiGraph(g.n, np.tile(g.src, 2), np.tile(g.dst, 2),
                   np.tile(g.w, 2))


def limits(g, source, weights):
    """``limit``s below 0, fractional, above every distance, and at and
    half a unit around every tentative distance: ``dist[u] + w(u, v)``
    over the edges leaving a reached ``u``, summed in float64 as the
    kernel sums them."""
    full = dijkstra_reference(g, source, weights)
    w = g.w if weights is None else weights
    du = full.dist[g.src]
    tentative = (du + w.astype(np.float64))[np.isfinite(du)].tolist()
    return [-1, -0.5, 2.5, np.inf] + [
        x + step for x in [0.0, *tentative] for step in (-0.5, 0, 0.5)]


@SETTINGS
@given(st.sampled_from([0, 1]).flatmap(lambda hi: graphs(max_w=hi)),
       st.booleans(), st.data())
def test_dijkstra_zero_one_weights_match_reference(g, parallel, data):
    """All-zero and ``{0, 1}`` weights: large buckets, many ties."""
    if parallel:
        g = doubled(g)
    source = data.draw(st.integers(0, g.n - 1))
    weights = data.draw(edge_weights(g, 0, 1))
    limit = data.draw(st.none() | st.sampled_from(limits(g, source, weights)))
    assert_same_result(dijkstra(g, source, weights, limit),
                       dijkstra_reference(g, source, weights, limit))


#: Weights of 2^40 and more; paths over them sum past 2^53, where float64
#: rounding can make ``d + w == d`` for ``w > 0``.
BIG_WEIGHTS = (0, 1, 2 ** 40, 2 ** 40 + 1, 2 ** 52 + 1, 2 ** 53 - 1, 2 ** 53,
               2 ** 62)


@SETTINGS
@given(graphs(), st.data())
def test_dijkstra_big_weights_match_reference(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    weights = np.array(data.draw(st.lists(st.sampled_from(BIG_WEIGHTS),
                                          min_size=g.m, max_size=g.m)),
                       dtype=np.int64)
    limit = data.draw(st.none() | st.sampled_from(limits(g, source, weights)))
    assert_same_result(dijkstra(g, source, weights, limit),
                       dijkstra_reference(g, source, weights, limit))


#: Bucket 0 holds 2 and 3; settling 2 queues 1 at the same distance
#: (a zero-weight edge into a smaller id), and the tuple heap pops 1
#: before 3, so 4 is reached through 1.
ZERO_TIES_EDGES = [(0, 2, 0), (0, 3, 0), (2, 1, 0), (1, 4, 1), (3, 4, 1)]
ZERO_TIES = DiGraph.from_edges(5, ZERO_TIES_EDGES)


@st.composite
def planted_ties(draw):
    """A graph on 5..9 vertices with ``ZERO_TIES`` planted on five of
    them in id order, plus up to 12 edges of weight 0 or 1, and the
    image of ``ZERO_TIES``'s source.  (Random graphs this small rarely
    queue a smaller id behind a larger one in the same bucket.)"""
    n = draw(st.integers(5, 9))
    ids = sorted(draw(st.lists(st.integers(0, n - 1), min_size=5,
                               max_size=5, unique=True)))
    end = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(end, end, st.integers(0, 1)),
                          max_size=12))
    edges = [(ids[u], ids[v], w) for u, v, w in ZERO_TIES_EDGES] + extra
    return DiGraph.from_edges(n, edges), ids[0]


@SETTINGS
@given(planted_ties(), st.data())
def test_dijkstra_planted_ties_match_reference(g_source, data):
    g, source = g_source
    limit = data.draw(st.none() | st.sampled_from(limits(g, source, None)))
    assert_same_result(dijkstra(g, source, None, limit),
                       dijkstra_reference(g, source, None, limit))


@pytest.mark.parametrize("g, source, weights, limit", [
    (ZERO_TIES, 0, None, None),
    (DiGraph.from_edges(1, []), 0, None, None),
    (DiGraph.from_edges(1, []), 0, None, -1),
    (DiGraph.from_edges(3, []), 1, None, None),
    (DiGraph.from_edges(4, [(0, 1, 3), (2, 3, 1)]), 0, None, None),
    (DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)]), 0,
     np.array([2 ** 53, 1]), None),
    (DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)]), 0,
     np.array([2 ** 53, 1]), 2.0 ** 53),
    (DiGraph.from_edges(3, [(0, 1, 1), (0, 1, 1), (1, 2, 0)]), 0, None, 2.5),
], ids=["zero-edge-into-smaller-id", "n1", "n1-negative-limit", "m0",
        "unreachable", "sum-rounds-past-2^53", "limit-at-2^53",
        "parallel-fractional-limit"])
def test_dijkstra_edge_cases_match_reference(g, source, weights, limit):
    assert_same_result(dijkstra(g, source, weights, limit),
                       dijkstra_reference(g, source, weights, limit))


@SETTINGS
@given(graphs(), st.data())
def test_dijkstra_from_labels_matches_reference(g, data):
    labels = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=g.n,
                                         max_size=g.n)), dtype=np.int64)
    acc, ref_acc = CostAccumulator(), CostAccumulator()
    assert_same_result(dijkstra_from_labels(g, labels, acc),
                       dijkstra_from_labels_reference(g, labels, ref_acc))
    assert acc.snapshot() == ref_acc.snapshot()


@SETTINGS
@given(graphs(min_w=-3, max_w=3, dag=True), st.data())
def test_dag_sssp_matches_reference(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    weights = data.draw(edge_weights(g, -3, 3))
    assert_same_result(dag_sssp(g, source, weights),
                       dag_sssp_reference(g, source, weights))


@SETTINGS
@given(graphs())
def test_scc_sequential_matches_reference(g):
    assert_same_result(scc_sequential(g), scc_sequential_reference(g))


@SETTINGS
@given(graphs(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_ldd_clusters_match_reference(g, diameter, seed):
    rng = make_rng(seed)
    ref_rng = copy.deepcopy(rng)
    acc, ref_acc = CostAccumulator(), CostAccumulator()
    assert_same_result(
        bnw._ldd_clusters(g, g.w, diameter, rng, acc),
        ldd_clusters_reference(g, g.w, diameter, ref_rng, ref_acc))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert acc.snapshot() == ref_acc.snapshot()


@st.composite
def reach_instances(draw):
    """A multigraph on 1..40 vertices with up to 80 edges (self-loops and
    parallel edges common), up to six sources (none, or repeats), and
    half the time a hub: one vertex with
    ``SCALAR_ROUND_MAX`` ± 8 more out-edges, so that at the module's
    constant a round whose frontier holds it runs as a numpy round while
    the call's other rounds run as scalar loops."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 80))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.just(0)), min_size=m,
                          max_size=m))
    if draw(st.booleans()):
        limit = multisource.SCALAR_ROUND_MAX
        hub = draw(end)
        edges += [(hub, v, 0) for v in draw(st.lists(
            end, min_size=limit - 8, max_size=limit + 8))]
    sources = draw(st.lists(end, max_size=6))
    return DiGraph.from_edges(n, edges), np.array(sources, dtype=np.int64)


#: ``SCALAR_ROUND_MAX`` patched to 0 (every round a numpy round), left at
#: the module's value (both kinds, by frontier), and made huge (every
#: round a scalar loop).
ROUND_PATHS = pytest.mark.parametrize(
    "limit", [0, None, 2 ** 62], ids=["numpy", "hybrid", "scalar"])


def same_as_reference(kernel, reference, limit, g, sources, **kwargs):
    """``kernel`` with ``SCALAR_ROUND_MAX`` at ``limit`` returns what the
    numpy-round ``reference`` returns (``pi`` bytes, ``rounds``,
    ``Cost``) and makes the same charges on a caller's accumulator that
    already holds some."""
    acc = CostAccumulator()
    acc.charge(3, span=2)
    ref_acc = copy.deepcopy(acc)
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(multisource, "SCALAR_ROUND_MAX", limit)
        got = kernel(g, sources, acc, **kwargs)
    assert_same_result(got, reference(g, sources, ref_acc, **kwargs))
    assert acc.snapshot() == ref_acc.snapshot()


@ROUND_PATHS
@SETTINGS
@given(reach_instances(), st.data())
def test_multisource_reachability_matches_reference(limit, inst, data):
    """Last write wins among the sources reaching a vertex in one round;
    ``within=`` (holding every source) against the reference's
    induced-subgraph call."""
    g, sources = inst
    within = data.draw(st.none() | st.lists(
        st.booleans(), min_size=g.n, max_size=g.n).map(
            lambda b: np.array(b, dtype=bool)))
    if within is not None:
        within[sources] = True
    same_as_reference(multisource_reachability,
                      multisource_reachability_reference, limit, g, sources,
                      within=within)


@ROUND_PATHS
@SETTINGS
@given(reach_instances(), st.data())
def test_multisource_reachability_min_matches_reference(limit, inst, data):
    """Labels read at round start, with and without an ``edge_mask``."""
    g, sources = inst
    edge_mask = data.draw(st.none() | st.lists(
        st.booleans(), min_size=g.m, max_size=g.m).map(
            lambda b: np.array(b, dtype=bool)))
    same_as_reference(multisource_reachability_min,
                      multisource_reachability_min_reference, limit, g,
                      sources, edge_mask=edge_mask)


#: A hub 0 with ``SCALAR_ROUND_MAX`` out-edges, to 1 and 2 in turn, and
#: the path 1 -> 3 -> 4: from sources 0 and 4 the first round holds the
#: hub (numpy), the later ones do not (scalar).
HUB = DiGraph.from_edges(
    5, [(0, 1 + i % 2, 0) for i in range(multisource.SCALAR_ROUND_MAX)]
    + [(1, 3, 0), (3, 4, 0)])


@pytest.mark.parametrize("kernel, reference, rounds", [
    (multisource_reachability, multisource_reachability_reference,
     ("_round", "_round_scalar")),
    (multisource_reachability_min, multisource_reachability_min_reference,
     ("_min_round", "_min_round_scalar")),
], ids=["plain", "min"])
def test_one_call_mixes_both_rounds(monkeypatch, kernel, reference, rounds):
    """At the module's constant one call on ``HUB`` runs one numpy round
    and then scalar rounds, and still returns and charges what the
    reference does."""
    calls = {}

    def counted(name):
        round_ = getattr(multisource, name)

        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return round_(*args)
        return count

    for name in rounds:
        monkeypatch.setattr(multisource, name, counted(name))
    same_as_reference(kernel, reference, None, HUB, np.array([0, 4]))
    assert calls[rounds[0]] == 1 and calls[rounds[1]] >= 2


def bump(field=None):
    """A wrong kernel: the first entry of its output array (or of the
    result's ``field``) is one too large."""
    def mutate(kernel):
        @functools.wraps(kernel)
        def wrong(*args, **kwargs):
            out = kernel(*args, **kwargs)
            (out if field is None else getattr(out, field))[0] += 1
            return out
        return wrong
    return mutate


def extra_draw(kernel):
    """A wrong ``_ldd_clusters``: right clusters, one RNG draw too many."""
    @functools.wraps(kernel)
    def wrong(g, wp, diameter, rng, acc):
        out = kernel(g, wp, diameter, rng, acc)
        rng.random()
        return out
    return wrong


def extra_charge(kernel):
    """A wrong ``dijkstra_from_labels``: right labels, one unit of work
    charged too many."""
    @functools.wraps(kernel)
    def wrong(g, labels, acc=None):
        out = kernel(g, labels, acc)
        acc.charge(1)
        return out
    return wrong


def fifo_buckets():
    """A ``heapq`` for a wrong ``dijkstra``: distances still pop smallest
    first, but each bucket pops its vertex ids first in, first out."""
    def heappush(heap, item):
        if isinstance(item, int):
            heap.append(item)
        else:
            heapq.heappush(heap, item)

    def heappop(heap):
        return heap.pop(0) if isinstance(heap[0], int) else heapq.heappop(heap)
    return SimpleNamespace(heappush=heappush, heappop=heappop)


G = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 1), (2, 0, 0), (0, 2, 1)])
DAG = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 2), (0, 2, 1)])


@pytest.mark.differential
@pytest.mark.parametrize("caller, name, mutate, call", [
    (engines, "dijkstra", bump("parent"), lambda f: f(G, 0)),
    (fischer, "dijkstra_from_labels", bump(),
     lambda f: f(G, np.zeros(3, dtype=np.int64), CostAccumulator())),
    (fischer, "dijkstra_from_labels", extra_charge,
     lambda f: f(G, np.zeros(3, dtype=np.int64), CostAccumulator())),
    (improvement, "dag_sssp", bump("dist"), lambda f: f(DAG, 0)),
    (improvement, "scc_sequential", bump("comp"), lambda f: f(G)),
    (bnw, "_ldd_clusters", bump(),
     lambda f: f(G, G.w, 2, make_rng(0), CostAccumulator())),
    (bnw, "_ldd_clusters", extra_draw,
     lambda f: f(G, G.w, 2, make_rng(0), CostAccumulator())),
], ids=["dijkstra", "labels", "labels-charge", "dag_sssp", "scc_sequential",
        "ldd", "ldd-rng"])
def test_recheck_mode_catches_a_wrong_kernel(monkeypatch, caller, name,
                                             mutate, call):
    """A kernel that disagrees with its reference, bound everywhere the
    real one is, fails the re-check mode when a caller runs it."""
    swap_bindings(monkeypatch, getattr(caller, name),
                  mutate(getattr(caller, name)))
    recheck_kernels(monkeypatch)
    with pytest.raises(AssertionError, match=name):
        call(getattr(caller, name))


@pytest.mark.differential
def test_recheck_mode_catches_a_fifo_bucket_dijkstra(monkeypatch):
    """A ``dijkstra`` whose buckets pop vertex ids first in, first out
    settles 3 before 1 on ``ZERO_TIES`` and reaches 4 through 3, and the
    re-check mode fails it when a caller runs it."""
    monkeypatch.setattr(importlib.import_module("repro.baselines.dijkstra"),
                        "heapq", fifo_buckets())
    recheck_kernels(monkeypatch)
    with pytest.raises(AssertionError, match="dijkstra"):
        engines.dijkstra(ZERO_TIES, 0)
