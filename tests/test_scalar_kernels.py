"""The scalar kernels equal their numpy-indexed references bit for bit.

``dijkstra``, ``dijkstra_from_labels``, ``dag_sssp``, ``scc_sequential``
and BNW's ``_ldd_clusters`` read and write through ``memoryview``s; the
references in ``tests/oracles.py`` are the same loops indexing the numpy
arrays.  Distances must agree byte for byte and parents, component ids
and cluster ids exactly, which pins heap tie-breaking among zero-weight
paths, parallel edges and tied labels; ``_ldd_clusters`` must also leave
its RNG in the same state.  The last test checks that the re-check mode
of ``conftest.py`` fails a kernel that disagrees with its reference.
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bnw as bnw
import repro.core.fischer as fischer
import repro.core.improvement as improvement
import repro.core.sssp as sssp
from conftest import recheck_kernels, swap_bindings
from oracles import (
    assert_same_result,
    dag_sssp_reference,
    dijkstra_from_labels_reference,
    dijkstra_reference,
    ldd_clusters_reference,
    scc_sequential_reference,
)
from repro.baselines.dag_relax import dag_sssp
from repro.baselines.dijkstra import dijkstra, dijkstra_from_labels
from repro.graph import DiGraph
from repro.reach.scc import scc_sequential
from repro.runtime.metrics import CostAccumulator
from repro.runtime.model import DEFAULT_MODEL
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
        bnw._ldd_clusters(g, g.w, diameter, rng, acc, DEFAULT_MODEL),
        ldd_clusters_reference(g, g.w, diameter, ref_rng, ref_acc,
                               DEFAULT_MODEL))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert acc.snapshot() == ref_acc.snapshot()


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
    def wrong(g, wp, diameter, rng, acc, model):
        out = kernel(g, wp, diameter, rng, acc, model)
        rng.random()
        return out
    return wrong


def extra_charge(kernel):
    """A wrong ``dijkstra_from_labels``: right labels, one unit of work
    charged too many."""
    @functools.wraps(kernel)
    def wrong(g, labels, acc=None, model=DEFAULT_MODEL):
        out = kernel(g, labels, acc, model)
        acc.charge(1)
        return out
    return wrong


G = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 1), (2, 0, 0), (0, 2, 1)])
DAG = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 2), (0, 2, 1)])


@pytest.mark.differential
@pytest.mark.parametrize("caller, name, mutate, call", [
    (sssp, "dijkstra", bump("parent"), lambda f: f(G, 0)),
    (fischer, "dijkstra_from_labels", bump(),
     lambda f: f(G, np.zeros(3, dtype=np.int64), CostAccumulator())),
    (fischer, "dijkstra_from_labels", extra_charge,
     lambda f: f(G, np.zeros(3, dtype=np.int64), CostAccumulator())),
    (improvement, "dag_sssp", bump("dist"), lambda f: f(DAG, 0)),
    (improvement, "scc_sequential", bump("comp"), lambda f: f(G)),
    (bnw, "_ldd_clusters", bump(),
     lambda f: f(G, G.w, 2, make_rng(0), CostAccumulator(), DEFAULT_MODEL)),
    (bnw, "_ldd_clusters", extra_draw,
     lambda f: f(G, G.w, 2, make_rng(0), CostAccumulator(), DEFAULT_MODEL)),
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
