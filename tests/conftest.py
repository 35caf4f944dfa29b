"""Shared fixtures and helpers for the test suite.

networkx/scipy are used here (and only here) as independent oracles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DiGraph


def graph_from_triples(n, triples):
    return DiGraph.from_edges(n, triples)


from oracles import assert_same_graph, nx_sssp_oracle  # noqa: E402,F401 (re-export)

#: Test modules that re-check every trusted graph build, on top of the
#: tests marked ``differential``.
RECHECKED_MODULES = frozenset({"test_golden_costs", "test_golden_traces"})


def rechecked(build):
    """Wrap the trusted derived-graph constructor so that every call also
    runs the public ``DiGraph(n, src, dst, w)`` — full validation and
    both sorts — and asserts that all slots are equal."""
    def checked(n, src, dst, w, reids):
        g = build(n, src, dst, w, reids)
        assert_same_graph(g, DiGraph(n, src, dst, w))
        return g
    return checked


@pytest.fixture(autouse=True)
def recheck_trusted_graphs(request, monkeypatch):
    """Re-check mode for ``DiGraph._from_sorted`` in the differential,
    golden-cost and golden-trace tests: what the trusted path skips (the
    cast, the range check, the sorts) is redone and compared on every
    call."""
    module = request.module.__name__.rpartition(".")[2]
    if (request.node.get_closest_marker("differential") is not None
            or module in RECHECKED_MODULES):
        monkeypatch.setattr(DiGraph, "_from_sorted",
                            staticmethod(rechecked(DiGraph._from_sorted)))


@pytest.fixture
def diamond():
    """s -> a,b -> t diamond with mixed weights."""
    #      1        2
    #  s ----> a ----> t
    #  s ----> b ----> t
    #      4        -1
    return graph_from_triples(4, [(0, 1, 1), (0, 2, 4), (1, 3, 2), (2, 3, -1)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
