"""Tests for the find_negative_cycle convenience API."""

import pytest

from repro.core import engine_names, find_negative_cycle
from repro.graph import (
    DiGraph,
    hidden_potential_graph,
    planted_negative_cycle_graph,
    validate_negative_cycle,
)


@pytest.mark.parametrize("engine", engine_names())
class TestFindNegativeCycle:
    def test_none_when_feasible(self, engine):
        g = hidden_potential_graph(20, 90, seed=0)
        assert find_negative_cycle(g, engine=engine) is None

    def test_finds_planted(self, engine):
        g, _ = planted_negative_cycle_graph(20, 80, 3, seed=1)
        cyc = find_negative_cycle(g, engine=engine)
        assert cyc is not None
        assert validate_negative_cycle(g, cyc)

    def test_finds_unreachable_cycle(self, engine):
        # the cycle is nowhere near vertex 0 — detection is global
        g = DiGraph.from_edges(5, [(0, 1, 1), (3, 4, -2), (4, 3, 1)])
        cyc = find_negative_cycle(g, engine=engine)
        assert cyc is not None
        assert set(cyc) <= {3, 4}

    def test_empty_graph(self, engine):
        assert find_negative_cycle(DiGraph.from_edges(3, []),
                                   engine=engine) is None
