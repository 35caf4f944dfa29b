"""Tests for DIMACS I/O."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DiGraph,
    DimacsError,
    dumps_dimacs,
    hidden_potential_graph,
    loads_dimacs,
    read_dimacs,
    write_dimacs,
    write_distances,
)


SAMPLE = """\
c a tiny instance
p sp 3 3
a 1 2 5
a 2 3 -2
a 1 3 9
"""


class TestRead:
    def test_sample(self):
        g = loads_dimacs(SAMPLE)
        assert g.n == 3 and g.m == 3
        assert sorted(g.edges()) == [(0, 1, 5), (0, 2, 9), (1, 2, -2)]

    def test_blank_lines_and_comments(self):
        g = loads_dimacs("c x\n\np sp 2 1\nc y\na 1 2 3\n")
        assert g.m == 1

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="problem line"):
            loads_dimacs("a 1 2 3\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError, match="duplicate"):
            loads_dimacs("p sp 2 0\np sp 2 0\n")

    def test_wrong_arc_count(self):
        with pytest.raises(DimacsError, match="declares"):
            loads_dimacs("p sp 2 2\na 1 2 3\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            loads_dimacs("p sp 2 1\na 1 5 3\n")

    def test_unknown_record(self):
        with pytest.raises(DimacsError, match="unknown record"):
            loads_dimacs("p sp 2 1\nz 1 2\n")

    def test_malformed_arc(self):
        with pytest.raises(DimacsError):
            loads_dimacs("p sp 2 1\na 1 2\n")

    def test_not_sp_problem(self):
        with pytest.raises(DimacsError):
            loads_dimacs("p max 2 1\na 1 2 3\n")

    @pytest.mark.parametrize("text", [
        "p sp 2 1\na 1 2 1.5\n", "p sp 2 1\na 1 2 x\n",
        "p sp 2 1\na 1 2 100000000000000000000\n",
        "p sp 2 1\na 1 2 -9007199254740993\n",
        "p sp 2 1\na 1.0 2 3\n", "p sp 2 1\na 1 2e0 3\n",
        "p sp 2 1\na 99999999999999999999 2 3\n",
        "p sp x 0\n", "p sp 2 1.5\n", "p sp -1 0\n", "p sp 2 -1\n",
        "p sp 100000000000000000000 0\n"])
    def test_bad_number_names_its_line(self, text):
        # was a bare ValueError or OverflowError for the arc cases
        line = text.count("\n")
        with pytest.raises(DimacsError, match=f"line {line}: "):
            loads_dimacs(text)


class TestWrite:
    def test_roundtrip_text(self):
        g = DiGraph.from_edges(4, [(0, 1, -3), (2, 3, 7)])
        g2 = loads_dimacs(dumps_dimacs(g, comments=["hello"]))
        assert sorted(g.edges()) == sorted(g2.edges())
        assert g2.n == g.n

    def test_roundtrip_file(self, tmp_path):
        g = hidden_potential_graph(25, 100, seed=0)
        path = tmp_path / "g.gr"
        write_dimacs(g, path)
        g2 = read_dimacs(path)
        assert sorted(g.edges()) == sorted(g2.edges())

    def test_empty_graph(self):
        g = DiGraph.from_edges(5, [])
        assert loads_dimacs(dumps_dimacs(g)).n == 5

    def test_write_distances(self):
        buf = io.StringIO()
        write_distances(np.array([0.0, 4.0, np.inf]), buf, source=0)
        lines = buf.getvalue().splitlines()
        assert lines[1:] == ["d 1 0", "d 2 4", "d 3 inf"]


class TestRoundTripProperty:
    @given(st.integers(1, 15), st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14),
                  st.integers(-1000, 1000)), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_dimacs_roundtrip_property(self, n, raw):
        edges = [(u % n, v % n, w) for u, v, w in raw]
        g = DiGraph.from_edges(n, edges)
        g2 = loads_dimacs(dumps_dimacs(g))
        assert g2.n == g.n
        assert sorted(g.edges()) == sorted(g2.edges())

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary text either parses or raises DimacsError — never
        another exception type."""
        try:
            loads_dimacs(text)
        except DimacsError:
            pass
