"""Tests for the experiment harness's helpers and table rendering.

The experiments' claims are judged at full size in
``tests/test_claims.py``.
"""

import numpy as np
import pytest

from repro.analysis import Row, fit_exponent, render_table


class TestFitExponent:
    def test_linear(self):
        xs = [1, 2, 4, 8]
        assert fit_exponent(xs, xs) == pytest.approx(1.0)

    def test_quadratic(self):
        xs = np.array([1, 2, 4, 8.0])
        assert fit_exponent(xs, xs ** 2) == pytest.approx(2.0)

    def test_sqrt(self):
        xs = np.array([1, 4, 16, 64.0])
        assert fit_exponent(xs, np.sqrt(xs)) == pytest.approx(0.5)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([1], [1])

    def test_ignores_nonpositive(self):
        assert fit_exponent([1, 0, 2, 4], [1, 5, 2, 4]) == pytest.approx(1.0)


class TestRenderTable:
    def test_empty(self):
        assert "(no rows)" in render_table([], "t")

    def test_alignment_and_values(self):
        rows = [Row(params={"n": 5}, values={"ok": True, "x": 1.5}),
                Row(params={"n": 10}, values={"ok": False, "x": 0.25})]
        text = render_table(rows, "demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "n" in lines[1] and "ok" in lines[1]
        assert "yes" in text and "no" in text

    def test_union_of_columns(self):
        rows = [Row(params={"a": 1}), Row(params={"b": 2})]
        text = render_table(rows)
        assert "a" in text and "b" in text

    def test_dict_values(self):
        rows = [Row(values={"methods": {"chain": 2, "set": 1}})]
        assert "chain:2" in render_table(rows)

    def test_large_and_small_floats(self):
        rows = [Row(values={"big": 1.23e7, "small": 1.2e-5})]
        text = render_table(rows)
        assert "1.23e+07" in text and "1.2e-05" in text

