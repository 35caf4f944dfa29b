"""Unit tests for the work-span accounting objects."""

import math
import warnings

import numpy as np
import pytest

from repro.runtime import Cost, CostAccumulator
from repro.runtime.metrics import ZERO


class TestCost:
    def test_defaults_zero(self):
        c = Cost()
        assert c.work == 0 and c.span == 0 and c.span_model == 0

    def test_span_model_defaults_to_span(self):
        c = Cost(10, 3)
        assert c.span_model == 3

    def test_span_model_explicit(self):
        c = Cost(10, 3, 7)
        assert c.span == 3 and c.span_model == 7

    def test_sequential_composition_adds(self):
        c = Cost(5, 2) + Cost(7, 3)
        assert (c.work, c.span, c.span_model) == (12, 5, 5)

    def test_parallel_composition_maxes_span(self):
        c = Cost(5, 2) | Cost(7, 3)
        assert (c.work, c.span, c.span_model) == (12, 3, 3)

    def test_parallel_composition_mixed_model_span(self):
        c = Cost(5, 2, 9) | Cost(7, 3, 1)
        assert c.span == 3 and c.span_model == 9

    def test_scaled(self):
        c = Cost(5, 2).scaled(3)
        assert (c.work, c.span) == (15, 6)

    def test_parallel_all_empty(self):
        c = Cost.parallel_all([])
        assert c == ZERO

    def test_parallel_all(self):
        c = Cost.parallel_all([Cost(1, 1), Cost(2, 5), Cost(3, 2)])
        assert (c.work, c.span) == (6, 5)

    def test_parallel_all_adds_work_left_to_right(self):
        # the same interpreter-independent sum as join_parallel's
        c = Cost.parallel_all([Cost(0.1, 0.0)] * 10)
        assert c.work.hex() == "0x1.fffffffffffffp-1"

    def test_parallelism(self):
        assert Cost(100, 4).parallelism == 25
        assert Cost(100, 0).parallelism == math.inf

    def test_add_non_cost_not_implemented(self):
        with pytest.raises(TypeError):
            Cost(1, 1) + 3

    def test_immutable(self):
        with pytest.raises(Exception):
            Cost(1, 1).work = 5


class TestCostAccumulator:
    def test_starts_at_zero(self):
        acc = CostAccumulator()
        assert acc.work == 0 and acc.span == 0 and acc.span_model == 0

    def test_charge_defaults(self):
        acc = CostAccumulator()
        acc.charge(5)
        assert acc.work == 5 and acc.span == 5 and acc.span_model == 5

    def test_charge_span_model_defaults_to_span(self):
        acc = CostAccumulator()
        acc.charge(10, 2)
        assert acc.span == 2 and acc.span_model == 2

    def test_charge_split_tracks(self):
        acc = CostAccumulator()
        acc.charge(10, span=2, span_model=8)
        assert acc.span == 2 and acc.span_model == 8

    def test_negative_charge_rejected(self):
        acc = CostAccumulator()
        with pytest.raises(ValueError):
            acc.charge(-1)

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_nan_charge_rejected(self, field):
        # a NaN that got in would make every later total NaN
        amounts = [1.0, 1.0, 1.0]
        amounts[field] = math.nan
        acc = CostAccumulator()
        with pytest.raises(ValueError):
            acc.charge(*amounts)
        assert (acc.work, acc.span, acc.span_model) == (0.0, 0.0, 0.0)

    def test_charge_cost(self):
        acc = CostAccumulator()
        acc.charge_cost(Cost(3, 1, 2))
        acc.charge_cost(Cost(4, 2, 2))
        assert (acc.work, acc.span, acc.span_model) == (7, 3, 4)

    def test_snapshot_is_cost(self):
        acc = CostAccumulator()
        acc.charge(4, 2)
        snap = acc.snapshot()
        assert isinstance(snap, Cost)
        assert snap.work == 4 and snap.span == 2

    def test_fork_join_parallel(self):
        acc = CostAccumulator()
        b1, b2 = acc.fork(), acc.fork()
        b1.charge(10, 4)
        b2.charge(20, 3)
        acc.join_parallel([b1, b2], fork_span=1)
        assert acc.work == 30
        assert acc.span == 5  # max(4, 3) + 1

    def test_join_parallel_empty(self):
        acc = CostAccumulator()
        acc.join_parallel([], fork_span=2)
        assert acc.work == 0 and acc.span == 2

    def test_join_parallel_adds_work_left_to_right(self):
        # Python 3.11's sum() of ten 0.1s is 0x1.fffffffffffffp-1 and
        # 3.12's compensated sum() is 1.0; model work must not depend on
        # the interpreter, so the branches add left to right on both
        acc = CostAccumulator()
        branches = [acc.fork() for _ in range(10)]
        for b in branches:
            b.charge(0.1, 0.0)
        acc.join_parallel(branches)
        assert acc.work.hex() == "0x1.fffffffffffffp-1"

    def test_parallelism_property(self):
        acc = CostAccumulator()
        acc.charge(100, span=5, span_model=10)
        assert acc.parallelism == 10

    def test_parallelism_overflows_to_inf_quietly(self):
        acc = CostAccumulator()
        acc.charge(np.float64(1.0), span=np.float64(5e-324))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert acc.parallelism == math.inf
