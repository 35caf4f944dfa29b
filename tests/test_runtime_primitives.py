"""Unit + property tests for the data-parallel primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime import CostAccumulator
from repro.runtime.model import lg
from repro.runtime.primitives import (
    dedupe,
    flatten,
    group_by_key,
    pack,
    parallel_argsort,
    parallel_map,
    parallel_reduce_max,
    parallel_reduce_sum,
    parallel_sort,
    prefix_sum,
    stable_argsort,
    unique_sorted,
)

int_arrays = hnp.arrays(np.int64, st.integers(0, 200),
                        elements=st.integers(-1000, 1000))


class TestPrefixSum:
    def test_exclusive_semantics(self):
        acc = CostAccumulator()
        out = prefix_sum(np.array([3, 1, 4, 1, 5]), acc)
        assert out.tolist() == [0, 3, 4, 8, 9, 14]

    def test_empty(self):
        acc = CostAccumulator()
        assert prefix_sum(np.array([], dtype=np.int64), acc).tolist() == [0]

    def test_charges_linear_work(self):
        acc = CostAccumulator()
        prefix_sum(np.arange(100), acc)
        assert acc.work == 100
        assert acc.span == pytest.approx(lg(100))

    @given(int_arrays)
    @settings(max_examples=30, deadline=None)
    def test_matches_cumsum(self, a):
        acc = CostAccumulator()
        out = prefix_sum(a, acc)
        assert out[0] == 0
        np.testing.assert_array_equal(out[1:], np.cumsum(a))


class TestPack:
    def test_selects_masked(self):
        acc = CostAccumulator()
        a = np.array([1, 2, 3, 4])
        m = np.array([True, False, True, False])
        assert pack(a, m, acc).tolist() == [1, 3]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pack(np.arange(3), np.array([True]), CostAccumulator())

    def test_span_is_logarithmic(self):
        acc = CostAccumulator()
        pack(np.arange(1024), np.zeros(1024, dtype=bool), acc)
        assert acc.span == pytest.approx(2 * lg(1024))


class TestSort:
    @given(int_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sorted_output(self, a):
        acc = CostAccumulator()
        out = parallel_sort(a, acc)
        np.testing.assert_array_equal(out, np.sort(a))

    def test_argsort_stable(self):
        acc = CostAccumulator()
        a = np.array([2, 1, 2, 1])
        order = parallel_argsort(a, acc)
        assert order.tolist() == [1, 3, 0, 2]

    def test_work_n_log_n(self):
        acc = CostAccumulator()
        parallel_sort(np.arange(256), acc)
        assert acc.work == pytest.approx(256 * lg(256))
        assert acc.span == pytest.approx(lg(256) ** 2)


class TestReduce:
    def test_max_empty_default(self):
        acc = CostAccumulator()
        assert parallel_reduce_max(np.array([]), acc, default=-1) == -1

    def test_max(self):
        acc = CostAccumulator()
        assert parallel_reduce_max(np.array([3, 9, 2]), acc) == 9

    def test_sum(self):
        acc = CostAccumulator()
        assert parallel_reduce_sum(np.array([3, 9, 2]), acc) == 14

    def test_sum_empty(self):
        acc = CostAccumulator()
        assert parallel_reduce_sum(np.array([]), acc) == 0


class TestParallelMap:
    def test_applies_function(self):
        acc = CostAccumulator()
        assert parallel_map([1, 2, 3], lambda x: x * x, acc) == [1, 4, 9]

    def test_charges_per_item_work(self):
        acc = CostAccumulator()
        parallel_map(list(range(10)), lambda x: x, acc, per_item_work=3.0)
        assert acc.work == 30


class TestGroupByKey:
    def test_groups(self):
        acc = CostAccumulator()
        keys = np.array([2, 1, 2, 1, 3])
        vals = np.array([10, 20, 30, 40, 50])
        groups = dict((k, sorted(v.tolist()))
                      for k, v in group_by_key(keys, vals, acc))
        assert groups == {1: [20, 40], 2: [10, 30], 3: [50]}

    def test_empty(self):
        acc = CostAccumulator()
        assert group_by_key(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64), acc) == []

    def test_mismatch(self):
        with pytest.raises(ValueError):
            group_by_key(np.arange(3), np.arange(2), CostAccumulator())

    @given(hnp.arrays(np.int64, st.integers(1, 50),
                      elements=st.integers(0, 5)))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, keys):
        """Groups partition the values and preserve key association."""
        acc = CostAccumulator()
        vals = np.arange(len(keys))
        groups = group_by_key(keys, vals, acc)
        seen = np.concatenate([v for _, v in groups]) if groups else np.array([])
        assert sorted(seen.tolist()) == list(range(len(keys)))
        for k, v in groups:
            assert (keys[v] == k).all()


class TestFlattenDedupe:
    def test_flatten(self):
        acc = CostAccumulator()
        out = flatten([np.array([1, 2]), np.array([]), np.array([3])], acc)
        assert out.tolist() == [1, 2, 3]

    def test_flatten_empty(self):
        acc = CostAccumulator()
        assert flatten([], acc).tolist() == []

    def test_dedupe(self):
        acc = CostAccumulator()
        assert dedupe(np.array([3, 1, 3, 2, 1]), acc).tolist() == [1, 2, 3]


INT64 = np.iinfo(np.int64)
extremes = st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1,
                            INT64.max - 1, INT64.max])
dedupe_inputs = st.one_of(
    hnp.arrays(np.int64, st.integers(0, 60),
               elements=st.one_of(st.integers(-5, 5), extremes,
                                  st.integers(INT64.min, INT64.max))),
    hnp.arrays(st.sampled_from([np.int32, np.uint8, np.uint64]),
               st.integers(0, 30)),
    hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, max_side=5),
               elements=st.integers(-3, 3)),
)


class TestUniqueSorted:
    """``unique_sorted`` returns what ``np.unique`` returns, dtype
    included, as a new array."""

    @given(dedupe_inputs)
    @settings(max_examples=300, deadline=None)
    def test_matches_np_unique(self, a):
        before = a.copy()
        got, want = unique_sorted(a), np.unique(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, a)
        assert (a == before).all()

    @pytest.mark.parametrize("a", [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        np.array([2, 2, 2]),
        np.array([INT64.max, INT64.min, INT64.max, -1, INT64.min]),
    ], ids=["empty", "one", "all-equal", "extremes"])
    def test_edge_cases(self, a):
        want = np.unique(a)
        got = unique_sorted(a)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestStableArgsort:
    """``stable_argsort`` returns ``np.argsort(keys, kind="stable")``:
    ties keep their positions, on the one-key path and on the fallback
    that a bound of ``2**63 // len + 1`` forces."""

    @staticmethod
    def check(keys, bound):
        got = stable_argsort(keys, bound)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @given(st.lists(st.integers(0, 3), max_size=300), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_heavy_ties(self, xs, fallback):
        keys = np.array(xs, dtype=np.int64)
        bound = 2 ** 63 // max(len(keys), 1) + 1 if fallback else 4
        self.check(keys, bound)

    @given(st.integers(1, 300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_keys_at_the_largest_one_key_bound(self, k, data):
        """The combined key reaches ``bound * len - 1`` without
        overflowing."""
        bound = (2 ** 63 - 1) // k
        xs = data.draw(st.lists(st.sampled_from([0, 1, bound - 2, bound - 1]),
                                min_size=k, max_size=k))
        self.check(np.array(xs, dtype=np.int64), bound)

    def test_empty_and_one(self):
        self.check(np.empty(0, dtype=np.int64), 1)
        self.check(np.array([5], dtype=np.int64), 6)
