"""Tests for the vector of ordered sets (§3.5, §4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SetVectorReference, assert_same_result
from repro.resilience.errors import InputValidationError
from repro.runtime import Cost, CostAccumulator, SetVector, model


class TestSetVector:
    def test_init_sizes(self):
        vs = SetVector(5)
        assert len(vs) == 5
        assert all(vs.size(i) == 0 for i in range(5))

    def test_add_and_gather(self):
        vs = SetVector(3)
        vs.add_batch(0, np.array([1, 2]))
        vs.add_batch(2, np.array([5]))
        out = vs.gather([0, 1, 2])
        assert sorted(out.tolist()) == [1, 2, 5]

    def test_gather_empty_idents(self):
        vs = SetVector(3)
        assert vs.gather([]).tolist() == []

    def test_clear_many(self):
        vs = SetVector(3)
        vs.add_batch(0, np.array([1]))
        vs.add_batch(1, np.array([2]))
        vs.clear_many([0])
        assert vs.size(0) == 0 and vs.size(1) == 1

    def test_add_batch_dedupes(self):
        vs = SetVector(1)
        vs.add_batch(0, np.array([1, 1, 2]))
        vs.add_batch(0, np.array([2, 3]))
        assert vs.size(0) == 3

    def test_costs_charged(self):
        acc = CostAccumulator()
        vs = SetVector(4, acc)
        vs.add_batch(0, np.arange(10), acc)
        vs.gather([0, 1], acc)
        assert acc.work >= 10

    def test_add_batch_sorts_and_dedupes(self):
        vs = SetVector(1)
        vs.add_batch(0, np.array([3, 1, 3, 2]))
        out = vs.gather([0])
        assert out.tolist() == [1, 2, 3] and out.dtype == np.int64

    def test_add_batch_into_empty(self):
        vs = SetVector(2)
        vs.add_batch(1, [5, 1])
        assert vs.gather([1]).tolist() == [1, 5] and vs.size(0) == 0

    def test_add_batch_empty_keys(self):
        vs = SetVector(1)
        vs.add_batch(0, np.array([1]))
        vs.add_batch(0, np.array([], dtype=np.int64))
        assert vs.gather([0]).tolist() == [1]

    def test_add_batch_overlapping(self):
        vs = SetVector(1)
        vs.add_batch(0, np.array([1, 3]))
        vs.add_batch(0, np.array([2, 3, 4]))
        assert vs.gather([0]).tolist() == [1, 2, 3, 4]

    def test_add_batch_charges_set_merge(self):
        acc = CostAccumulator()
        vs = SetVector(1)
        vs.add_batch(0, np.arange(100))
        vs.add_batch(0, np.arange(100, 110), acc)
        assert acc.snapshot() == Cost(*model.set_merge_ws(10, 100))

    def test_gather_returns_a_copy(self):
        vs = SetVector(2)
        keys = np.array([1, 2])
        vs.add_batch(0, keys)
        keys[0] = 9
        vs.gather([0])[0] = 9
        assert vs.gather([0]).tolist() == [1, 2]

    def test_clear_many_empties_every_listed_set(self):
        acc = CostAccumulator()
        vs = SetVector(4)
        for i in range(4):
            vs.add_batch(i, np.arange(i + 1))
        vs.clear_many(np.array([2, 0, 3]), acc)
        assert [vs.size(i) for i in range(4)] == [0, 2, 0, 0]
        want = CostAccumulator()
        for k in (3, 1, 4):
            want.charge(*model.set_enumerate_ws(k))
        assert acc.snapshot() == want.snapshot()

    def test_clear_many_then_add(self):
        vs = SetVector(1)
        vs.add_batch(0, np.array([4, 2]))
        vs.clear_many([0])
        vs.add_batch(0, np.array([7]))
        assert vs.gather([0]).tolist() == [7]

    @pytest.mark.parametrize("call", [
        lambda vs: vs.add_batch(-1, [5]),
        lambda vs: vs.add_batch(3, [1]),
        lambda vs: vs.add_batch(1.5, [1]),
        lambda vs: vs.add_batch(float("nan"), [1]),
        lambda vs: vs.add_batch(np.array([1]), [1]),
        lambda vs: vs.gather([0, 3]),
        lambda vs: vs.gather(np.array([-1])),
        lambda vs: vs.gather(np.array([1.9])),
        lambda vs: vs.gather([1, float("inf")]),
        lambda vs: vs.clear_many(np.array([1.5])),
        lambda vs: vs.clear_many([-1]),
        lambda vs: vs.clear_many(["1"]),
        lambda vs: vs.size(3),
    ], ids=["add-negative", "add-past-end", "add-fractional", "add-nan",
            "add-array-id", "gather-past-end", "gather-negative",
            "gather-fractional", "gather-inf", "clear-fractional",
            "clear-negative", "clear-string", "size-past-end"])
    def test_rejects_ids_outside_the_vector(self, call):
        """An id outside ``[0, n_sets)`` or not integral raises; it does
        not wrap round through a negative index or truncate to a set it
        does not name (set 1 holds a key throughout)."""
        vs = SetVector(3)
        vs.add_batch(1, [7])
        with pytest.raises(InputValidationError, match="set id"):
            call(vs)
        assert [vs.size(i) for i in range(3)] == [0, 1, 0]

    @pytest.mark.parametrize("keys", [
        np.array([1.7, 2.2]), [1, 2.5], np.array([1.0, np.nan]),
        [np.inf], ["1"], np.array([[1, 2]]),
    ], ids=["fractional", "fractional-in-list", "nan", "inf", "string",
            "2-d"])
    def test_rejects_keys_it_would_corrupt(self, keys):
        vs = SetVector(2)
        with pytest.raises(InputValidationError, match="set keys"):
            vs.add_batch(1, keys)
        assert vs.size(1) == 0

    @pytest.mark.parametrize("n_sets", [2.5, -1, float("nan"), "3",
                                        np.array([3])])
    def test_rejects_a_bad_set_count(self, n_sets):
        with pytest.raises(InputValidationError, match="set count"):
            SetVector(n_sets)

    def test_integral_floats_and_bools_are_their_int(self):
        assert len(SetVector(3.0)) == 3 and len(SetVector(True)) == 1
        vs = SetVector(3)
        vs.add_batch(2.0, np.array([3.0, 1.0]))
        vs.add_batch(np.int32(2), [True, np.int64(5)])
        assert vs.gather(np.array([2.0])).tolist() == [1, 3, 5]
        vs.clear_many([True, 2.0])
        assert vs.size(2) == 0

    @given(st.lists(st.integers(0, 50), max_size=40),
           st.lists(st.integers(0, 50), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_add_batch_equals_set_union(self, a, b):
        vs = SetVector(1)
        vs.add_batch(0, np.array(a, dtype=np.int64))
        vs.add_batch(0, np.array(b, dtype=np.int64))
        assert vs.gather([0]).tolist() == sorted(set(a) | set(b))


N_SETS = 6
idents = st.lists(st.integers(0, N_SETS - 1), max_size=8)
keys = st.lists(st.integers(-3, 30), max_size=12)
operations = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, N_SETS - 1), keys),
    st.tuples(st.just("gather"), idents),
    st.tuples(st.just("clear"), idents),
    st.tuples(st.just("size"), st.integers(0, N_SETS - 1)),
), max_size=30)


@pytest.mark.parametrize("charged", [True, False], ids=["acc", "no-acc"])
@given(ops=operations)
@settings(max_examples=150, deadline=None)
def test_set_vector_matches_sorted_int_set_reference(charged, ops):
    """Any operation sequence gives the sizes, gathered arrays and charges
    (work, span and span_model, bit for bit) of the SortedIntSet-backed
    SetVector it replaces."""
    acc, ref_acc = CostAccumulator(), CostAccumulator()
    got_acc, want_acc = (acc, ref_acc) if charged else (None, None)
    got, want = SetVector(N_SETS, got_acc), SetVectorReference(N_SETS,
                                                               want_acc)
    for op, *args in ops:
        if op == "add":
            ident, ks = args
            arr = np.array(ks, dtype=np.int64)
            got.add_batch(ident, arr, got_acc)
            want.add_batch(ident, arr, want_acc)
        elif op == "gather":
            (ids,) = args
            assert_same_result(got.gather(ids, got_acc),
                               want.gather(ids, want_acc), "gather")
        elif op == "clear":
            (ids,) = args
            got.clear_many(np.array(ids, dtype=np.int64), got_acc)
            want.clear_many(np.array(ids, dtype=np.int64), want_acc)
        else:
            (ident,) = args
            assert got.size(ident) == want.size(ident)
        assert acc.snapshot() == ref_acc.snapshot()
    assert [got.size(i) for i in range(N_SETS)] == \
        [want.size(i) for i in range(N_SETS)]
