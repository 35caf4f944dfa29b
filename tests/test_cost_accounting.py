"""The float-form cost accounting against its ``Cost``-building form.

Every primitive step charges ``acc.charge(*model.<formula>_ws(...))``
where it used to charge ``acc.charge_cost(model.<formula>(...))``, and
``Cost`` got a hand-written ``__init__``.  These tests hold the new
accounting to the old one, copied verbatim into ``tests/oracles.py``
(``CostReference``, ``CostModelReference``, ``CostAccumulatorReference``):
each float form and any charge sequence must give the same floats bit
for bit, and of the same type, since a numpy integer size makes a numpy
work value; and the new ``Cost`` must compare, hash, pickle, copy and
print like the old dataclass.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import CostAccumulatorReference, CostModelReference, CostReference
from repro.runtime import Cost, CostAccumulator, model

REF = CostModelReference()

#: formula name -> number of size arguments
FORMULAS = {
    "map": 1, "reduce": 1, "scan": 1, "pack": 1, "sort": 1, "fork": 1,
    "set_enumerate": 1, "set_merge": 2, "bfs_round": 2, "dijkstra": 2,
}

# sizes as the library passes them (ints from len(), numpy int64 from
# array reductions, bools from a mask count) and as a caller could
# (floats, including fractional ones below the max(n, 1) clamp)
sizes = st.one_of(
    st.integers(0, 2 ** 40),
    st.integers(0, 2 ** 40).map(np.int64),
    st.booleans(),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e6 + 0.25]),
    st.floats(0.0, 2.0 ** 40, allow_nan=False),
)
per_item = st.one_of(st.sampled_from([1.0, 2.5, 0.25, 3]),
                     st.floats(0.0, 1e3, allow_nan=False))


def same(got, want) -> bool:
    """Equal bits and equal type (``float.hex`` of ``float(x)`` so ints,
    bools and numpy scalars compare too)."""
    return type(got) is type(want) and float(got).hex() == float(want).hex()


def assert_same_cost(got, want) -> None:
    for name in ("work", "span", "span_model"):
        g, w = getattr(got, name), getattr(want, name)
        assert same(g, w), f"{name}: {g!r} != {w!r}"


def check_formula(name: str, args: tuple) -> None:
    w, s = getattr(model, f"{name}_ws")(*args)
    want = getattr(REF, name)(*args)
    assert same(w, want.work), (name, args, w, want.work)
    assert same(s, want.span), (name, args, s, want.span)


class TestFloatForms:
    @pytest.mark.parametrize("name", [n for n, k in FORMULAS.items() if k == 1])
    @given(n=sizes)
    @settings(max_examples=200, deadline=None)
    def test_one_size(self, name, n):
        check_formula(name, (n,))

    @given(n=sizes, per_item_work=per_item)
    @settings(max_examples=200, deadline=None)
    def test_map_per_item_work(self, n, per_item_work):
        check_formula("map", (n, per_item_work))

    @pytest.mark.parametrize("name", [n for n, k in FORMULAS.items() if k == 2])
    @given(a=sizes, b=sizes)
    @example(a=0, b=0)
    @example(a=0, b=5)      # set_merge: m_small = 0 clamps to 1
    @example(a=9, b=3)      # set_merge: n_big < m_small clamps up to m
    @example(a=np.int64(7), b=np.int64(2))
    @example(a=True, b=False)
    @example(a=2.5, b=1.5)
    @settings(max_examples=300, deadline=None)
    def test_two_sizes(self, name, a, b):
        check_formula(name, (a, b))

    @given(n=sizes, m=sizes)
    @settings(max_examples=100, deadline=None)
    def test_oracle_formulas(self, n, m):
        assert same(model.oracle_span(n), REF.oracle_span(n))
        assert same(model.oracle_work(n, m), REF.oracle_work(n, m))

    def test_formulas_table_lists_every_float_form(self):
        float_forms = {name[:-len("_ws")] for name in vars(model)
                       if name.endswith("_ws")}
        assert float_forms == set(FORMULAS)


# one charge step: (formula, size args)
steps = st.lists(
    st.one_of(*(st.tuples(st.just(name), st.tuples(*[sizes] * k))
                for name, k in FORMULAS.items()),
              st.tuples(st.just("map"), st.tuples(sizes, per_item))),
    max_size=60)


class TestChargeSequences:
    @given(steps)
    @settings(max_examples=200, deadline=None)
    def test_float_pairs_equal_cost_charges(self, seq):
        acc, ref = CostAccumulator(), CostAccumulatorReference()
        for name, args in seq:
            acc.charge(*getattr(model, f"{name}_ws")(*args))
            ref.charge_cost(getattr(REF, name)(*args))
        assert_same_cost(acc, ref)

    @given(steps, st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_reach_fold_equals_cost_charges(self, seq, n):
        # a reach call: rounds on a local accumulator, then one fold with
        # the black-box span, and the same Cost as its result
        local, ref_local = CostAccumulator(), CostAccumulatorReference()
        for name, args in seq:
            local.charge(*getattr(model, f"{name}_ws")(*args))
            ref_local.charge_cost(getattr(REF, name)(*args))
        acc, ref = CostAccumulator(), CostAccumulatorReference()
        span_model = model.oracle_span(n)
        acc.charge(local.work, span=local.span, span_model=span_model)
        ref.charge_cost(CostReference(ref_local.work, ref_local.span,
                                      REF.oracle_span(n)))
        assert_same_cost(acc, ref)
        assert_same_cost(Cost(local.work, local.span, span_model), ref)


# bounded, so that products and sums stay finite
reals = st.floats(-1e15, 1e15)
finite = st.one_of(reals, st.integers(-2 ** 60, 2 ** 60), reals.map(np.float64))
triples = st.tuples(finite, finite, st.one_of(st.none(), finite))


def pair(args):
    return Cost(*args), CostReference(*args)


class TestCostObject:
    @given(triples)
    @settings(max_examples=200, deadline=None)
    def test_fields_and_default(self, args):
        new, old = pair(args)
        assert_same_cost(new, old)
        kw = dict(zip(("work", "span", "span_model"), args))
        assert_same_cost(Cost(**kw), CostReference(**kw))

    @given(triples, triples)
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash(self, a, b):
        na, oa = pair(a)
        nb, ob = pair(b)
        assert (na == nb) == (oa == ob)
        assert (na != nb) == (oa != ob)
        assert hash(na) == hash(oa)
        assert na.__eq__((na.work, na.span, na.span_model)) is NotImplemented
        assert na != (na.work, na.span, na.span_model)

    @given(triples)
    @settings(max_examples=100, deadline=None)
    def test_repr(self, args):
        new, old = pair(args)
        assert repr(new).removeprefix("Cost") == \
            repr(old).removeprefix("CostReference")

    @given(triples)
    @settings(max_examples=100, deadline=None)
    def test_pickle_and_copies(self, args):
        new, old = pair(args)
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(new, protocol=proto))
            assert type(back) is Cost and back == new
            assert_same_cost(back, old)
        assert new.__getstate__() == old.__getstate__()
        for dup in (copy.copy(new), copy.deepcopy(new)):
            assert type(dup) is Cost
            assert_same_cost(dup, old)

    def test_dataclass_surface(self):
        new_fields = [(f.name, f.default, f.type)
                      for f in dataclasses.fields(Cost)]
        old_fields = [(f.name, f.default, f.type)
                      for f in dataclasses.fields(CostReference)]
        assert new_fields == old_fields
        assert Cost.__slots__ == CostReference.__slots__
        assert Cost.__match_args__ == CostReference.__match_args__
        assert not hasattr(Cost, "__post_init__")
        c = dataclasses.replace(Cost(1.0, 2.0), work=5.0)
        assert (c.work, c.span, c.span_model) == (5.0, 2.0, 2.0)

    def test_immutable(self):
        c = Cost(1.0, 2.0)
        for name in ("work", "span", "span_model"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(c, name, 3.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(c, name)
        assert (c.work, c.span, c.span_model) == (1.0, 2.0, 2.0)

    def test_unknown_attribute_fails_alike(self):
        # which error a slotted frozen dataclass raises for a name that is
        # not a field depends on the Python version; it must not change
        def errors(obj) -> list[type]:
            got = []
            try:
                obj.other = 3.0
            except (TypeError, AttributeError) as exc:
                got.append(type(exc))
            try:
                del obj.other
            except (TypeError, AttributeError) as exc:
                got.append(type(exc))
            return got

        new = errors(Cost(1.0, 2.0))
        assert len(new) == 2
        assert new == errors(CostReference(1.0, 2.0))

    @given(triples, triples, finite)
    @settings(max_examples=100, deadline=None)
    def test_composition(self, a, b, k):
        na, oa = pair(a)
        nb, ob = pair(b)
        assert_same_cost(na + nb, oa + ob)
        assert_same_cost(na | nb, oa | ob)
        assert_same_cost(na.scaled(k), oa.scaled(k))
        if not math.isnan(oa.parallelism):
            assert same(na.parallelism, oa.parallelism)

    @pytest.mark.parametrize("cls", [Cost, CostReference])
    def test_parallelism_overflows_to_inf_quietly(self, cls):
        """A subnormal span makes the quotient overflow: ``inf``, with no
        numpy ``RuntimeWarning`` on numpy-scalar fields."""
        c = cls(np.float64(1.0), np.float64(1.0), np.float64(5e-324))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c.parallelism == math.inf
