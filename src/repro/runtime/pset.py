"""Parallel ordered integer sets (Blelloch–Ferizovic–Sun "Just Join" model).

The peeling algorithm (§3.5) stores, for every vertex ``u``, the set
``SentLabel(u)`` of vertices currently labeled by an edge leaving ``u``.  The
paper implements these as join-based balanced trees supporting merge in
``O(m·lg(n/m+1))`` work and ``O(lg m · lg n)`` span, plus ``O(n)``-work
enumeration.  We keep each non-empty set as a Python ``set`` of ints — a
peeling call adds to a few dozen sets and empties a few hundred, most of
them empty and the rest holding a handful of keys, where one numpy call
costs more than the whole set operation — and charge the published costs
on the sets' exact sizes, so the work/span ledger matches the data
structure the paper assumes.
"""

from __future__ import annotations

import numpy as np

from ..resilience.errors import InputValidationError
from . import model
from .metrics import CostAccumulator
from .primitives import _as_count, _as_int64
from .racecheck import race_read, race_write


class SetVector:
    """A vector of ordered integer sets, one per identifier (§4.3).

    Only the non-empty sets are stored, as Python ``set``\\ s keyed by
    their identifier.  Supports the operations Lemma 14 relies on: O(#sets)
    initialisation, batched adds, gathering the union of ``t`` identified
    sets into a flat int64 array (each set's keys in ascending order) with
    linear work, and emptying identified sets.  Each add charges one set
    merge and each emptied set one enumeration, at the join-based tree
    costs.

    Identifiers must lie in ``[0, n_sets)``.  The set count, identifiers
    and keys are read like vertex ids: integral floats and bools count as their int
    value; fractional, NaN, ±inf and non-numeric values raise
    :class:`InputValidationError`, as do a negative set count and an
    identifier out of range.
    A list of Python ints, which peeling passes, skips the cast.
    """

    __slots__ = ("_n", "_sets")

    def __init__(self, n_sets: int,
                 acc: CostAccumulator | None = None) -> None:
        n_sets = _as_count(n_sets, "set count")
        if acc is not None:
            acc.charge(*model.map_ws(n_sets))
        self._n = n_sets
        self._sets: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return self._n

    def add_batch(self, ident: int, keys,
                  acc: CostAccumulator | None = None) -> None:
        """Union ``keys`` into set ``ident``."""
        ident = self._ident(ident)
        race_write(self, ident, ident + 1, label="SetVector",
                   site="pset.add_batch")
        new = set(_int_list(keys, "set keys"))
        cur = self._sets.get(ident)
        if acc is not None:
            big = len(cur) if cur else 0
            small = len(new)
            if small > big:
                small, big = big, small
            acc.charge(*model.set_merge_ws(small, big))
        if not new:
            return
        if cur:
            cur |= new
        else:
            self._sets[ident] = new

    def size(self, ident: int) -> int:
        return len(self._sets.get(self._ident(ident), ()))

    def gather(self, idents, acc: CostAccumulator | None = None
               ) -> np.ndarray:
        """Flat array of all elements across the identified sets."""
        race_read(self, label="SetVector", site="pset.gather")
        ids = self._idents(idents)
        out: list[int] = []
        for s in filter(None, map(self._sets.get, ids)):  # repro: noqa[RS001] one enumeration per non-empty set, covered by the map(total) charge below
            out += sorted(s)
        if acc is not None:
            acc.charge(*model.scan_ws(len(ids)))
            acc.charge(*model.map_ws(len(out)))
        return np.array(out, dtype=np.int64)

    def clear_many(self, idents, acc: CostAccumulator | None = None) -> None:
        """Empty the identified sets, charging one enumeration per set."""
        race_write(self, label="SetVector", site="pset.clear_many")
        ids = self._idents(idents)
        pop = self._sets.pop
        empty_w, empty_s = model.set_enumerate_ws(0)   # most sets are empty
        for i in ids:
            s = pop(i, None)
            if acc is not None:
                if s:
                    acc.charge(*model.set_enumerate_ws(len(s)))
                else:
                    acc.charge(empty_w, empty_s)

    def _ident(self, ident) -> int:
        """``ident`` as an int in ``[0, n_sets)``."""
        if type(ident) is not int:   # not bool: a subclass
            arr = _as_int64(ident, "set id")
            if arr.ndim != 0:
                raise InputValidationError(
                    f"set id must be a scalar, got shape {arr.shape}")
            ident = int(arr)
        if not 0 <= ident < self._n:
            raise InputValidationError(
                f"set id {ident} out of range [0, {self._n})")
        return ident

    def _idents(self, idents) -> list[int]:
        """``idents`` as a list of ints in ``[0, n_sets)``."""
        ids = _int_list(idents, "set ids")
        if ids and (min(ids) < 0 or max(ids) >= self._n):
            raise InputValidationError(
                f"set ids out of range [0, {self._n})")
        return ids


def _int_list(values, name: str) -> list[int]:
    """The 1-D ``values`` as a list of Python ints, through the graph
    constructor's validating cast.  A list of ints skips the cast, and an
    int64 array costs one ``tolist``."""
    if type(values) is list and set(map(type, values)) <= {int}:  # no bool
        return values
    arr = _as_int64(values, name)
    if arr.ndim != 1:
        raise InputValidationError(
            f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr.tolist()
