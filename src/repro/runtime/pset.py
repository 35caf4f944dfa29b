"""Parallel ordered integer sets (Blelloch–Ferizovic–Sun "Just Join" model).

The peeling algorithm (§3.5) stores, for every vertex ``u``, the set
``SentLabel(u)`` of vertices currently labeled by an edge leaving ``u``.  The
paper implements these as join-based balanced trees supporting merge in
``O(m·lg(n/m+1))`` work and ``O(lg m · lg n)`` span, plus ``O(n)``-work
enumeration.  We realise the same semantics with sorted numpy arrays —
vectorised set union/enumeration — and charge the published costs, so the
work/span ledger matches the data structure the paper assumes.
"""

from __future__ import annotations

import numpy as np

from . import model
from .metrics import CostAccumulator
from .primitives import unique_sorted
from .racecheck import race_read, race_write

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class SetVector:
    """A vector of ordered int64 sets, one per identifier (§4.3).

    Each set is one sorted, duplicate-free int64 array; every empty set
    shares one read-only empty array.  Supports the operations Lemma 14
    relies on: O(#sets) initialisation, batched adds, gathering the union
    of ``t`` identified sets into a flat array with linear work, and
    emptying identified sets.  Each add charges one set merge and each
    emptied set one enumeration, at the join-based tree costs.
    """

    __slots__ = ("_sets",)

    def __init__(self, n_sets: int,
                 acc: CostAccumulator | None = None) -> None:
        if acc is not None:
            acc.charge(*model.map_ws(n_sets))
        self._sets: list[np.ndarray] = [_EMPTY] * n_sets

    def __len__(self) -> int:
        return len(self._sets)

    def add_batch(self, ident: int, keys: np.ndarray,
                  acc: CostAccumulator | None = None) -> None:
        """Union ``keys`` into set ``ident``."""
        race_write(self, ident, ident + 1, label="SetVector",
                   site="pset.add_batch")
        arr = unique_sorted(np.asarray(keys, dtype=np.int64))
        cur = self._sets[ident]
        if acc is not None:
            small, big = sorted((len(arr), len(cur)))
            acc.charge(*model.set_merge_ws(small, big))
        if len(arr) == 0:
            return
        self._sets[ident] = (unique_sorted(np.concatenate((cur, arr)))
                             if len(cur) else arr)

    def size(self, ident: int) -> int:
        return len(self._sets[ident])

    def gather(self, idents: np.ndarray | list[int],
               acc: CostAccumulator | None = None) -> np.ndarray:
        """Flat array of all elements across the identified sets."""
        race_read(self, label="SetVector", site="pset.gather")
        sets = self._sets
        parts = [sets[i] for i in np.asarray(idents, dtype=np.int64).tolist()]
        total = sum(map(len, parts))
        if acc is not None:
            acc.charge(*model.scan_ws(len(parts)))
            acc.charge(*model.map_ws(total))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def clear_many(self, idents: np.ndarray | list[int],
                   acc: CostAccumulator | None = None) -> None:
        """Empty the identified sets, charging one enumeration per set."""
        race_write(self, label="SetVector", site="pset.clear_many")
        sets = self._sets
        empty_w, empty_s = model.set_enumerate_ws(0)   # most sets are empty
        for i in np.asarray(idents, dtype=np.int64).tolist():
            if acc is not None:
                k = len(sets[i])
                if k:
                    acc.charge(*model.set_enumerate_ws(k))
                else:
                    acc.charge(empty_w, empty_s)
            sets[i] = _EMPTY
