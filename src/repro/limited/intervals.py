"""Aligned dyadic intervals and their vector-of-sets bookkeeping (§4.1/4.3).

LimitedSP assigns every unfinished vertex to an interval ``[d, d + 2^i)``
whose start is aligned to a multiple of ``2^(i-1)`` (size-1 intervals may
start at any integer).  The paper maintains one parallel set per interval
identifier; we realise that as a dict keyed by ``(start, size)`` over lazy
vertex lists, with per-vertex ``(start, size)`` fields as the source of
truth (gathers drop stale entries), plus the overlap enumeration whose
``Õ(2^i)`` cost Lemma 14 charges per Refine.
"""

from __future__ import annotations

import math

import numpy as np

from ..resilience.errors import InputValidationError
from ..runtime import model
from ..runtime.metrics import CostAccumulator

NO_INTERVAL = -1


class IntervalTable:
    """Per-vertex interval assignment + interval-keyed vertex sets."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.start = np.full(n, NO_INTERVAL, dtype=np.int64)
        self.size = np.full(n, NO_INTERVAL, dtype=np.int64)
        self._buckets: dict[tuple[int, int], list[int]] = {}
        self.additions = np.zeros(n, dtype=np.int64)  # Lemma 13 metering

    def assign(self, vertices: np.ndarray, start: int, size: int,
               acc: CostAccumulator | None = None) -> None:
        """Move ``vertices`` into the interval ``[start, start+size)``."""
        if size < 1 or start < 0:
            raise ValueError("interval must have positive size, start >= 0")
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            return
        if acc is not None:
            acc.charge(*model.map_ws(len(vertices)))
        self.start[vertices] = start
        self.size[vertices] = size
        self.additions[vertices] += 1
        self._buckets.setdefault((int(start), int(size)), []).extend(
            vertices.tolist())

    def remove(self, vertices: np.ndarray) -> None:
        """Drop ``vertices`` from interval tracking (on finalisation).

        Stale bucket entries are filtered lazily at gather time.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        self.start[vertices] = NO_INTERVAL
        self.size[vertices] = NO_INTERVAL

    def overlap_keys(self, d: int, size: int, max_size: int
                     ) -> list[tuple[int, int]]:
        """All existing interval keys overlapping ``[d, d + size)``.

        Enumerates candidate aligned starts per dyadic size — ``O(size)``
        candidates for sizes below ``size`` and ``O(1)`` per larger size,
        the ``Õ(2^i)`` term of Lemma 14.
        """
        keys: list[tuple[int, int]] = []
        sz = 1
        while sz <= max_size:
            align = max(sz // 2, 1)
            lo = d - sz  # starts strictly greater than d - sz overlap
            first = (lo // align + 1) * align
            a = first
            while a < d + size:
                if (a, sz) in self._buckets:
                    keys.append((a, sz))
                a += align
            sz *= 2
        return keys

    def gather(self, keys: list[tuple[int, int]],
               acc: CostAccumulator | None = None) -> np.ndarray:
        """Current members of the given intervals (lazy-filtering stale
        entries, compacting the bucket lists as a side effect)."""
        out: list[int] = []
        total = 0
        for key in keys:  # repro: noqa[RS001] charged in aggregate after the loop (scan over the gathered total)
            raw = self._buckets.get(key, [])
            total += len(raw)
            arr = np.asarray(raw, dtype=np.int64)
            valid = arr[(self.start[arr] == key[0])
                        & (self.size[arr] == key[1])] if len(arr) else arr
            self._buckets[key] = valid.tolist()
            out.extend(valid.tolist())
        if acc is not None:
            acc.charge(*model.map_ws(total))
        return np.asarray(sorted(set(out)), dtype=np.int64)

    def members(self, start: int, size: int) -> np.ndarray:
        """Members of one interval (testing convenience)."""
        return self.gather([(int(start), int(size))])

    def unassigned(self) -> np.ndarray:
        return np.flatnonzero(self.start == NO_INTERVAL)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._buckets


def smallest_power_of_two_above(x: int) -> int:
    """Smallest power of 2 strictly greater than ``x`` (the paper's ``D``).

    ``x`` must be finite and nonnegative; NaN and ±inf raise
    :class:`InputValidationError` (a ``ValueError``) instead of looping.
    """
    if not (0 <= x < math.inf):
        raise InputValidationError(
            f"x must be finite and nonnegative, got {x!r}")
    d = 1
    while d <= x:
        d *= 2
    return d
