"""Data-parallel primitives: real numpy execution + model cost charging.

Each helper performs the operation with vectorised numpy (the realistic
single-node execution) and charges the binary-forking cost of the same step
to the caller's :class:`~repro.runtime.metrics.CostAccumulator`.  Algorithm
code built from these primitives therefore computes correct answers *and*
carries a faithful work/span ledger.

Every primitive honours the ambient cancellation token
(:func:`~repro.resilience.preempt.check_cancelled`): inside a
``cancel_scope`` a cancelled or deadline-expired solve stops at the next
primitive call — between vectorised steps, never mid-array — without any
algorithm signature having to thread a token parameter.  With no scope
installed the check is a single context-variable read.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..resilience.errors import InputValidationError
from ..resilience.preempt import check_cancelled
from . import model
from .metrics import CostAccumulator

T = TypeVar("T")
U = TypeVar("U")


def parallel_map(values: Sequence[T], fn: Callable[[T], U],
                 acc: CostAccumulator,
                 per_item_work: float = 1.0) -> list[U]:
    """Apply ``fn`` to every element (a parallel-for in the model)."""
    check_cancelled("primitives:parallel_map")
    acc.charge(*model.map_ws(len(values), per_item_work))
    return [fn(v) for v in values]


def prefix_sum(a: np.ndarray, acc: CostAccumulator) -> np.ndarray:
    """Exclusive prefix sums (parallel scan)."""
    check_cancelled("primitives:prefix_sum")
    acc.charge(*model.scan_ws(len(a)))
    out = np.zeros(len(a) + 1, dtype=a.dtype if a.dtype.kind in "iu" else np.int64)
    np.cumsum(a, out=out[1:])
    return out


def pack(a: np.ndarray, mask: np.ndarray, acc: CostAccumulator) -> np.ndarray:
    """Compact the elements of ``a`` selected by boolean ``mask``."""
    check_cancelled("primitives:pack")
    if len(a) != len(mask):
        raise ValueError("pack: array and mask lengths differ")
    acc.charge(*model.pack_ws(len(a)))
    return a[mask]


def parallel_sort(a: np.ndarray, acc: CostAccumulator) -> np.ndarray:
    """Sorted copy of ``a`` (parallel comparison sort)."""
    check_cancelled("primitives:parallel_sort")
    acc.charge(*model.sort_ws(len(a)))
    return np.sort(a, kind="stable")


def parallel_argsort(a: np.ndarray, acc: CostAccumulator) -> np.ndarray:
    """Stable argsort of ``a`` (parallel comparison sort)."""
    check_cancelled("primitives:parallel_argsort")
    acc.charge(*model.sort_ws(len(a)))
    return np.argsort(a, kind="stable")


def parallel_reduce_max(a: np.ndarray, acc: CostAccumulator,
                        default: float = -np.inf) -> float:
    """Maximum of ``a`` (parallel reduction)."""
    check_cancelled("primitives:reduce_max")
    acc.charge(*model.reduce_ws(len(a)))
    if len(a) == 0:
        return default
    return a.max()


def parallel_reduce_sum(a: np.ndarray, acc: CostAccumulator) -> float:
    """Sum of ``a`` (parallel reduction)."""
    check_cancelled("primitives:reduce_sum")
    acc.charge(*model.reduce_ws(len(a)))
    return a.sum() if len(a) else 0


def group_by_key(keys: np.ndarray, values: np.ndarray, acc: CostAccumulator
                 ) -> list[tuple[int, np.ndarray]]:
    """Group ``values`` by integer ``keys`` via a parallel sort.

    This is the semi-sort idiom the paper uses to update the ``SentLabel``
    sets (§3.5): sort the pairs by key, then split at key boundaries with a
    scan.  Returns ``(key, group)`` pairs with each group a numpy array.
    """
    if len(keys) != len(values):
        raise ValueError("group_by_key: keys and values lengths differ")
    if len(keys) == 0:
        return []
    order = parallel_argsort(keys, acc)
    sk = keys[order]
    sv = values[order]
    # boundary detection is a parallel map + pack
    acc.charge(*model.map_ws(len(sk)))
    acc.charge(*model.pack_ws(len(sk)))
    bounds = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    out: list[tuple[int, np.ndarray]] = []
    for idx, start in enumerate(bounds):  # repro: noqa[RS001] boundary split covered by the map+pack charges above
        stop = bounds[idx + 1] if idx + 1 < len(bounds) else len(sk)
        out.append((int(sk[start]), sv[start:stop]))
    return out


def flatten(arrays: Iterable[np.ndarray], acc: CostAccumulator,
            dtype=np.int64) -> np.ndarray:
    """Concatenate arrays using prefix sums to place segments (§3.5)."""
    arrays = [np.asarray(a, dtype=dtype) for a in arrays]
    total = sum(len(a) for a in arrays)
    acc.charge(*model.scan_ws(len(arrays)))
    acc.charge(*model.map_ws(total))
    if not arrays:
        return np.empty(0, dtype=dtype)
    return np.concatenate(arrays)


def _as_int64(a, name: str, *, max_abs: int | None = None) -> np.ndarray:
    """Validating cast to int64: rejects NaN/inf, fractional floats,
    values outside int64 (which the cast would wrap), and (optionally)
    magnitudes with int64-overflow risk downstream."""
    arr = np.asarray(a)
    if arr.dtype == np.int64:
        out = arr
    elif arr.dtype.kind in "iubf":
        if arr.dtype.kind == "f" and arr.size:
            if not np.isfinite(arr).all():
                raise InputValidationError(
                    f"{name} must be finite (found NaN or inf)")
            if (arr != np.floor(arr)).any():
                raise InputValidationError(
                    f"{name} must be integral (found fractional values)")
        # as Python ints: -2.0**63 and every float below 2.0**63 fit
        if arr.dtype.kind in "uf" and arr.size and (
                int(arr.max()) >= 2 ** 63 or int(arr.min()) < -2 ** 63):
            raise InputValidationError(
                f"{name} must fit in int64, in [-2**63, 2**63)")
        out = arr.astype(np.int64)
    else:
        raise InputValidationError(
            f"{name} must be an integer array, got dtype {arr.dtype}")
    # np.abs(INT64_MIN) is INT64_MIN, which reads 2**63 unsigned
    if max_abs is not None and out.size and \
            int(np.abs(out).view(np.uint64).max()) > max_abs:
        raise InputValidationError(
            f"{name} magnitude exceeds {max_abs} — int64 overflow risk in "
            "scaled/reduced weights")
    return out


def _as_count(value, name: str) -> int:
    """A count or bound as a nonnegative Python int, read like a vertex
    id: integral floats and bools count as their int value; fractional,
    NaN, ±inf, negative and non-scalar values raise
    :class:`InputValidationError`.  O(1), and a plain nonnegative ``int``
    returns before any numpy call."""
    if type(value) is int and value >= 0:  # not bool: a subclass
        return value
    arr = _as_int64(value, name)
    if arr.ndim != 0 or arr < 0:
        raise InputValidationError(
            f"{name} {value!r} must be a nonnegative integer")
    return int(arr)


def unique_sorted(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for an integer array, by one sort and an adjacent
    compare.

    Same values and dtype as ``np.unique``, and always a new array.  Since
    numpy 2.3 ``np.unique`` deduplicates integers through a hash table and
    then sorts the result: with numpy 2.4 on an x86 Xeon that is 2.6x as
    slow as this on 100 random int64s and 6-11x as slow on 1k-100k.
    Uncharged: callers charge the step in their own model terms.
    """
    s = np.asarray(a).flatten()
    s.sort()
    if len(s) < 2:
        return s
    first = np.empty(len(s), dtype=bool)
    first[0] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for int64 ``keys`` in
    ``[0, bound)``.

    Ties break by position, so the key ``keys * len + arange(len)`` is
    unique and one default (unstable) argsort of it yields the same
    permutation.  With numpy 2.4 on an x86 Xeon that took 18 us against
    32 us for the stable argsort on 1,235 keys, and 0.59 against 1.63 ms
    on 24,000 (a two-key ``np.lexsort``: 114 us and 3.4 ms).  The
    combined key needs ``bound * len < 2**63``; past that the stable
    argsort runs.  Uncharged: callers charge the step in their own model
    terms.  Callers: ``condense`` (its pair key and its reverse order),
    peeling's order of the in-edges that fire, and the generators' edge
    dedupe.  The public ``DiGraph`` constructor builds the same kind of
    key for both its orders in one shared buffer
    (``graph.digraph._csr_orders``).
    """
    k = len(keys)
    if int(bound) * k < 2 ** 63:
        return (keys * k + np.arange(k, dtype=np.int64)).argsort()
    return np.argsort(keys, kind="stable")


def dedupe(a: np.ndarray, acc: CostAccumulator) -> np.ndarray:
    """Sorted unique elements of ``a`` (sort + adjacent-compare + pack)."""
    acc.charge(*model.sort_ws(len(a)))
    acc.charge(*model.pack_ws(len(a)))
    return unique_sorted(a)
