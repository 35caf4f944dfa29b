"""Host-speed probe for the end-to-end benchmark: fixed kernels that run no
repro code.

The speed of a small shared host swings by up to 2x within seconds, and
not evenly: a busy neighbour slows a Python heap loop more than a numpy
sort.  So the probe runs four kernels, each close to one kind of work the
solver does:

* small numpy calls from a Python loop (per-call dispatch, as in the
  derived-graph builds and reachability calls on small instances);
* one stable argsort of 16k integers (bulk numpy, as in SCC);
* a CSR build from an edge list, lexsort + bincount + gather, the same
  steps as the ``DiGraph`` constructor;
* a Dijkstra heap loop with scalar reads of numpy arrays over a 20k-node
  graph, as in the final Dijkstra.

The first three take 0.7-2 ms each on a 2-core x86 host and the heap loop
4-5 ms, some 10 ms in all.  The heap loop gets the largest share
because Python loops over numpy scalars are what slow spells hit hardest:
with the four kernels at equal weight, solve times dominated by the final
Dijkstra still moved 8% between runs, and about 5% with this weight.  A
solve's time is scaled by :func:`probe_s` timed next to it.

A cold start (imports, first calls) runs no such loop, and scaling it by
the heap loop made it noisier, not steadier: scaled by all four kernels,
the median of five cold starts moved about 10% between runs, and by the
first three alone (:func:`setup_probe_s`) about 5%.  A graph load is
compared with :func:`csr_build` on the same edges instead, which matches
it closely at every graph size.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_RNG = np.random.default_rng(0)
_CALL_INTS = _RNG.integers(0, 1 << 20, size=8192)
_SORT_INTS = _RNG.integers(0, 1 << 20, size=16384)
_CSR_N = 4000
_CSR_SRC = _RNG.integers(0, _CSR_N, size=12000)
_CSR_DST = _RNG.integers(0, _CSR_N, size=12000)
_HEAP_N, _HEAP_SETTLE = 20000, 1200
_HEAP_INDPTR = np.searchsorted(np.sort(_RNG.integers(0, _HEAP_N, 4 * _HEAP_N)),
                               np.arange(_HEAP_N + 1))
_HEAP_DST = _RNG.integers(0, _HEAP_N, size=4 * _HEAP_N)
_HEAP_W = _RNG.random(4 * _HEAP_N)


def _calls() -> None:
    for i in range(0, len(_CALL_INTS), 16):
        _CALL_INTS[i:i + 16].max()


def _sort() -> None:
    np.argsort(_SORT_INTS, kind="stable")


def csr_build(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """A bare CSR build: the core steps of the ``DiGraph`` constructor."""
    order = np.lexsort((dst, src))
    np.cumsum(np.bincount(src, minlength=n))
    dst[order]


def _csr() -> None:
    csr_build(_CSR_N, _CSR_SRC, _CSR_DST)


def _heap() -> None:
    dist = np.full(_HEAP_N, np.inf)
    settled = np.zeros(_HEAP_N, dtype=bool)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    count = 0
    while heap and count < _HEAP_SETTLE:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        count += 1
        for slot in range(int(_HEAP_INDPTR[u]), int(_HEAP_INDPTR[u + 1])):
            v = int(_HEAP_DST[slot])
            nd = d + float(_HEAP_W[slot])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


def setup_probe_s() -> float:
    """Seconds taken by the three kernels without the heap loop."""
    t = time.perf_counter()
    _calls()
    _sort()
    _csr()
    return time.perf_counter() - t


def probe_s() -> float:
    """Seconds taken by the four kernels."""
    t = time.perf_counter()
    setup_probe_s()
    _heap()
    return time.perf_counter() - t
