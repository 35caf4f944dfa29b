"""Vectorised CSR gather helpers shared across traversal code.

These implement the frontier-expansion idiom used by every BFS-like loop in
the library: given a frontier of vertices, gather the flat slots of all their
out- (or in-) edges in one shot, with no Python-level per-vertex loop.
"""

from __future__ import annotations

import numpy as np

from .digraph import DiGraph


def ranges_concat(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenate the index ranges ``[lo_i, hi_i)``.

    Vectorised as ``arange(total)`` plus, repeated over each range, the
    shift from the range's output position to ``lo_i``.  Ufunc and array
    methods stand in for ``np.cumsum``/``np.repeat``, whose Python
    wrappers cost more than the work on a small frontier.
    """
    lo = np.asarray(lo, dtype=np.int64)
    counts = np.asarray(hi, dtype=np.int64) - lo
    ends = np.add.accumulate(counts)
    total = ends.item(-1) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = (lo - (ends - counts)).repeat(counts)
    out += np.arange(total, dtype=np.int64)
    return out


def out_edge_slots(g: DiGraph, frontier: np.ndarray) -> np.ndarray:
    """Flat forward-CSR slots (= edge ids) of all out-edges of ``frontier``."""
    frontier = np.asarray(frontier, dtype=np.int64)
    return ranges_concat(g.indptr[frontier], g.indptr[frontier + 1])


def in_edge_slots(g: DiGraph, frontier: np.ndarray) -> np.ndarray:
    """Flat reverse-CSR slots of all in-edges of ``frontier``.

    Map through ``g.reids`` to get forward edge ids.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    return ranges_concat(g.rindptr[frontier], g.rindptr[frontier + 1])


def frontier_sources(g: DiGraph, frontier: np.ndarray,
                     slots: np.ndarray) -> np.ndarray:
    """For each slot from :func:`out_edge_slots`, the frontier vertex that
    produced it (i.e. ``g.src[slots]`` — provided for symmetry/readability)."""
    return g.src[slots]
