"""Cost formulas for the binary-forking model.

Each parallel primitive used by the paper's algorithms has a standard work
and span in the binary-forking model; this module centralises the formulas so
that every call site charges the same thing and EXPERIMENTS.md can state the
model precisely.  There is one model: call sites import this module
(``from ..runtime import model``) and charge ``model.<formula>_ws(...)``.

Conventions
-----------
* ``lg(n)`` below is ``log2(n + 2)`` so that degenerate sizes (0, 1) still
  carry a positive span unit — convenient and asymptotically irrelevant.
* Work is charged in units of "primitive operations"; constants are chosen to
  be 1 wherever the paper hides them in O(.) — benchmark *shapes* are what we
  reproduce, not absolute magnitudes.
* Black-box oracle spans use exponent 1/2 (:data:`REACH_SPAN_EXPONENT`) for
  the ``n^(1/2+o(1))`` bounds of Jambulapati et al. (reachability) and Cao
  et al. (ASSSP), times one ``lg`` factor standing in for the
  ``o(1)``/polylog terms (:data:`POLYLOG_SPAN_FACTOR` of them).

Float forms
-----------
Each formula is one ``*_ws`` function returning the float pair
``(work, span)``, and every step charges the pair,
``acc.charge(*model.pack_ws(k))``, without building a
:class:`~repro.runtime.metrics.Cost` (DESIGN.md, "Cost accounting").  The
per-round loops of the reach searches, ``scc`` and Propagate unpack the
pair first, ``w, s = model.pack_ws(k)`` then ``acc.charge(w, s)``: a star
call costs about 0.1 µs more per charge, and those loops make ~2.6k of a
hidden-potential solve's ~5.9k charges.  The per-step formulas write
``max(n, 1)`` as ``1 if n < 1 else n``, which returns the same object for
every int, numpy integer, bool and float ``n`` without the builtin call.
"""

from __future__ import annotations

import math

#: Exponent of the black-box reachability / ASSSP span bound ``n^exp``
#: (the paper's ``1/2 + o(1)``).
REACH_SPAN_EXPONENT = 0.5
#: Number of ``lg`` factors standing in for the bound's ``o(1)`` terms.
POLYLOG_SPAN_FACTOR = 1.0


def lg(n: float) -> float:
    """Smoothed base-2 logarithm used in all span formulas."""
    return math.log2(n + 2.0)


# ----------------------------------------------------------------------
# Flat data-parallel primitives
# ----------------------------------------------------------------------
def map_ws(n: int, per_item_work: float = 1.0) -> tuple[float, float]:
    """Parallel-for over ``n`` items: work ``O(n)``, span ``O(lg n)``."""
    return (1 if n < 1 else n) * per_item_work, lg(n)


def reduce_ws(n: int) -> tuple[float, float]:
    """Parallel reduction: work ``O(n)``, span ``O(lg n)``."""
    return (1 if n < 1 else n), lg(n)


def scan_ws(n: int) -> tuple[float, float]:
    """Parallel prefix sums: work ``O(n)``, span ``O(lg n)``."""
    return (1 if n < 1 else n), lg(n)


def pack_ws(n: int) -> tuple[float, float]:
    """Filter/compact ``n`` items (scan + scatter)."""
    return 2.0 * (1 if n < 1 else n), 2.0 * lg(n)


def sort_ws(n: int) -> tuple[float, float]:
    """Parallel comparison sort: work ``O(n lg n)``, span ``O(lg^2 n)``."""
    lgn = lg(n)
    return (1 if n < 1 else n) * lgn, lgn ** 2


def fork_ws(k: int) -> tuple[float, float]:
    """Spawning ``k`` parallel branches (binary fork tree)."""
    return (1 if k < 1 else k), lg(k)


# ----------------------------------------------------------------------
# Parallel ordered sets (Blelloch, Ferizovic, Sun — "Just Join")
# ----------------------------------------------------------------------
def set_merge_ws(m_small: int, n_big: int) -> tuple[float, float]:
    """Merging sets of sizes m <= n: work ``O(m lg(n/m + 1))``, span
    ``O(lg m · lg n)``."""
    m = 1 if m_small < 1 else m_small
    n = m if n_big < m else n_big
    return m * math.log2(n / m + 2.0), lg(m) * lg(n)


def set_enumerate_ws(n: int) -> tuple[float, float]:
    """Enumerating a size-``n`` set: work ``O(n)``, span ``O(lg n)``."""
    return (1 if n < 1 else n), lg(n)


# ----------------------------------------------------------------------
# Graph-search building blocks
# ----------------------------------------------------------------------
def bfs_round_ws(frontier_edges: int, n: int) -> tuple[float, float]:
    """One parallel BFS round touching ``frontier_edges`` edges."""
    return (1 if frontier_edges < 1 else frontier_edges), lg(n)


def oracle_span(n_sub: int) -> float:
    """Span of one black-box reachability/ASSSP call on ``n_sub`` nodes:
    ``n^(1/2+o(1))`` modelled as ``n^exp · polylog``."""
    n = max(n_sub, 1)
    return (n ** REACH_SPAN_EXPONENT) * lg(n) * POLYLOG_SPAN_FACTOR


def oracle_work(n_sub: int, m_sub: int) -> float:
    """Work of one black-box call: ``Õ(m)``."""
    sz = max(n_sub + m_sub, 1)
    return sz * lg(sz)


# ----------------------------------------------------------------------
# Classic sequential-flavoured parallel algorithms
# ----------------------------------------------------------------------
def dijkstra_ws(n: int, m: int) -> tuple[float, float]:
    """Parallel Dijkstra [Brodal et al. / Driscoll et al.]:
    work ``Õ(m)``, span ``Õ(n)``."""
    sz = max(n + m, 1)
    return sz * lg(sz), max(n, 1) * lg(n)
