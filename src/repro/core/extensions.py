"""Extensions built on the paper's machinery.

These are the natural downstream uses the paper's introduction motivates:

* **All-pairs shortest paths** (Johnson's schema with the parallel
  reweighting): one feasible-price computation by an SSSP engine (the
  paper's scaling solver by default), then an independent (hence
  parallel) Dijkstra per source — work ``Õ(m√n log N + n·m)``, span one
  Dijkstra beyond the reweighting.
* **Single-source longest paths on DAGs** — the paper notes (§1.3) that the
  ``{0,−1}`` distance-limited problem *is* single-source longest paths with
  ``{0,1}`` weights on DAGs; we expose that equivalence directly.
* **Feasibility of difference-constraint systems** — the classic
  application of negative-weight SSSP (see ``examples/project_scheduling``);
  exposed here as a library call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.dijkstra import dijkstra
from ..dag01.peeling import Dag01Result, dag01_limited_sssp
from ..graph.digraph import DiGraph, _as_int64
from ..resilience.errors import InputValidationError
from ..runtime.metrics import Cost, CostAccumulator
from .engines import REFERENCE_ENGINE, get_sssp_engine


@dataclass
class ApspResult:
    """All-pairs distances, or a negative-cycle certificate.

    ``dist[i, j]`` is the exact distance (``+inf`` when unreachable);
    ``price`` the shared feasible potential.
    """

    dist: np.ndarray | None
    price: np.ndarray | None
    negative_cycle: list[int] | None
    cost: Cost

    @property
    def has_negative_cycle(self) -> bool:
        return self.negative_cycle is not None


def _engine_potential(g: DiGraph, engine: str, seed, acc):
    """``(price, cycle)`` from the named engine's potential search with
    its certificate verified by the tail, without the final Dijkstra; a
    rejected witness raises
    :class:`~repro.resilience.errors.VerificationError`."""
    price, cycle, _, _ = get_sssp_engine(engine)._certified_potential(
        g, seed=seed, acc=acc, backend=None)
    return price, cycle


def all_pairs_shortest_paths(g: DiGraph, *, engine: str = REFERENCE_ENGINE,
                             seed=0,
                             acc: CostAccumulator | None = None,
                             sources: np.ndarray | None = None
                             ) -> ApspResult:
    """Johnson-style APSP on the potential of the SSSP engine ``engine``.

    ``sources`` restricts the output to a subset of rows (many-to-all);
    they are checked before any work, like a solver's source.  The
    per-source Dijkstras are independent, so they compose in parallel:
    work sums, span maxes (plus a forking term).
    """
    if sources is None:
        sources = np.arange(g.n, dtype=np.int64)
    else:
        sources = _as_int64(sources, "sources")
        if sources.ndim != 1 or (sources.size and not (
                0 <= sources.min() and sources.max() < g.n)):
            raise InputValidationError(
                f"sources must be a list of vertex ids in [0, {g.n})")
    local = CostAccumulator()
    price, cycle = _engine_potential(g, engine, seed, local)
    if cycle is not None:
        if acc is not None:
            acc.charge_cost(local.snapshot())
        return ApspResult(None, None, cycle, local.snapshot())
    w_red = g.w + price[g.src] - price[g.dst] if g.m else g.w
    out = np.full((len(sources), g.n), np.inf)
    branches = []
    for row, s in enumerate(sources.tolist()):
        branch = local.fork()
        res = dijkstra(g, s, weights=w_red)
        branch.charge_cost(res.cost)
        branches.append(branch)
        d = res.dist.copy()
        finite = np.isfinite(d)
        d[finite] += price[np.flatnonzero(finite)] - price[s]
        out[row] = d
    local.join_parallel(branches, fork_span=np.log2(len(sources) + 2))
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return ApspResult(out, price, None, local.snapshot())


@dataclass
class LongestPathResult:
    """Longest-path distances on a DAG (``-inf`` beyond the limit /
    unreachable handling mirrors the underlying peeling contract)."""

    dist: np.ndarray          # longest-path length; -inf unreachable
    parent_edge: np.ndarray
    limit: int
    cost: Cost


def dag_longest_paths(g: DiGraph, source: int, limit: int, *, seed=0,
                      acc: CostAccumulator | None = None) -> LongestPathResult:
    """Single-source longest paths on a DAG with ``{0, 1}`` edge weights.

    Exact for vertices whose longest path is ``≤ limit``; vertices with a
    longer longest path report ``+inf`` (beyond the limit), unreachable
    vertices ``−inf``.  This is §1.3's equivalence: negate the weights and
    run the §3 peeling algorithm.
    """
    if g.m and not np.isin(g.w, (0, 1)).all():
        raise ValueError("dag_longest_paths requires weights in {0, 1}")
    res: Dag01Result = dag01_limited_sssp(
        g.with_weights(-g.w), source, limit, seed=seed, acc=acc)
    dist = -res.dist  # -(-k) = k; -(-inf) = +inf (beyond); -(+inf) = -inf
    return LongestPathResult(dist, res.parent_edge, limit, res.cost)


@dataclass
class DifferenceConstraintsResult:
    """Solution of a system ``x[j] − x[i] ≤ c`` or an infeasibility
    certificate (the contradictory constraint cycle, as vertex ids)."""

    assignment: np.ndarray | None
    infeasible_cycle: list[int] | None
    cost: Cost

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def solve_difference_constraints(n_vars: int,
                                 constraints: list[tuple[int, int, int]],
                                 *, engine: str = REFERENCE_ENGINE,
                                 seed=0) -> DifferenceConstraintsResult:
    """Solve ``x[j] − x[i] ≤ c`` for each ``(i, j, c)`` (CLRS §24.4).

    Returns the componentwise-*maximum* nonpositive solution (distances
    from a virtual origin), or the infeasible cycle.
    """
    from .sssp import solve_sssp

    origin = n_vars
    edges = [(i, j, c) for i, j, c in constraints]
    edges += [(origin, v, 0) for v in range(n_vars)]
    g = DiGraph.from_edges(n_vars + 1, edges)
    res = solve_sssp(g, origin, engine=engine, seed=seed)
    if res.has_negative_cycle:
        cyc = [v for v in res.negative_cycle if v != origin]
        return DifferenceConstraintsResult(None, cyc, res.cost)
    return DifferenceConstraintsResult(
        res.dist[:n_vars].astype(np.int64), None, res.cost)


def find_negative_cycle(g: DiGraph, *, engine: str = REFERENCE_ENGINE,
                        seed=0) -> list[int] | None:
    """A validated negative cycle of ``g``, or None if none exists.

    Thin wrapper over the engine's potential search for callers who only
    need the detection/certificate half of Theorem 17.
    """
    return _engine_potential(g, engine, seed, None)[1]
