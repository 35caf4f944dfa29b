"""Race-check probes: representative solves run under the shadow checker.

``repro check --race`` drives each probe in :data:`RACE_PROBES` under a
fresh :class:`~repro.runtime.racecheck.RaceChecker` at every requested
pool size (default 1, 2, 8).  Because the checker partitions every
``map_blocks`` call into the same *logical* blocks regardless of worker
count, a probe that is clean at one size is clean at all — running the
sizes anyway is the belt-and-braces proof the acceptance gate asks for.

The probes cover each family of shared-memory use in the codebase:

* ``bf-process`` / ``bnw-scaling`` / ``fischer-simple`` — the block
  functions shipped to backends (Bellman–Ford relaxation, Fischer's
  negative-edge relaxation, the certified tail's reduced-weight map):
  whole-array reads plus disjoint slice reads;
* ``dag01`` / ``limited`` / ``solve`` — the paper's solvers, exercising
  the annotated :class:`~repro.runtime.pset.SetVector` operations (a
  per-set slice write for each add, whole-vector accesses for gathers
  and clears) along their real call paths (all sequential in the fork
  tree, hence race-free by construction — the probe proves the
  annotations agree);
* ``racy-demo`` — a deliberately broken histogram task whose blocks
  all write the same bin array, passed to them through ``map_blocks``'s
  args.  It is *excluded* from the default probe set and exists so
  tests (and ``--probe racy-demo``) can prove the checker actually
  fires: it must report write–write conflicts at every pool size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..runtime.executor import ForkJoinPool
from ..runtime.racecheck import RaceReport, checked, race_read, race_write

ProbeFn = Callable[[ForkJoinPool], None]

RACE_PROBES: dict[str, ProbeFn] = {}
_HIDDEN_PROBES: dict[str, ProbeFn] = {}

DEFAULT_POOL_SIZES: tuple[int, ...] = (1, 2, 8)


def _probe(name: str, *, hidden: bool = False
           ) -> Callable[[ProbeFn], ProbeFn]:
    def register(fn: ProbeFn) -> ProbeFn:
        (_HIDDEN_PROBES if hidden else RACE_PROBES)[name] = fn
        return fn
    return register


@_probe("bf-process")
def _probe_bf_process(pool: ForkJoinPool) -> None:
    """The backend-portable relaxation under the checker: every backend's
    ``map_blocks`` routes through the same sequential logical-block
    partition when a checker is active (no worker processes are spawned),
    so the findings are backend- and pool-size-independent — this probe
    proves the relaxation block carries clean annotations."""
    from ..baselines.bellman_ford import bellman_ford, bellman_ford_parallel
    from ..graph.generators import bf_hard_graph
    from ..runtime.backends import ProcessForkJoinPool

    g = bf_hard_graph(120, 240, seed=7)
    backend = ProcessForkJoinPool(pool.n_workers, grain=64)
    try:
        res = bellman_ford_parallel(g, 0, backend=backend, grain=64)
    finally:
        backend.shutdown()
    ref = bellman_ford(g, 0)
    if not np.allclose(res.dist, ref.dist):
        raise AssertionError("bf-process probe: wrong distances")


@_probe("bnw-scaling")
def _probe_bnw_scaling(pool: ForkJoinPool) -> None:
    """The BNW engine end-to-end under the checker: its potential search
    is sequential in the fork tree, but the engine's final
    reduced-weight map runs as backend-portable blocks — the probe
    proves those blocks (whole-array and disjoint slice reads, no
    shared writes) carry clean annotations, and that the distances match the exact
    baseline."""
    from ..baselines.bellman_ford import bellman_ford
    from ..core.engines import get_sssp_engine
    from ..graph.generators import hidden_potential_graph
    from ..runtime.backends import ProcessForkJoinPool

    g = hidden_potential_graph(48, 150, seed=13)
    backend = ProcessForkJoinPool(pool.n_workers, grain=64)
    try:
        res = get_sssp_engine("bnw_scaling").solve(g, 0, backend=backend)
    finally:
        backend.shutdown()
    ref = bellman_ford(g, 0)
    if res.has_negative_cycle or not np.allclose(res.dist, ref.dist):
        raise AssertionError("bnw-scaling probe: wrong distances")


@_probe("fischer-simple")
def _probe_fischer_simple(pool: ForkJoinPool) -> None:
    """The Fischer engine end-to-end under the checker: its BFD loop's
    negative-edge relaxation AND the final reduced-weight map both run
    as backend-portable blocks on the process backend (which the checker
    routes through pool-size-independent logical blocks with zero
    processes spawned), mirroring the ``bf-process`` probe."""
    from ..baselines.bellman_ford import bellman_ford
    from ..core.engines import get_sssp_engine
    from ..graph.generators import hidden_potential_graph
    from ..runtime.backends import ProcessForkJoinPool

    g = hidden_potential_graph(48, 150, seed=13)
    backend = ProcessForkJoinPool(pool.n_workers, grain=64)
    try:
        res = get_sssp_engine("fischer_simple").solve(g, 0,
                                                      backend=backend)
    finally:
        backend.shutdown()
    ref = bellman_ford(g, 0)
    if res.has_negative_cycle or not np.allclose(res.dist, ref.dist):
        raise AssertionError("fischer-simple probe: wrong distances")


@_probe("dag01")
def _probe_dag01(pool: ForkJoinPool) -> None:
    from ..dag01.peeling import dag01_limited_sssp
    from ..graph.generators import random_dag

    g = random_dag(80, 200, seed=11)
    dag01_limited_sssp(g, 0, limit=6, seed=3)


@_probe("limited")
def _probe_limited(pool: ForkJoinPool) -> None:
    from ..graph.generators import random_digraph
    from ..limited.limited import limited_sssp

    g = random_digraph(60, 180, min_w=0, max_w=6, seed=5)
    limited_sssp(g, 0, limit=12)


@_probe("solve")
def _probe_solve(pool: ForkJoinPool) -> None:
    from ..core.sssp import solve_sssp
    from ..graph.generators import hidden_potential_graph

    g = hidden_potential_graph(48, 150, seed=13)
    res = solve_sssp(g, source=0)
    if res.has_negative_cycle:
        raise AssertionError("solve probe: unexpected negative cycle")


def _racy_histogram_block(lo: int, hi: int, data: np.ndarray,
                          hist: np.ndarray) -> None:
    """Deliberately racy: every block writes the whole bin array."""
    race_read(data, lo, hi, site="racy.histogram:data")
    # the bug: blocks share the bins with no reduction step
    race_write(hist, 0, 16, site="racy.histogram:bins")  # repro: noqa[RS012] deliberately racy fixture — RS012 must see this overlap (the cross-validation harness asserts it does), but the probe exists to prove the *dynamic* checker fires
    np.add.at(hist, data[lo:hi], 1)


@_probe("racy-demo", hidden=True)
def _probe_racy_demo(pool: ForkJoinPool) -> None:
    data = (np.arange(4096, dtype=np.int64) * 31) % 16
    hist = np.zeros(16, dtype=np.int64)
    pool.map_blocks(len(data), _racy_histogram_block, (data, hist),
                    grain=1024)


def probe_names(include_hidden: bool = False) -> list[str]:
    names = list(RACE_PROBES)
    if include_hidden:
        names += list(_HIDDEN_PROBES)
    return names


def resolve_probe(name: str) -> ProbeFn:
    fn = RACE_PROBES.get(name) or _HIDDEN_PROBES.get(name)
    if fn is None:
        raise KeyError(
            f"unknown race probe {name!r}; known: "
            f"{', '.join(probe_names(include_hidden=True))}")
    return fn


@dataclass
class ProbeRun:
    """One probe at one pool size."""

    probe: str
    pool_size: int
    report: RaceReport
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.report.ok

    def to_json(self) -> dict[str, Any]:
        out = {"probe": self.probe, "pool_size": self.pool_size,
               "ok": self.ok, **self.report.to_json()}
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class RaceCheckReport:
    """All probe runs from one ``repro check --race`` invocation."""

    runs: list[ProbeRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs)

    @property
    def n_findings(self) -> int:
        return sum(len(r.report.findings) for r in self.runs)

    def to_json(self) -> dict[str, Any]:
        return {"schema": "repro-racecheck/1", "ok": self.ok,
                "n_findings": self.n_findings,
                "runs": [r.to_json() for r in self.runs]}

    def render(self) -> str:
        lines = []
        for r in self.runs:
            if r.error is not None:
                lines.append(f"probe {r.probe} (pool={r.pool_size}): "
                             f"ERROR {r.error}")
            elif r.ok:
                lines.append(f"probe {r.probe} (pool={r.pool_size}): OK "
                             f"({r.report.n_accesses} accesses)")
            else:
                lines.append(f"probe {r.probe} (pool={r.pool_size}): "
                             f"{len(r.report.findings)} conflict(s)")
                lines += ["  " + f.render() for f in r.report.findings]
        verdict = "OK" if self.ok else f"{self.n_findings} conflict(s)"
        lines.append(f"race check: {verdict} across {len(self.runs)} "
                     "probe run(s)")
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def run_race_probes(probes: list[str] | None = None,
                    pool_sizes: tuple[int, ...] = DEFAULT_POOL_SIZES
                    ) -> RaceCheckReport:
    """Run ``probes`` (default: all non-hidden) under the shadow checker
    at each pool size."""
    names = probes if probes is not None else probe_names()
    out = RaceCheckReport()
    for name in names:
        fn = resolve_probe(name)
        for size in pool_sizes:
            with ForkJoinPool(size) as pool:
                try:
                    _, report = checked(fn, pool)
                    out.runs.append(ProbeRun(name, size, report))
                except Exception as exc:  # repro: noqa[RS007] — probe errors are reported, not swallowed: the run is marked failed (ok=False) and the message surfaced
                    out.runs.append(ProbeRun(
                        name, size, RaceReport(),
                        error=f"{type(exc).__name__}: {exc}"))
    return out
