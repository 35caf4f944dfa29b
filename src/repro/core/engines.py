"""Pluggable negative-weight SSSP engines and the certified tail they share.

The paper's solver (Theorem 17: Goldberg bit scaling → feasible price
function → Dijkstra on reduced weights) is one *engine* among several.
Each engine finds a feasible potential — or a negative cycle — by its own
algorithmic route and hands it to the same tail:

``goldberg_parallel``   the paper (Theorem 17): parallel Goldberg bit
                        scaling (:func:`repro.core.scaling.scaled_reweighting`).
``goldberg_sequential`` classic sequential Goldberg scaling baseline.
``bnw_scaling``         Bernstein–Nanongkai–Wulff-Nilsen low-diameter-
                        decomposition scaling (:mod:`repro.core.bnw`).
``fischer_simple``      Fischer et al.'s Bellman–Ford/Dijkstra hybrid
                        (:mod:`repro.core.fischer`).

Why they must agree bit-for-bit: every engine ends in the *same* tail —
a feasible integer potential ``p`` (``w + p(u) − p(v) ≥ 0``), Dijkstra
on the reduced weights, distances mapped back as
``dist(v) = dist_red(v) + p(v) − p(s)``.  The map-back telescopes the
potential out exactly in integer arithmetic, so *any* valid potential
yields identical distances — which is what the cross-engine
differential harness (``tests/test_differential.py``) asserts.

All engines share one interface::

    engine = get_sssp_engine(name)
    res = engine.solve(g, source, seed=..., acc=..., fault_plan=...,
                       token=..., backend=...)   # -> SsspResult

:func:`~repro.core.sssp.solve_sssp` and ``solve_sssp_resilient`` call it
for every engine.  The tail threads the same Cost accumulator,
Certificate machinery, Tracer spans, metrics, budget guard and execution
backends through every engine, and ``solve`` is the only place a solve
installs its cancel token and fault plan (``cancel_scope`` and
``fault_scope`` around its whole body).  The ``potential`` fault site
(:mod:`repro.resilience.faults`) corrupts the computed potential *before*
certificate verification, so injected faults surface as
:class:`~repro.resilience.errors.VerificationError` and are healed by
``solve_sssp_resilient``'s retry loop for every engine alike.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from ..baselines.dijkstra import dijkstra
from ..graph.digraph import DiGraph
from ..graph.validate import check_source
from ..observability.metrics import metric_inc, metric_observe
from ..observability.profiler import profile_scope
from ..observability.tracer import trace_span
from ..observability.worker import worker_span
from ..resilience.errors import (
    Certificate,
    InputValidationError,
    VerificationError,
)
from ..resilience.faults import current_fault_plan, fault_scope
from ..resilience.guard import current_guard
from ..resilience.preempt import cancel_scope, check_cancelled
from ..resilience.retry import SolveProvenance
from ..runtime import model
from ..runtime.backends import resolve_backend
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.racecheck import race_read
from ..runtime.registry import Registry
from .bnw import bnw_potential
from .fischer import fischer_potential
from .scaling import ScalingStats, scaled_reweighting

#: The negative-weight SSSP engine registry — same
#: :class:`~repro.runtime.registry.Registry` machinery as the ASSSP
#: oracle registry in :mod:`repro.assp.engines`.
SSSP_ENGINES = Registry("SSSP engine")

#: The default of every ``engine=`` (the solvers, APSP, the CLI's
#: ``--engine``): the paper's engine.  The differential harness treats
#: its output as the baseline the others must reproduce bit-for-bit.
REFERENCE_ENGINE = "goldberg_parallel"


def _reduced_weights_block(lo: int, hi: int, src: np.ndarray,
                           dst: np.ndarray, w: np.ndarray,
                           price: np.ndarray) -> np.ndarray:
    """One block of the reduced-weight map ``w + p(src) − p(dst)`` — a
    pure function of ``(lo, hi)``, so any backend (serial, thread,
    process) may execute or re-execute it and the concatenation is
    bit-identical to the whole-array expression."""
    # shared-memory contract, checked by `repro check --race`: blocks
    # read the whole price vector, slice-read the edge arrays, and
    # write nothing shared (each returns a fresh reduced-weight array)
    race_read(price, site="sssp.reduce:price")
    race_read(src, lo, hi, site="sssp.reduce:src")
    race_read(dst, lo, hi, site="sssp.reduce:dst")
    race_read(w, lo, hi, site="sssp.reduce:w")
    # worker_span: records on a process worker's shipped tracer; no-op
    # in-process (a plain trace_span here would corrupt the thread
    # pool's parent stack from a worker thread)
    with worker_span("block-reduce", lo=lo, hi=hi) as wsp:
        wsp.count("edges", hi - lo)
        return w[lo:hi] + price[src[lo:hi]] - price[dst[lo:hi]]


@dataclass
class SsspResult:
    """Distances from the source, or a negative-cycle certificate.

    * No negative cycle: ``dist[v]`` is the exact distance (``+inf`` when
      unreachable), ``parent`` a shortest-path tree, ``price`` the feasible
      potential that certifies the distances.
    * Negative cycle: ``negative_cycle`` is a vertex list whose closed walk
      has negative weight; ``dist``/``parent``/``price`` are None.

    ``certificate`` is the same witness in checkable form (re-validated
    independently before the result is returned); ``provenance`` records
    how a resilient solve got its answer (engine, attempt log, fault
    summary, fallback reason) and is None for a plain engine solve.
    ``stats`` is the Goldberg engines' per-scale telemetry (empty for the
    other engines).
    """

    source: int
    dist: np.ndarray | None
    parent: np.ndarray | None
    price: np.ndarray | None
    negative_cycle: list[int] | None
    stats: ScalingStats
    cost: Cost
    certificate: Certificate | None = None
    provenance: SolveProvenance | None = None

    @property
    def has_negative_cycle(self) -> bool:
        return self.negative_cycle is not None


class _PotentialEngine:
    """The certified tail every engine shares.

    Subclasses implement :meth:`_potential`, the search for a feasible
    potential or a negative cycle.  :meth:`solve` owns everything else,
    once for all engines: the source check, the cancel and fault scopes,
    the ``solve`` span and the one ``potential`` fault hook, both
    certificates, the final Dijkstra on backend-mapped reduced weights
    with the integer map-back, the budget settle, the metrics, and the
    fold into the caller's accumulator.  The identical tail is what makes
    cross-engine distances bit-identical.
    """

    name: str = "potential"
    #: whether ``checkpoint_path``/``resume`` are honoured
    checkpoints: bool = False

    def _potential(self, g: DiGraph, *, seed, acc, backend, **options
                   ) -> tuple[np.ndarray | None, list[int] | None,
                              ScalingStats | None]:
        """``(price, None, stats)`` or ``(None, cycle, stats)``.

        Charge ``acc``; at each loop head call
        :func:`~repro.resilience.preempt.check_cancelled` and tick a
        :class:`~repro.resilience.guard.Meter` on the ambient budget
        guard.  ``stats`` may be None; ``options`` are the keyword
        arguments of :meth:`solve` beyond the common ones.
        """
        raise NotImplementedError

    def _certified_potential(self, g: DiGraph, *, seed, acc, backend,
                             **options):
        """:meth:`_potential`'s answer with its witness checked:
        ``(price, cycle, stats, certificate)``.

        The ``potential`` fault hook corrupts a price first, and the
        certificate is verified by the independent validators; a
        rejected one raises
        :class:`~repro.resilience.errors.VerificationError`.  :meth:`solve`,
        :func:`~repro.core.extensions.all_pairs_shortest_paths` and
        :func:`~repro.core.extensions.find_negative_cycle` read an
        engine's potential only through here.
        """
        price, cycle, stats = self._potential(
            g, seed=seed, acc=acc, backend=backend, **options)
        if cycle is not None:
            cert = Certificate("negative_cycle", cycle=list(cycle))
            failure = "invalid cycle certificate"
        else:
            plan = current_fault_plan()
            if plan is not None:
                # the "potential" fault site attacks the witness before
                # verification — corruption must be caught below, never
                # silently change distances
                price = plan.corrupt_potential(g.src, g.dst, g.w, price)
            cert = Certificate("price", price=price)
            failure = "infeasible price function"
        if not cert.verify(g):
            raise VerificationError(f"{self.name}: {failure}",
                                    stage=f"engine:{self.name}")
        return price, cycle, stats, cert

    def solve(self, g: DiGraph, source: int, *, seed=0,
              acc: CostAccumulator | None = None, fault_plan=None,
              token=None, backend=None, **options) -> SsspResult:
        """Exact distances from ``source``, or a verified negative cycle.

        ``options`` carry the Goldberg engines' own inputs
        (``assp_engine``, ``eps``, ``retry_policy``, ``checkpoint_path``,
        ``resume``, ``on_checkpoint``; see
        :func:`~repro.core.sssp.solve_sssp`) to :meth:`_potential`.  The
        certificate is always verified; a rejected one raises
        :class:`~repro.resilience.errors.VerificationError`.  A
        checkpoint request to an engine without checkpoint support raises
        :class:`~repro.resilience.errors.InputValidationError`, and so
        does a ``backend`` that is neither a name nor an object with
        ``map_blocks`` and ``shutdown``, before any work.  ``token`` and
        ``fault_plan`` are ambient for the whole call, and only for it.
        """
        with cancel_scope(token), fault_scope(fault_plan), \
                ExitStack() as owned:
            if isinstance(backend, str):  # a ladder owned by this call
                backend = owned.enter_context(resolve_backend(backend))
            backend = resolve_backend(backend)
            source = check_source(g, source)
            if not self.checkpoints and (
                    options.get("checkpoint_path") is not None
                    or options.get("resume")):
                raise InputValidationError(
                    f"engine {self.name!r} does not support checkpointing; "
                    "use goldberg_parallel or goldberg_sequential")
            guard = current_guard()
            mark = guard.mark() if guard is not None else None
            local = CostAccumulator()
            with trace_span("solve", acc=local, phase="solve",
                            engine=self.name, n=g.n, m=g.m, source=source,
                            seed=seed) as sp:
                try:
                    price, cycle, stats, cert = self._certified_potential(
                        g, seed=seed, acc=local, backend=backend, **options)
                except VerificationError:
                    # a failed attempt spent its work too, past the last
                    # tick; a breach here raises with the
                    # VerificationError as its context
                    if guard is not None:
                        guard.settle(mark, local)
                    raise
                sp.set(certificate=cert.kind)
                dist = parent = None
                if cycle is not None:
                    sp.set(cycle_length=len(cycle))
                else:
                    check_cancelled(f"{self.name}:final-dijkstra")
                    if guard is not None:
                        guard.settle(mark, local)
                    dist, parent = _final_dijkstra(g, source, price, local,
                                                   backend)
                if guard is not None:
                    guard.settle(mark, local)
                outcome = "distances" if cycle is None else "negative_cycle"
                metric_inc("repro_engine_solves_total", engine=self.name,
                           outcome=outcome)
                metric_observe("repro_solve_work", local.work)
                metric_observe("repro_solve_span_model", local.span_model)
                if acc is not None:
                    acc.charge_cost(local.snapshot())
                    acc.merge_stages_from(local)
                return SsspResult(source, dist, parent, price, cycle,
                                  stats or ScalingStats(), local.snapshot(),
                                  certificate=cert)


def _final_dijkstra(g: DiGraph, source: int, price: np.ndarray,
                    acc: CostAccumulator, backend
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra on the reduced weights ``w + p(u) − p(v)``, with the
    distances mapped back: ``dist(s,v) = dist_red(s,v) + p(v) − p(s)``."""
    if backend is not None and g.m:
        # physical execution of the reduced-weight map moves to the
        # backend; the model cost charged below is unchanged, keeping
        # golden costs bit-exact across backends
        parts = backend.map_blocks(g.m, _reduced_weights_block,
                                   (g.src, g.dst, g.w, price))
        w_red = np.concatenate(parts)
    else:
        w_red = g.w + price[g.src] - price[g.dst] if g.m else g.w
    acc.charge(*model.map_ws(g.m))
    with acc.stage("final-dijkstra"), \
            trace_span("final-dijkstra", acc=acc, phase="solve") as dsp, \
            profile_scope("final-dijkstra"):
        dj = dijkstra(g, source, weights=w_red)
        acc.charge_cost(dj.cost)
        dsp.count("settled", int(np.isfinite(dj.dist).sum()))
    dist = dj.dist.copy()
    finite = np.isfinite(dist)
    dist[finite] += price[np.flatnonzero(finite)] - price[source]
    return dist, dj.parent


@SSSP_ENGINES.register("goldberg_parallel")
class GoldbergParallelEngine(_PotentialEngine):
    """The source paper's engine: parallel Goldberg bit scaling
    (:func:`repro.core.scaling.scaled_reweighting`), with checkpointing."""

    name = "goldberg_parallel"
    #: the subroutine set :func:`~repro.core.scaling.scaled_reweighting`
    #: runs (the paper's parallel ones, or Goldberg's sequential ones)
    mode = "parallel"
    checkpoints = True

    def _potential(self, g, *, seed, acc, backend, **options):
        del backend  # scaling runs in process; only the tail's map uses it
        scal = scaled_reweighting(g, mode=self.mode, seed=seed, acc=acc,
                                  **options)
        return scal.price, scal.negative_cycle, scal.stats


@SSSP_ENGINES.register("goldberg_sequential")
class GoldbergSequentialEngine(GoldbergParallelEngine):
    """Sequential Goldberg scaling — the classic baseline."""

    name = "goldberg_sequential"
    mode = "sequential"


@SSSP_ENGINES.register("bnw_scaling")
class BnwScalingEngine(_PotentialEngine):
    """Bernstein–Nanongkai–Wulff-Nilsen LDD scaling
    (:func:`repro.core.bnw.bnw_potential`)."""

    name = "bnw_scaling"

    def _potential(self, g, *, seed, acc, backend, **options):
        del backend  # BNW's ball growing is inherently sequential here
        return (*bnw_potential(g, seed=seed, acc=acc), None)


@SSSP_ENGINES.register("fischer_simple")
class FischerSimpleEngine(_PotentialEngine):
    """Fischer et al.'s Bellman–Ford/Dijkstra hybrid
    (:func:`repro.core.fischer.fischer_potential`)."""

    name = "fischer_simple"

    def _potential(self, g, *, seed, acc, backend, **options):
        return (*fischer_potential(g, seed=seed, acc=acc,
                                   backend=backend), None)


def engine_names() -> list[str]:
    """All registered SSSP engine names, sorted."""
    return SSSP_ENGINES.names()


def get_sssp_engine(name: str, **kwargs):
    """Engine factory: ``goldberg_parallel``, ``goldberg_sequential``,
    ``bnw_scaling``, ``fischer_simple`` (plus any test-registered
    extras).  An unknown name raises
    :class:`~repro.resilience.errors.InputValidationError`."""
    return SSSP_ENGINES.create(name, **kwargs)


__all__ = [
    "SSSP_ENGINES",
    "REFERENCE_ENGINE",
    "SsspResult",
    "GoldbergParallelEngine",
    "GoldbergSequentialEngine",
    "BnwScalingEngine",
    "FischerSimpleEngine",
    "engine_names",
    "get_sssp_engine",
]
