"""Pluggable negative-weight SSSP engines — the top-level registry.

The paper's solver (``solve_sssp``: Goldberg bit scaling → feasible
price function → Dijkstra on reduced weights) is one *engine* among
several.  Each engine produces the same artefacts — exact integer
distances or a verified negative-cycle certificate, with a feasible
potential as the distance witness — by a different algorithmic route:

``goldberg_parallel``   the paper (Theorem 17): parallel Goldberg
                        scaling.  Delegates to :func:`solve_sssp`
                        with ``mode="parallel"``.
``goldberg_sequential`` classic sequential Goldberg scaling baseline
                        (``mode="sequential"``).
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
    res = engine.solve(g, source, seed=..., acc=..., model=...,
                       check_certificates=..., fault_plan=...,
                       token=..., backend=...)   # -> SsspResult

and thread the same Cost accumulator, Certificate machinery, Tracer
spans, metrics and execution backends as ``solve_sssp`` itself.  The
``potential`` fault site (:mod:`repro.resilience.faults`) corrupts the
computed potential *before* certificate verification, so injected
faults surface as :class:`~repro.resilience.errors.VerificationError`
and are healed by ``solve_sssp_resilient``'s retry loop for every
engine alike.
"""

from __future__ import annotations

import numpy as np

from ..baselines.dijkstra import dijkstra
from ..graph.digraph import DiGraph
from ..observability.metrics import metric_inc
from ..observability.profiler import profile_scope
from ..observability.tracer import trace_span
from ..resilience.errors import (
    Certificate,
    InputValidationError,
    VerificationError,
)
from ..runtime.backends import resolve_backend
from ..runtime.metrics import CostAccumulator
from ..runtime.model import CostModel, DEFAULT_MODEL
from ..runtime.registry import Registry
from .bnw import bnw_potential
from .fischer import fischer_potential
from .scaling import ScalingStats
from .sssp import SsspResult, _reduced_weights_block, solve_sssp

#: The negative-weight SSSP engine registry — same
#: :class:`~repro.runtime.registry.Registry` machinery as the ASSSP
#: oracle registry in :mod:`repro.assp.engines`.
SSSP_ENGINES = Registry("SSSP engine")

#: Engine names accepted everywhere a ``mode`` used to be the only
#: choice (CLI ``--engine``, the resilient solver, the differential
#: harness).  ``goldberg_parallel`` is the reference engine: the
#: differential harness treats its output as the baseline the others
#: must reproduce bit-for-bit.
REFERENCE_ENGINE = "goldberg_parallel"


class _GoldbergEngine:
    """Adapter presenting :func:`solve_sssp` through the engine
    interface.  ``mode`` picks the parallel (the paper) or sequential
    (baseline) Goldberg scaling path; everything else — certificates,
    fault injection, checkpointing, backends — is ``solve_sssp``'s
    own machinery, unchanged."""

    #: the resilient solver recognises this and keeps using its
    #: original ``solve_sssp`` code path (checkpoint support included)
    delegates_to_solve_sssp = True
    mode: str = "parallel"
    name: str = "goldberg_parallel"

    def solve(self, g: DiGraph, source: int, *, seed=0,
              acc: CostAccumulator | None = None,
              model: CostModel = DEFAULT_MODEL,
              check_certificates: bool = True, fault_plan=None,
              token=None, backend=None, **solve_kwargs) -> SsspResult:
        res = solve_sssp(g, source, mode=self.mode, seed=seed, acc=acc,
                         model=model,
                         check_certificates=check_certificates,
                         fault_plan=fault_plan, token=token,
                         backend=backend, **solve_kwargs)
        metric_inc("repro_engine_solves_total", engine=self.name,
                   outcome=("negative_cycle" if res.has_negative_cycle
                            else "distances"))
        return res


@SSSP_ENGINES.register("goldberg_parallel")
class GoldbergParallelEngine(_GoldbergEngine):
    """The source paper's engine: parallel Goldberg scaling."""

    mode = "parallel"
    name = "goldberg_parallel"


@SSSP_ENGINES.register("goldberg_sequential")
class GoldbergSequentialEngine(_GoldbergEngine):
    """Sequential Goldberg scaling — the classic baseline."""

    mode = "sequential"
    name = "goldberg_sequential"


class _PotentialEngine:
    """Shared harness for engines whose algorithmic content is "find a
    feasible potential (or a negative cycle)".

    Subclasses implement :meth:`_potential`; this class owns the tail
    that is deliberately *identical* to ``solve_sssp``'s — fault hook,
    certificate verification, backend-mapped reduced weights, final
    Dijkstra, integer map-back — because the identical tail is what
    makes cross-engine distances bit-identical.
    """

    delegates_to_solve_sssp = False
    name: str = "potential"

    def _potential(self, g: DiGraph, *, seed, acc, model, token, backend
                   ) -> tuple[np.ndarray | None, list[int] | None]:
        raise NotImplementedError

    def solve(self, g: DiGraph, source: int, *, seed=0,
              acc: CostAccumulator | None = None,
              model: CostModel = DEFAULT_MODEL,
              check_certificates: bool = True, fault_plan=None,
              token=None, backend=None) -> SsspResult:
        if isinstance(backend, str):
            with resolve_backend(backend) as be:
                return self.solve(g, source, seed=seed, acc=acc,
                                  model=model,
                                  check_certificates=check_certificates,
                                  fault_plan=fault_plan, token=token,
                                  backend=be)
        if not (0 <= source < g.n):
            raise InputValidationError("source out of range")
        if (backend is not None and fault_plan is not None
                and hasattr(backend, "install_fault_plan")):
            backend.install_fault_plan(fault_plan)
        local = CostAccumulator()
        with trace_span("solve", acc=local, phase="solve",
                        engine=self.name, n=g.n, m=g.m, source=source,
                        seed=seed) as sp:
            price, cycle = self._potential(g, seed=seed, acc=local,
                                           model=model, token=token,
                                           backend=backend)
            if cycle is not None:
                cert = Certificate("negative_cycle", cycle=list(cycle))
                if check_certificates and not cert.verify(g):
                    raise VerificationError(
                        f"{self.name}: invalid cycle certificate",
                        stage=f"engine:{self.name}")
                sp.set(certificate=cert.kind, cycle_length=len(cycle))
                metric_inc("repro_engine_solves_total", engine=self.name,
                           outcome="negative_cycle")
                if acc is not None:
                    acc.charge_cost(local.snapshot())
                    acc.merge_stages_from(local)
                return SsspResult(source, None, None, None, list(cycle),
                                  ScalingStats(), local.snapshot(),
                                  certificate=cert)
            if fault_plan is not None:
                # the "potential" fault site attacks the witness before
                # verification — corruption must be caught below, never
                # silently change distances
                price = fault_plan.corrupt_potential(g.src, g.dst, g.w,
                                                     price)
            cert = Certificate("price", price=price)
            if check_certificates and not cert.verify(g):
                raise VerificationError(
                    f"{self.name}: infeasible price function",
                    stage=f"engine:{self.name}")
            sp.set(certificate=cert.kind)
            if token is not None:
                token.check(f"{self.name}:final-dijkstra")
            if backend is not None and g.m:
                # physical execution of the reduced-weight map moves to
                # the backend; the model cost charged below is unchanged,
                # keeping golden costs bit-exact across backends
                parts = backend.map_blocks(
                    g.m, _reduced_weights_block,
                    (g.src, g.dst, g.w, price), token=token)
                w_red = np.concatenate(parts)
            else:
                w_red = (g.w + price[g.src] - price[g.dst]
                         if g.m else g.w)
            local.charge(*model.map_ws(g.m))
            with local.stage("final-dijkstra"), \
                    trace_span("final-dijkstra", acc=local,
                               phase="solve") as dsp, \
                    profile_scope("final-dijkstra"):
                dj = dijkstra(g, source, weights=w_red, model=model)
                local.charge_cost(dj.cost)
                dsp.count("settled", int(np.isfinite(dj.dist).sum()))
            dist = dj.dist.copy()
            finite = np.isfinite(dist)
            # undo the reweighting: dist(s,v) = dist_red(s,v) + p(v) − p(s)
            dist[finite] += price[np.flatnonzero(finite)] - price[source]
            metric_inc("repro_engine_solves_total", engine=self.name,
                       outcome="distances")
            if acc is not None:
                acc.charge_cost(local.snapshot())
                acc.merge_stages_from(local)
            return SsspResult(source, dist, dj.parent, price, None,
                              ScalingStats(), local.snapshot(),
                              certificate=cert)


@SSSP_ENGINES.register("bnw_scaling")
class BnwScalingEngine(_PotentialEngine):
    """Bernstein–Nanongkai–Wulff-Nilsen LDD scaling
    (:func:`repro.core.bnw.bnw_potential`)."""

    name = "bnw_scaling"

    def _potential(self, g, *, seed, acc, model, token, backend):
        del backend  # BNW's ball growing is inherently sequential here
        return bnw_potential(g, seed=seed, acc=acc, model=model,
                             token=token)


@SSSP_ENGINES.register("fischer_simple")
class FischerSimpleEngine(_PotentialEngine):
    """Fischer et al.'s Bellman–Ford/Dijkstra hybrid
    (:func:`repro.core.fischer.fischer_potential`)."""

    name = "fischer_simple"

    def _potential(self, g, *, seed, acc, model, token, backend):
        return fischer_potential(g, seed=seed, acc=acc, model=model,
                                 token=token, backend=backend)


def engine_names() -> list[str]:
    """All registered SSSP engine names, sorted."""
    return SSSP_ENGINES.names()


def get_sssp_engine(name: str, **kwargs):
    """Engine factory: ``goldberg_parallel``, ``goldberg_sequential``,
    ``bnw_scaling``, ``fischer_simple`` (plus any test-registered
    extras)."""
    return SSSP_ENGINES.create(name, **kwargs)


#: mode-string compatibility: ``solve_sssp(mode=...)`` predates the
#: registry; these are the engine names the two modes map onto.
MODE_TO_ENGINE = {"parallel": "goldberg_parallel",
                  "sequential": "goldberg_sequential"}
ENGINE_TO_MODE = {v: k for k, v in MODE_TO_ENGINE.items()}


__all__ = [
    "SSSP_ENGINES",
    "REFERENCE_ENGINE",
    "MODE_TO_ENGINE",
    "ENGINE_TO_MODE",
    "GoldbergParallelEngine",
    "GoldbergSequentialEngine",
    "BnwScalingEngine",
    "FischerSimpleEngine",
    "engine_names",
    "get_sssp_engine",
]
