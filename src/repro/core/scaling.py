"""Bit scaling (§5): general integer weights via O(log N) 1-reweightings.

With all weights ≥ −N, let ``B`` be the smallest power of two ≥ N and
process scales ``s = B, B/2, …, 1``.  At scale ``s`` the effective weights
are ``⌈w/s⌉ + p(u) − p(v)`` where ``p`` doubles as the scale halves
(``p ← 2·(p + q)`` after solving scale ``s`` with price ``q``); the ceiling
inequality ``⌈w/(s/2)⌉ ≥ 2·⌈w/s⌉ − 1`` keeps every scale a valid
1-reweighting instance.  Ceilings only round *up*, so a negative cycle
found at any scale certifies one in the original weights; conversely the
final scale uses the exact weights, so no cycle escapes.

The loop is *preemptible*: each completed scale is a verified unit of
durable progress, so with ``checkpoint_path`` set the accumulated price,
scale index (with the top-level seed this is the whole RNG state), model
cost, and telemetry are serialized atomically after every scale
(:mod:`repro.resilience.checkpoint`), and the ambient cancel token
(:mod:`repro.resilience.preempt`, installed by the engine's ``solve``) is
checked at every scale boundary — and inside the runtime primitives and
the backends' ``map_blocks`` calls underneath.  ``resume=True`` loads the
checkpoint, re-validates its potential with the PR-1
:class:`~repro.resilience.errors.Certificate` machinery against the
completed scale's ceiling weights, and continues bit-identically with the
uninterrupted run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights
from ..resilience.checkpoint import (
    ScaleCheckpoint,
    checkpoint_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from ..observability.metrics import metric_inc, metric_set
from ..observability.profiler import profile_scope
from ..observability.tracer import current_tracer, trace_event, trace_span
from ..resilience.errors import Certificate, CheckpointError
from ..resilience.preempt import check_cancelled
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.rng import derive_seed
from .goldberg import ReweightingStats, one_reweighting


@dataclass
class ScalingStats:
    """Telemetry across scales (experiments E8/E11)."""

    scales: list[int] = field(default_factory=list)
    per_scale: list[ReweightingStats] = field(default_factory=list)
    resumed_from_scale: int | None = None   # checkpointed scale we resumed at

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.per_scale)


@dataclass
class ScalingResult:
    price: np.ndarray | None
    negative_cycle: list[int] | None
    stats: ScalingStats
    cost: Cost

    @property
    def feasible(self) -> bool:
        return self.price is not None


def _ceil_div(w: np.ndarray, s: int) -> np.ndarray:
    """``⌈w/s⌉`` element-wise for positive ``s``."""
    return -((-w) // s)


def _restore(ck: ScaleCheckpoint, g: DiGraph, w: np.ndarray,
             fingerprint: str, local: CostAccumulator,
             stats: ScalingStats, checkpoint_path) -> ScaleCheckpoint:
    """Validate ``ck`` against this solve and rebuild the loop state.

    Two independent gates before a single resumed step runs:

    1. the fingerprint must bind the checkpoint to this exact graph,
       weight vector, and solver configuration (mode/eps/seed);
    2. the stored potential must pass the :class:`Certificate` feasibility
       re-check against the completed scale's ceiling weights — the same
       machinery that certifies final results, run by the consumer rather
       than the producer of the checkpoint.
    """
    if ck.fingerprint != fingerprint:
        raise CheckpointError(
            "checkpoint does not match this instance/configuration "
            "(different graph, weights, mode, eps, or seed)",
            path=checkpoint_path, reason="fingerprint")
    if len(ck.price) != g.n:
        raise CheckpointError(
            f"checkpoint potential has {len(ck.price)} entries for an "
            f"{g.n}-vertex graph", path=checkpoint_path, reason="schema")
    cert = Certificate("price", price=ck.price)
    if not cert.verify(g.with_weights(_ceil_div(w, ck.scale))):
        raise CheckpointError(
            f"checkpoint potential failed its certificate re-check at "
            f"scale {ck.scale}", path=checkpoint_path, reason="certificate")
    local.charge_cost(Cost(*ck.cost))
    stats.scales.extend(ck.scales)
    stats.per_scale.extend(ReweightingStats(**d) for d in ck.per_scale)
    stats.resumed_from_scale = ck.scale
    return ck


def scaled_reweighting(g: DiGraph, weights: np.ndarray | None = None, *,
                       mode: str = "parallel", assp_engine=None,
                       eps: float = 0.2, seed=0,
                       acc: CostAccumulator | None = None,
                       retry_policy=None,
                       checkpoint_path=None, resume: bool = False,
                       on_checkpoint=None) -> ScalingResult:
    """Feasible price function for arbitrary integer weights, or a cycle.

    The stages below read the ambient fault plan where they fire; its
    ``"potential"`` site is applied to the returned price by the engine
    tail (:mod:`repro.core.engines`), where only the independent
    feasibility check can catch it.

    Preemption hooks: the ambient cancel token is checked at entry and
    at every scale boundary (and inside the primitives below);
    ``checkpoint_path`` persists each completed scale atomically;
    ``resume`` restores a matching checkpoint (missing file ⇒ fresh
    start; corrupted/mismatched file ⇒
    :class:`~repro.resilience.errors.CheckpointError`).  ``on_checkpoint``
    is called with each :class:`ScaleCheckpoint` just after its durable
    write — the fault-injection hook the kill-and-resume tests use.
    """
    w = _aligned_weights(g, weights)
    local = CostAccumulator()
    stats = ScalingStats()
    check_cancelled("scaling:entry")
    if g.m == 0 or w.min() >= 0:
        price = np.zeros(g.n, dtype=np.int64)
        if acc is not None:
            acc.charge_cost(local.snapshot())
        return ScalingResult(price, None, stats, local.snapshot())
    n_neg = int(-w.min())
    b = 1
    while b < n_neg:
        b *= 2

    fingerprint = None
    if checkpoint_path is not None or resume:
        fingerprint = checkpoint_fingerprint(g, w, mode=mode, eps=eps,
                                             seed=seed)

    price = np.zeros(g.n, dtype=np.int64)
    s = b
    scale_idx = 0
    with trace_span("scaling", acc=local, phase="scaling",
                    b=b, n=g.n, m=g.m) as scsp:
        if resume and checkpoint_path is not None \
                and os.path.exists(checkpoint_path):
            with trace_span("checkpoint-restore", acc=local,
                            phase="scaling") as rsp:
                ck = _restore(load_checkpoint(checkpoint_path), g, w,
                              fingerprint, local, stats, checkpoint_path)
                rsp.set(scale=ck.scale, scale_idx=ck.scale_idx,
                        done=ck.done)
            tr = current_tracer()
            if tr is not None:
                tr.mark_resumed(ck.trace_cursor)
            if ck.done:
                # the final scale already completed: the stored potential
                # is feasible for the exact weights; nothing left to solve
                price = ck.price
                if acc is not None:
                    acc.charge_cost(local.snapshot())
                    acc.merge_stages_from(local)
                return ScalingResult(price, None, stats, local.snapshot())
            price = 2 * ck.price
            s = ck.scale // 2
            scale_idx = ck.scale_idx + 1

        while True:
            check_cancelled("scaling:scale-boundary")
            # the "scale" span closes before the checkpoint write below
            # so the checkpointed trace cursor covers the whole scale
            # subtree (export.stitch_traces relies on this)
            with trace_span("scale", acc=local, phase="scaling",
                            scale=s, index=scale_idx) as ssp, \
                    profile_scope("scale"):
                # effective weights at this scale: ceil(w/s) + price
                # terms; the invariant guarantees they are >= -1
                w_eff = _ceil_div(w, s) + price[g.src] - price[g.dst]
                local.charge(*model.map_ws(g.m))
                res = one_reweighting(g, w_eff, mode=mode,
                                      assp_engine=assp_engine, eps=eps,
                                      seed=derive_seed(seed, scale_idx),
                                      acc=local,
                                      retry_policy=retry_policy)
                stats.scales.append(s)
                stats.per_scale.append(res.stats)
                ssp.set(iterations=res.stats.iterations,
                        negative_cycle=res.negative_cycle is not None)
                metric_inc("repro_scales_total")
                metric_inc("repro_reweighting_iterations_total",
                           res.stats.iterations)
                metric_set("repro_scale_current", s)
                if res.negative_cycle is not None:
                    if acc is not None:
                        acc.charge_cost(local.snapshot())
                        acc.merge_stages_from(local)
                    return ScalingResult(None, res.negative_cycle,
                                         stats, local.snapshot())
                price = price + res.price
            if checkpoint_path is not None:
                tr = current_tracer()
                ck = ScaleCheckpoint(
                    fingerprint=fingerprint, seed=int(seed), scale_b=b,
                    scale=s, scale_idx=scale_idx, done=(s == 1),
                    price=price, cost=(local.work, local.span,
                                       local.span_model),
                    scales=list(stats.scales),
                    per_scale=[{"k_trajectory": ps.k_trajectory,
                                "methods": ps.methods,
                                "improved": ps.improved}
                               for ps in stats.per_scale],
                    trace_cursor=(tr.cursor() if tr is not None else 0))
                nbytes = save_checkpoint(checkpoint_path, ck)
                metric_inc("repro_checkpoint_writes_total")
                metric_inc("repro_checkpoint_bytes_total", nbytes)
                trace_event("checkpoint", scale=s, scale_idx=scale_idx,
                            done=(s == 1), trace_cursor=ck.trace_cursor)
                if on_checkpoint is not None:
                    on_checkpoint(ck)
            if s == 1:
                break
            price = 2 * price
            s //= 2
            scale_idx += 1
        scsp.set(scales=len(stats.scales),
                 iterations=stats.total_iterations)
    if acc is not None:
        acc.charge_cost(local.snapshot())
        acc.merge_stages_from(local)
    return ScalingResult(price, None, stats, local.snapshot())
