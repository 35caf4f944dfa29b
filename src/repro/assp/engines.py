"""Approximate-SSSP engines — the paper's second black box (§2).

Contract (Cao et al. [8]): given nonnegative integer weights, a source and
``ε > 0``, return a *distance overestimate* ``d′`` with
``dist(s,v) ≤ d′(v)`` always, and ``d′(v) ≤ (1+ε)·dist(s,v)`` with high
probability.  The published bounds are ``Õ(m)`` work and ``n^(1/2+o(1))``
span.

Four engines stress every downstream code path of §4 (DESIGN.md):

``ExactAssp``        Dijkstra; trivially within any ε.  The default.
``PerturbedAssp``    exact × independent per-vertex factor in ``[1, 1+ε]`` —
                     genuinely approximate estimates, still in contract.
``DeltaSteppingAssp``
                     a real bucketed parallel SSSP whose *measured* span is
                     its actual bucket-phase count (exact distances).
``FlakyAssp``        wraps another engine; with probability ``p_fail`` per
                     call it inflates a random subset beyond ``(1+ε)`` —
                     never underestimates — exercising the §4.2
                     verification-and-retry machinery.

All engines charge the oracle's model cost per call (work ``Õ(m)``, span
``n^(1/2+o(1))``) plus their measured execution on the measured track.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.dijkstra import dijkstra
from ..graph.csr import out_edge_slots
from ..graph.digraph import DiGraph, _aligned_weights
from ..graph.validate import check_source
from ..resilience.errors import InputValidationError
from ..runtime import model
from ..runtime.metrics import CostAccumulator
from ..runtime.registry import Registry
from ..runtime.rng import make_rng


def _charge_oracle(g: DiGraph, acc: CostAccumulator | None,
                   measured_span: float) -> None:
    if acc is not None:
        acc.charge(model.oracle_work(g.n, g.m),
                   span=measured_span,
                   span_model=model.oracle_span(g.n))


class ExactAssp:
    """Dijkstra-backed engine: ``d′ = dist`` (valid for every ε)."""

    name = "exact"

    def __call__(self, g: DiGraph, source: int, eps: float,
                 acc: CostAccumulator | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        res = dijkstra(g, source, weights=weights)
        _charge_oracle(g, acc, measured_span=res.cost.span)
        return res.dist


@dataclass
class PerturbedAssp:
    """Exact distances inflated per vertex by a factor in ``[1, 1+ε]``.

    The inflation is resampled every call, so repeated Refine calls see
    different — but always contract-satisfying — estimates.
    """

    seed: int = 0
    name: str = field(default="perturbed", init=False)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)

    def __call__(self, g: DiGraph, source: int, eps: float,
                 acc: CostAccumulator | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        res = dijkstra(g, source, weights=weights)
        _charge_oracle(g, acc, measured_span=res.cost.span)
        factor = 1.0 + eps * self._rng.random(g.n)
        out = res.dist * factor
        out[~np.isfinite(res.dist)] = np.inf
        out[source] = 0.0
        return out


@dataclass
class DeltaSteppingAssp:
    """Real bucketed Δ-stepping (Meyer & Sanders) returning exact distances.

    Runs genuine frontier-parallel bucket phases; the measured span counts
    one ``O(log n)`` term per phase, so experiments can contrast a realistic
    parallel SSSP's depth with the oracle bound.
    """

    delta: int | None = None
    name: str = field(default="delta-stepping", init=False)

    def __call__(self, g: DiGraph, source: int, eps: float,
                 acc: CostAccumulator | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        w = _aligned_weights(g, weights)
        if g.m and w.min() < 0:
            raise InputValidationError(
                "delta-stepping requires nonnegative weights")
        local = CostAccumulator()
        dist = _delta_stepping(g, source, w, self.delta, local)
        _charge_oracle(g, acc, measured_span=local.span)
        if acc is not None:
            acc.charge(local.work, span=0.0, span_model=0.0)
        return dist


def _delta_stepping(g: DiGraph, source: int, w: np.ndarray,
                    delta: int | None, acc: CostAccumulator) -> np.ndarray:
    source = check_source(g, source)
    if delta is None:
        positive = w[w > 0]
        delta = int(positive.min()) if len(positive) else 1
        # widen toward the average weight for fewer buckets
        if len(positive):
            delta = max(delta, int(np.median(positive)))
    delta = max(int(delta), 1)
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    light = w <= delta
    bucket_of = np.full(g.n, -1, dtype=np.int64)
    bucket_of[source] = 0
    buckets: dict[int, list[int]] = {0: [source]}
    i = 0
    wf = w.astype(np.float64)
    while buckets:
        while i not in buckets and buckets:  # repro: noqa[RS001] bucket-index advance: total scans bounded by #buckets, dominated by the per-relaxation bfs_round charges
            i = min(buckets.keys())
        if not buckets:
            break
        settled_this_bucket: list[int] = []
        while buckets.get(i):
            raw = np.asarray(buckets.pop(i), dtype=np.int64)
            # lazy deletion: keep only vertices still belonging to bucket i
            frontier = raw[bucket_of[raw] == i]
            if len(frontier) == 0:
                continue
            settled_this_bucket.extend(frontier.tolist())
            bucket_of[frontier] = -2  # settled for light phase purposes
            _relax_from(g, frontier, wf, light, dist, bucket_of, buckets,
                        delta, acc)
        if settled_this_bucket:
            sfront = np.asarray(settled_this_bucket, dtype=np.int64)
            _relax_from(g, sfront, wf, ~light, dist, bucket_of, buckets,
                        delta, acc)
        if i in buckets and not buckets[i]:
            del buckets[i]
        i += 1
    return dist


def _relax_from(g: DiGraph, frontier: np.ndarray, wf: np.ndarray,
                edge_mask: np.ndarray, dist: np.ndarray,
                bucket_of: np.ndarray, buckets: dict[int, list[int]],
                delta: int, acc: CostAccumulator) -> None:
    slots = out_edge_slots(g, frontier)
    acc.charge(*model.bfs_round_ws(len(slots), g.n))
    if len(slots) == 0:
        return
    keep = edge_mask[slots]
    slots = slots[keep]
    if len(slots) == 0:
        return
    cand = dist[g.src[slots]] + wf[slots]
    targets = g.indices[slots]
    old = dist.copy()
    np.minimum.at(dist, targets, cand)
    improved = np.flatnonzero(dist < old)
    for v in improved.tolist():  # repro: noqa[RS001] reinsertion is O(|improved|) <= |slots|, covered by the bfs_round charge in this call
        b = int(dist[v] // delta)
        bucket_of[v] = b
        buckets.setdefault(b, []).append(v)


@dataclass
class FlakyAssp:
    """Failure-injection wrapper: violates the ``(1+ε)`` bound (never the
    overestimate guarantee) with probability ``p_fail`` per call."""

    inner: object = None
    p_fail: float = 0.3
    seed: int = 0
    name: str = field(default="flaky", init=False)

    def __post_init__(self) -> None:
        if self.inner is None:
            self.inner = ExactAssp()
        self._rng = make_rng(self.seed)
        self.calls = 0
        self.failures = 0

    def __call__(self, g: DiGraph, source: int, eps: float,
                 acc: CostAccumulator | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        self.calls += 1
        d = self.inner(g, source, eps, acc, weights)
        if self._rng.random() < self.p_fail:
            self.failures += 1
            d = d.copy()
            victims = self._rng.random(g.n) < 0.25
            victims[source] = False
            sel = victims & np.isfinite(d)
            # inflate well past (1+eps) and by an instance-scale additive
            # term — including true-zero distances, whose overestimates
            # stall finalisation — but never underestimate
            finite = d[np.isfinite(d)]
            bump = float(finite.max()) / 2.0 + 1.0 if len(finite) else 1.0
            d[sel] = np.ceil(d[sel] * (1.0 + 4.0 * max(eps, 0.25)) + bump)
        return d


@dataclass
class FaultInjectingAssp:
    """Resilience hook: routes another engine's output through a
    :class:`~repro.resilience.faults.FaultPlan` (site ``"assp"``).

    Unlike :class:`FlakyAssp` — whose failures are i.i.d. per call — the
    plan's schedule is a deterministic function of its seed and call
    counter, so tests can pin corruption to exactly the k-th engine call
    and prove the §4.2 verifier catches it, that a retry heals it, and
    that a persistent plan degrades to the fallback.
    """

    plan: object = None
    inner: object = None
    name: str = field(default="fault-injecting", init=False)

    def __post_init__(self) -> None:
        if self.inner is None:
            self.inner = ExactAssp()
        if self.plan is None:
            raise ValueError("FaultInjectingAssp requires a FaultPlan")

    def __call__(self, g: DiGraph, source: int, eps: float,
                 acc: CostAccumulator | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        d = self.inner(g, source, eps, acc, weights)
        return self.plan.corrupt_assp(d, source)


def _hopset_factory(**kwargs):
    from .hopset import HopsetAssp

    return HopsetAssp(**kwargs)


#: The ASSSP oracle registry — same :class:`~repro.runtime.registry.Registry`
#: machinery as the top-level SSSP engine registry in
#: :mod:`repro.core.engines`.
ASSP_ENGINES = Registry("ASSSP engine")
ASSP_ENGINES.register("exact", ExactAssp)
ASSP_ENGINES.register("perturbed", PerturbedAssp)
ASSP_ENGINES.register("delta-stepping", DeltaSteppingAssp)
ASSP_ENGINES.register("flaky", FlakyAssp)  # repro: noqa[RS013] delegation wrapper: charges through self.inner (an instance attribute the static call graph cannot type); the wrapped oracle carries the charge
ASSP_ENGINES.register("fault-injecting", FaultInjectingAssp)  # repro: noqa[RS013] delegation wrapper: charges through self.inner, same as flaky above
ASSP_ENGINES.register("hopset", _hopset_factory)


def get_engine(name: str, **kwargs):
    """Engine factory: ``exact``, ``perturbed``, ``delta-stepping``,
    ``flaky``, ``fault-injecting``, ``hopset``."""
    return ASSP_ENGINES.create(name, **kwargs)
