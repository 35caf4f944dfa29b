"""Algorithm 4 — the 1-reweighting loop (§5).

Given integer weights ≥ −1, repeatedly apply √k-improvements until no
negative vertices remain; each iteration eliminates ≥ ⌈√k⌉ of the ``k``
remaining negative vertices, so the loop ends within ``O(√K)`` iterations
(``K`` the initial count).  Returns a feasible price function or a
negative-cycle certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights
from ..resilience.errors import (
    InputValidationError,
    RetryExhaustedError,
    VerificationError,
)
from ..observability.tracer import trace_span
from ..resilience.guard import Meter, current_guard
from ..resilience.preempt import check_cancelled
from ..resilience.retry import AttemptRecord, RetryPolicy
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.rng import derive_seed
from .improvement import sqrt_k_improvement
from .price import count_negative_vertices, is_valid_improvement


@dataclass
class ReweightingStats:
    """Per-iteration telemetry of one 1-reweighting run (experiment E8)."""

    k_trajectory: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    improved: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.methods)


@dataclass
class ReweightingResult:
    """Feasible price function or negative cycle, plus telemetry."""

    price: np.ndarray | None
    negative_cycle: list[int] | None
    stats: ReweightingStats
    cost: Cost

    @property
    def feasible(self) -> bool:
        return self.price is not None


def one_reweighting(g: DiGraph, weights: np.ndarray | None = None, *,
                    mode: str = "parallel", assp_engine=None,
                    eps: float = 0.2, seed=0,
                    acc: CostAccumulator | None = None,
                    max_iterations: int | None = None,
                    retry_policy: RetryPolicy | None = None
                    ) -> ReweightingResult:
    """Solve the 1-reweighting problem (all weights ≥ −1).

    ``max_iterations`` is a safety valve (default ``4·(√n + 2)``, far above
    the ``O(√K)`` bound); exceeding it raises
    :class:`~repro.resilience.errors.RetryExhaustedError`.

    Every √k-improvement is a verified randomized stage: its price delta
    must satisfy the τ-improvement validity/monotonicity properties
    (``core.price.is_valid_improvement``) before it is applied.  A delta
    that fails — possible with a faulty nested stage or an injected
    ``"price"`` fault — is retried with a fresh derived seed under
    ``retry_policy``; the ambient budget guard is ticked once per
    iteration (:func:`~repro.resilience.guard.current_guard`).  The
    ambient cancel token (:func:`~repro.resilience.preempt.check_cancelled`)
    is checked at every iteration boundary, making long improvement loops
    preemptible between — never inside — verified price updates.
    """
    w0 = _aligned_weights(g, weights)
    if g.m and w0.min() < -1:
        raise InputValidationError("1-reweighting requires weights >= -1")
    if max_iterations is None:
        max_iterations = 4 * (int(np.sqrt(g.n)) + 2)
    policy = retry_policy or RetryPolicy(max_attempts=3)
    local = CostAccumulator()
    meter = Meter(current_guard(), local)
    price = np.zeros(g.n, dtype=np.int64)
    stats = ReweightingStats()
    attempt_log: list[AttemptRecord] = []
    with trace_span("reweighting", acc=local, phase="reweighting",
                    n=g.n, m=g.m) as rwsp:
        for it in range(max_iterations):
            check_cancelled("reweighting:iteration")
            w_red = w0 + price[g.src] - price[g.dst] if g.m else w0
            local.charge(*model.map_ws(g.m))
            k_now = count_negative_vertices(g, w_red)
            if k_now == 0:
                break

            def _attempt(attempt: int, aseed: int,
                         w_red: np.ndarray = w_red) -> "ImprovementOutcome":
                out = sqrt_k_improvement(g, w_red, mode=mode,
                                         assp_engine=assp_engine, eps=eps,
                                         seed=aseed, acc=local,
                                         retry_policy=retry_policy)
                if out.price_delta is not None:
                    local.charge(*model.map_ws(g.m))
                    if not is_valid_improvement(g, w_red, out.price_delta):
                        raise VerificationError(
                            "price delta violates the τ-improvement "
                            f"properties (method={out.method!r}, "
                            f"iteration {it})",
                            stage="sqrt_k_improvement")
                return out

            with trace_span("reweighting-iteration", acc=local,
                            phase="reweighting", iteration=it,
                            k=k_now) as isp:
                outcome = policy.run("sqrt_k_improvement",
                                     derive_seed(seed, it),
                                     _attempt, log=attempt_log)
                meter.tick()
                stats.k_trajectory.append(k_now)
                stats.methods.append(outcome.method)
                stats.improved.append(outcome.improved)
                isp.set(method=outcome.method, improved=outcome.improved,
                        negative_cycle=outcome.negative_cycle is not None)
                if outcome.negative_cycle is not None:
                    if acc is not None:
                        acc.charge_cost(local.snapshot())
                        acc.merge_stages_from(local)
                    return ReweightingResult(None, outcome.negative_cycle,
                                             stats, local.snapshot())
                price = price + outcome.price_delta
                local.charge(*model.map_ws(g.n))
        else:
            raise RetryExhaustedError(
                "1-reweighting exceeded its iteration budget — this "
                "indicates an improvement that made no progress "
                "(please report)",
                stage="one_reweighting", attempts=attempt_log)
        rwsp.set(iterations=stats.iterations)
    if acc is not None:
        acc.charge_cost(local.snapshot())
        acc.merge_stages_from(local)
    return ReweightingResult(price, None, stats, local.snapshot())
