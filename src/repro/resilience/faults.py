"""Deterministic fault-injection plane.

A :class:`FaultPlan` in :func:`fault_scope` is read at the solver's hook
points so tests can *prove* that every verifier catches the fault class it
owns, that retries heal transient faults, and that persistent faults
degrade to the deterministic fallback:

========== ============================== ================================
site       hook point                     verifier that must catch it
========== ============================== ================================
assp       ``assp.engines`` (engine wrap  §4.2 Lemma-10 check in
           inside ``limited.limited``)    ``limited.verify``
priorities ``dag01.peeling`` after the    priority-contract check in
           §3.1 geometric draw            ``dag01_limited_sssp``
price      ``core.improvement`` on the    τ-improvement properties
           returned price delta           (``core.price``) in
                                          ``core.goldberg``
potential  ``core.engines`` (the tail)    ``is_feasible_price`` in the
           on the final potential         tail's certificate check
========== ============================== ================================

Every decision a plan makes is a pure function of its seed and its
per-site call counters, so a fixed seed reproduces the exact same fault
schedule — retries advance the counters, which is what lets "fault on the
k-th call" heal under retry.  All corruptions preserve type/shape
invariants (they never crash the host stage); *detection* is the
verifiers' job.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass

import numpy as np

from ..runcontext import current_context, run_scope
from ..runtime.rng import derive_seed, make_rng

# corruption sites: fire in-process, corrupt a value, a verifier catches it
CORRUPTION_SITES = ("assp", "priorities", "price", "potential")
# systemic sites: fire *inside worker processes* of the process backend —
# they attack the execution substrate, not the data, and the recovery
# machinery (liveness timeouts, re-dispatch, the degradation ladder) is
# what must absorb them
SYSTEMIC_SITES = ("worker_kill", "worker_hang", "result_drop")
SITES = CORRUPTION_SITES  # historical alias: the in-process site tuple
ALL_SITES = CORRUPTION_SITES + SYSTEMIC_SITES

# namespaces worker-fault decisions away from retry/scale seed derivations
_SYSTEMIC_SALT = 0x51D3


@dataclass(frozen=True)
class FaultSpec:
    """When the fault at ``site`` fires.

    ``calls`` — 1-based call indices that fire (``None`` = every call);
    for systemic sites the "call index" is the block's 1-based dispatch
    attempt; ``rate`` — firing probability on a matching call (drawn from
    the plan's seeded rng for corruption sites, derived purely from
    ``(seed, site, block, attempt)`` for systemic sites — deterministic
    either way).
    """

    site: str
    calls: tuple[int, ...] | None = None
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {ALL_SITES}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")


@dataclass(frozen=True)
class WorkerFaults:
    """The systemic slice of a :class:`FaultPlan`, in picklable form.

    Shipped to worker processes with each dispatch of
    :class:`~repro.runtime.backends.ProcessForkJoinPool`.
    Decisions are *pure* functions of ``(seed, site, block lo, dispatch
    attempt)`` — no shared rng stream, no counters — so the parent can
    recompute exactly which faults fired without a message from a worker
    that may be dead, and a re-dispatched block (higher ``attempt``)
    rolls fresh dice: persistent kill-every-attempt faults need
    ``rate=1.0``, probabilistic chaos heals under re-dispatch.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        for s in self.specs:
            if s.site not in SYSTEMIC_SITES:
                raise ValueError(
                    f"{s.site!r} is not a systemic site; "
                    f"choose from {SYSTEMIC_SITES}")

    def fires(self, site: str, lo: int, attempt: int) -> bool:
        """Does ``site`` fire for the block starting at ``lo`` on its
        ``attempt``-th (1-based) dispatch?"""
        spec = next((s for s in self.specs if s.site == site), None)
        if spec is None:
            return False
        if spec.calls is not None and attempt not in spec.calls:
            return False
        if spec.rate >= 1.0:
            return True
        rng = make_rng(derive_seed(self.seed, _SYSTEMIC_SALT,
                                   SYSTEMIC_SITES.index(site), lo, attempt))
        return bool(rng.random() < spec.rate)


@dataclass
class FaultEvent:
    """One fired fault, recorded for provenance."""

    site: str
    call: int
    detail: str


class FaultPlan:
    """A deterministic schedule of injected faults.

    Hook usage is one line per site, e.g.::

        pri = plan.perturb_priorities(pri)   # no-op unless it fires
    """

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]" = (),
                 seed: int = 0) -> None:
        self.specs = {s.site: s for s in specs}
        self.seed = int(seed)
        self._rng = make_rng(seed)
        self.calls = {site: 0 for site in ALL_SITES}
        self.events: list[FaultEvent] = []

    # -- construction shorthands ---------------------------------------
    @classmethod
    def always(cls, *sites: str, seed: int = 0) -> "FaultPlan":
        """Fire on every call of each named site (persistent fault)."""
        return cls([FaultSpec(s) for s in (sites or SITES)], seed=seed)

    @classmethod
    def on_calls(cls, site: str, *calls: int, seed: int = 0) -> "FaultPlan":
        """Fire only on the given 1-based call indices of ``site``."""
        return cls([FaultSpec(site, calls=tuple(int(c) for c in calls))],
                   seed=seed)

    @classmethod
    def with_rate(cls, rate: float, sites: "tuple[str, ...]" = SITES,
                  seed: int = 0) -> "FaultPlan":
        """Fire each matching call independently with probability ``rate``."""
        return cls([FaultSpec(s, rate=rate) for s in sites], seed=seed)

    # -- bookkeeping ----------------------------------------------------
    def reset(self) -> None:
        """Restart counters, rng and event log (fresh schedule)."""
        self._rng = make_rng(self.seed)
        self.calls = {site: 0 for site in ALL_SITES}
        self.events = []

    def fired(self, site: str | None = None) -> int:
        if site is None:
            return len(self.events)
        return sum(1 for e in self.events if e.site == site)

    def summary(self) -> dict:
        return {"calls": dict(self.calls),
                "fired": {s: self.fired(s) for s in ALL_SITES}}

    # -- systemic slice (worker-process faults) -------------------------
    def systemic(self, hang_seconds: float = 30.0) -> "WorkerFaults | None":
        """The plan's systemic specs as a picklable :class:`WorkerFaults`
        (``None`` when the plan has none), for shipping into worker
        processes."""
        specs = tuple(s for site, s in self.specs.items()
                      if site in SYSTEMIC_SITES)
        if not specs:
            return None
        return WorkerFaults(seed=self.seed, specs=specs,
                            hang_seconds=hang_seconds)

    def note_worker_dispatch(self, lo: int, hi: int, attempt: int) -> None:
        """Parent-side mirror of one block dispatch: recompute which
        systemic faults fire for ``(lo, attempt)`` (the decisions are
        pure, so this matches the worker exactly) and record them as
        :class:`FaultEvent`\\ s — the worker that acts on the fault may
        be dead or wedged and can never report back."""
        wf = self.systemic()
        if wf is None:
            return
        for site in SYSTEMIC_SITES:
            if site not in self.specs:
                continue
            self.calls[site] += 1
            if wf.fires(site, lo, attempt):
                self.events.append(FaultEvent(
                    site, attempt,
                    f"block [{lo}, {hi}) dispatch attempt {attempt}"))

    def _fires(self, site: str, detail: str) -> bool:
        self.calls[site] += 1
        spec = self.specs.get(site)
        if spec is None:
            return False
        call = self.calls[site]
        if spec.calls is not None and call not in spec.calls:
            return False
        if spec.rate < 1.0 and self._rng.random() >= spec.rate:
            return False
        self.events.append(FaultEvent(site, call, detail))
        return True

    # -- corruption hooks ----------------------------------------------
    def corrupt_assp(self, dist: np.ndarray, source: int) -> np.ndarray:
        """Inflate a random subset of finite ASSSP estimates far past any
        ``(1+ε)`` bound (and past the initial ``2D`` bucketing window), so
        downstream interval assignment and finalisation go wrong.  Never
        touches the source and never *under*-estimates, mirroring the only
        failure the Cao et al. contract allows."""
        if not self._fires("assp", "inflated distance estimates"):
            return dist
        d = np.asarray(dist, dtype=np.float64).copy()
        finite = np.isfinite(d)
        finite[source] = False
        if not finite.any():
            return d
        victims = finite & (self._rng.random(len(d)) < 0.5)
        if not victims.any():       # guarantee at least one victim
            victims[np.flatnonzero(finite)[0]] = True
        bump = float(d[finite].max()) * 8.0 + 64.0
        d[victims] = np.ceil(d[victims] * 2.0 + bump)
        return d

    def perturb_priorities(self, pri: np.ndarray) -> np.ndarray:
        """Push a random vertex's peeling priority out of the §3.1 contract
        (priorities must be ≥ 1), which the peeling front-end rejects."""
        if not self._fires("priorities", "priority forced to 0"):
            return pri
        out = np.asarray(pri, dtype=np.int64).copy()
        if len(out) == 0:
            return out
        victim = int(self._rng.integers(len(out)))
        out[victim] = 0
        return out

    def corrupt_price_delta(self, src: np.ndarray, dst: np.ndarray,
                            w_red: np.ndarray,
                            delta: np.ndarray) -> np.ndarray:
        """Off-by-one a price update so some reduced weight drops below −1,
        violating τ-improvement validity (property 1 in ``core.price``)."""
        if not self._fires("price", "price delta off by one"):
            return delta
        out = np.asarray(delta, dtype=np.int64).copy()
        hop = np.flatnonzero(src != dst)
        if len(hop) == 0:
            return out
        # pick the edge whose reduced weight is already smallest — bumping
        # its head's price by one pushes it to < −1 for sure
        after = w_red[hop] + out[src[hop]] - out[dst[hop]]
        e = int(hop[np.argmin(after)])
        out[dst[e]] += int(after[np.argmin(after)]) + 2
        return out

    def corrupt_potential(self, src: np.ndarray, dst: np.ndarray,
                          w: np.ndarray, price: np.ndarray) -> np.ndarray:
        """Make a claimed-feasible potential infeasible: raise one head
        price until its incoming reduced weight goes negative."""
        if not self._fires("potential", "potential made infeasible"):
            return price
        out = np.asarray(price, dtype=np.int64).copy()
        hop = np.flatnonzero(src != dst)
        if len(hop) == 0:
            return out
        reduced = w[hop] + out[src[hop]] - out[dst[hop]]
        e = int(hop[np.argmin(reduced)])
        out[dst[e]] += int(reduced[np.argmin(reduced)]) + 1
        return out


def current_fault_plan() -> FaultPlan | None:
    """The plan installed by the innermost :func:`fault_scope`, if any."""
    return current_context().fault_plan


def fault_scope(plan: FaultPlan | None) -> AbstractContextManager:
    """Install ``plan`` as the ambient fault plan for the enclosed block;
    yields ``plan``.  ``None`` keeps the outer plan, as in
    :func:`~repro.resilience.preempt.cancel_scope`."""
    return nullcontext() if plan is None else run_scope(fault_plan=plan)
