"""Certified retries: the Las Vegas recovery loop, made explicit.

Lemma 10 verification plus retry-with-fresh-randomness is part of the
paper's algorithm, not an afterthought.  :class:`RetryPolicy` centralises
the loop every verified randomized stage used to hand-roll: how many
attempts, which seed each attempt uses (attempt 0 keeps the caller's seed
bit-for-bit, so fault-free runs are unchanged; later attempts derive fresh
seeds via :func:`~repro.runtime.rng.derive_seed`), and a per-attempt
telemetry record that ends up either in the result's provenance or inside
the :class:`~repro.resilience.errors.RetryExhaustedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..runtime.rng import derive_seed
from .errors import RetryExhaustedError, VerificationError

# salt separating retry-derived seeds from the per-scale/per-iteration
# seed derivations already used by the scaling loop
_RETRY_SALT = 0x5EED


@dataclass
class AttemptRecord:
    """Telemetry for one attempt of a verified randomized stage."""

    stage: str
    attempt: int
    seed: int
    ok: bool
    error: str | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """How a verified randomized stage retries.

    ``max_attempts`` counts the first try too (``1`` = no retries).
    ``base_seed`` only namespaces the derivation; the per-call seed is
    supplied by the stage.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def attempt_seed(self, seed: int, attempt: int) -> int:
        """Seed for the given attempt: attempt 0 preserves the caller's
        seed exactly (fault-free runs stay bit-for-bit reproducible)."""
        if attempt == 0:
            return int(seed)
        return derive_seed(seed, _RETRY_SALT, attempt)

    def run(self, stage: str, seed: int,
            fn: Callable[[int, int], object],
            log: "list[AttemptRecord] | None" = None) -> object:
        """Run ``fn(attempt, attempt_seed)`` until it returns without a
        :class:`VerificationError`.

        Appends one :class:`AttemptRecord` per attempt to ``log`` (when
        given) and raises :class:`RetryExhaustedError` — carrying the full
        attempt history — once the budget is spent.  Budget/input errors
        propagate immediately: retrying cannot fix them.
        """
        attempts: list[AttemptRecord] = []
        for attempt in range(self.max_attempts):
            aseed = self.attempt_seed(seed, attempt)
            try:
                result = fn(attempt, aseed)
            except RetryExhaustedError as exc:
                # a nested stage already burned its own budget; count it
                # as one failed attempt here and re-randomise above it
                rec = AttemptRecord(stage, attempt, aseed, False,
                                    f"{type(exc).__name__}: {exc}")
            except VerificationError as exc:
                rec = AttemptRecord(stage, attempt, aseed, False,
                                    f"{type(exc).__name__}: {exc}")
            else:
                rec = AttemptRecord(stage, attempt, aseed, True)
                attempts.append(rec)
                if log is not None:
                    log.extend(attempts)
                return result
            attempts.append(rec)
        if log is not None:
            log.extend(attempts)
        raise RetryExhaustedError(
            f"stage {stage!r} failed verification on all "
            f"{self.max_attempts} attempts",
            stage=stage, attempts=attempts)


@dataclass
class SolveProvenance:
    """How a resilient solve actually got its answer.

    ``engine`` is the registry name of the engine that answered
    (``"goldberg_parallel"`` unless the call named another) and
    ``"fallback:bellman_ford"`` when graceful degradation kicked in;
    ``fallback_reason`` then explains why (retry exhaustion, budget, or a
    worker-pool failure past the last ladder rung).  ``attempts`` is the
    flat attempt log across stages; ``faults`` is the injected-fault
    summary when a :class:`FaultPlan` was active.

    The execution-backend fields record the *substrate* story: ``backend``
    is the rung that ultimately executed (``None`` for classic in-process
    execution), ``demotions`` the degradation-ladder rung changes, and
    ``worker_losses`` every worker death/hang absorbed on the way — each
    as the ``to_json()`` dict of the corresponding
    :mod:`repro.runtime.backends` record, so provenance stays a plain
    JSON-serialisable object.
    """

    engine: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    fallback_reason: str | None = None
    faults: dict | None = None
    backend: str | None = None
    demotions: list[dict] = field(default_factory=list)
    worker_losses: list[dict] = field(default_factory=list)

    @property
    def retries(self) -> int:
        return sum(1 for a in self.attempts if not a.ok)

    @property
    def used_fallback(self) -> bool:
        return self.engine.startswith("fallback:")

    @staticmethod
    def backend_marks(backend) -> tuple[int, int]:
        """Demotion and worker-loss counts of ``backend``'s telemetry."""
        t = getattr(backend, "telemetry", dict)()
        return len(t.get("demotions", ())), len(t.get("worker_losses", ()))

    def record_backend(self, backend, since: tuple[int, int]) -> None:
        """Fold in a backend's telemetry past ``since``, its
        :meth:`backend_marks` at the solve's entry (only the name for a
        plain pool without ``telemetry()``)."""
        t = getattr(backend, "telemetry", dict)()
        self.backend = t.get("backend", getattr(backend, "name", None))
        self.demotions.extend(t.get("demotions", ())[since[0]:])
        self.worker_losses.extend(t.get("worker_losses", ())[since[1]:])

    def to_json(self) -> dict:
        """The provenance as one JSON-serialisable dict (the chaos CI
        job uploads a list of these as its artifact)."""
        return {
            "engine": self.engine,
            "fallback_reason": self.fallback_reason,
            "retries": self.retries,
            "attempts": [
                {"stage": a.stage, "attempt": a.attempt, "seed": a.seed,
                 "ok": a.ok, "error": a.error} for a in self.attempts],
            "faults": self.faults,
            "backend": self.backend,
            "demotions": list(self.demotions),
            "worker_losses": list(self.worker_losses),
        }
