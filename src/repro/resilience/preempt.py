"""Cooperative preemption: deadlines and cancellation tokens.

The scaling loop is a long sequence of phases, each of which can take
seconds on production-sized graphs.  This module provides the two small
objects that make such solves *preemptible* without threads being killed
mid-write:

* :class:`Deadline` — a wall-clock (monotonic) budget with an injectable
  clock, so tests can step time deterministically;
* :class:`CancelToken` — a thread-safe flag checked cooperatively at
  phase boundaries (scale levels, reweighting iterations) and inside
  every backend's :meth:`~repro.runtime.executor.BlockPool.map_blocks`
  (at entry, before each block, and at the join).

A check point calls :meth:`CancelToken.check`, which raises
:class:`~repro.resilience.errors.DeadlineExceededError` when the token's
deadline has expired and :class:`~repro.resilience.errors.CancelledError`
when the token was cancelled explicitly.  Nothing is ever interrupted
asynchronously: state is always consistent when the exception fires,
which is what makes phase-level checkpoints (:mod:`.checkpoint`) safe to
write right before each check.

The module is import-light by design (stdlib, :mod:`.errors` and
:mod:`repro.runcontext` only) so the runtime layer can import it without
cycles.  ``current_token`` / ``cancel_scope`` give deep primitives access
to the active token — the token field of the run context — without
threading a parameter through every call signature.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import AbstractContextManager, nullcontext
from typing import Callable

from ..runcontext import current_context, run_scope
from .errors import CancelledError, DeadlineExceededError, InputValidationError


class Deadline:
    """A monotonic point in time after which a solve must stop.

    ``clock`` is any zero-argument callable returning seconds (default
    :func:`time.monotonic`); tests inject a manual clock to expire
    deadlines at exact phase boundaries.  Deadlines are immutable.
    """

    __slots__ = ("expires_at", "clock")

    def __init__(self, expires_at: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.expires_at = float(expires_at)
        if math.isnan(self.expires_at):
            # no clock reading compares >= NaN: it would never expire
            raise InputValidationError("deadline must not be NaN")
        self.clock = clock

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """Deadline ``seconds`` from now on ``clock`` (``inf``: never).

        Negative or NaN ``seconds`` raise :class:`InputValidationError`
        (a ``ValueError``).
        """
        if not seconds >= 0:
            raise InputValidationError(
                f"deadline must be nonnegative seconds away, got {seconds}")
        return cls(clock() + float(seconds), clock)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(self.expires_at - self.clock(), 0.0)

    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3g}s)"


class CancelToken:
    """Cooperative cancellation flag, optionally bound to a deadline.

    Thread-safe: any thread may :meth:`cancel`; workers observe it at
    their next :meth:`check`.  A token trips for exactly one of two
    reasons — explicit cancellation (``CancelledError``) or deadline
    expiry (``DeadlineExceededError``); once cancelled explicitly it
    stays cancelled.
    """

    __slots__ = ("deadline", "_cancelled", "_reason", "_lock")

    def __init__(self, deadline: Deadline | None = None) -> None:
        self.deadline = deadline
        self._cancelled = False
        self._reason: str | None = None
        self._lock = threading.Lock()

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; idempotent (first reason wins)."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def cancelled(self) -> bool:
        """True once cancelled explicitly or past the deadline."""
        return self._cancelled or (
            self.deadline is not None and self.deadline.expired())

    @property
    def reason(self) -> str | None:
        if self._cancelled:
            return self._reason
        if self.deadline is not None and self.deadline.expired():
            return "deadline"
        return None

    def check(self, where: str | None = None) -> None:
        """Raise if this token has tripped; no-op otherwise.

        Explicit cancellation wins over the deadline when both hold, so a
        caller-initiated stop is never misreported as a timeout.
        """
        if self._cancelled:
            raise CancelledError(
                f"solve cancelled ({self._reason})"
                + (f" at {where}" if where else ""),
                where=where, reason=self._reason)
        if self.deadline is not None and self.deadline.expired():
            raise DeadlineExceededError(
                "deadline exceeded" + (f" at {where}" if where else ""),
                where=where, reason="deadline")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CancelToken(cancelled={self.cancelled}, "
                f"reason={self.reason!r})")


# ---------------------------------------------------------------------------
# ambient token: lets leaf primitives honour cancellation without every
# algorithm signature growing a ``token=`` parameter
# ---------------------------------------------------------------------------

def current_token() -> CancelToken | None:
    """The token installed by the innermost :func:`cancel_scope`, if any."""
    return current_context().token


def check_cancelled(where: str | None = None) -> None:
    """Check the ambient token (cheap no-op when none is installed)."""
    tok = current_context().token
    if tok is not None:
        tok.check(where)


def cancel_scope(token: CancelToken | None) -> AbstractContextManager:
    """Install ``token`` as the ambient token for the enclosed block;
    yields ``token``.  ``None`` keeps the outer token, so call sites stay
    one-liners: ``with cancel_scope(token): ...``."""
    return nullcontext() if token is None else run_scope(token=token)


def make_token(deadline: "Deadline | float | None" = None,
               token: CancelToken | None = None) -> CancelToken | None:
    """Normalise the public ``deadline=``/``token=`` kwargs to one token.

    ``deadline`` may be a :class:`Deadline` or plain seconds-from-now.
    When both a token and a deadline are given, the deadline is attached
    to the caller's token (which must not already carry a different one).
    Returns ``None`` when neither is given, keeping the hot path free.
    """
    if deadline is None:
        return token
    if not isinstance(deadline, Deadline):
        deadline = Deadline.after(float(deadline))
    if token is None:
        return CancelToken(deadline)
    if token.deadline is not None and token.deadline is not deadline:
        raise ValueError("token already carries a different deadline")
    token.deadline = deadline
    return token


__all__ = [
    "Deadline",
    "CancelToken",
    "current_token",
    "check_cancelled",
    "cancel_scope",
    "make_token",
]
