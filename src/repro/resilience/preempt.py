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

A check point calls :func:`check_cancelled` on the ambient token, the
token field of the run context: only the solve entry points take
``token=``, and ``_PotentialEngine.solve`` installs it with
:func:`cancel_scope` around its whole body.  A tripped token raises
:class:`~repro.resilience.errors.DeadlineExceededError` past its deadline
and :class:`~repro.resilience.errors.CancelledError` when cancelled
explicitly.  Nothing is ever interrupted asynchronously: state is always
consistent when the exception fires, which is what makes phase-level
checkpoints (:mod:`.checkpoint`) safe to write right before each check.

The module is import-light by design (stdlib, :mod:`.errors` and
:mod:`repro.runcontext` only) so the runtime layer can import it without
cycles.
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
    stays cancelled.  A token that :func:`make_token` linked to a
    caller's token also trips when that token does.
    """

    __slots__ = ("deadline", "_cancelled", "_reason", "_lock", "_link")

    def __init__(self, deadline: Deadline | None = None) -> None:
        self.deadline = deadline
        self._cancelled = False
        self._reason: str | None = None
        self._lock = threading.Lock()
        self._link: CancelToken | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; idempotent (first reason wins)."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    def _cancelled_by(self) -> CancelToken | None:
        """This token or its link, whichever was cancelled explicitly."""
        if self._cancelled:
            return self
        return None if self._link is None else self._link._cancelled_by()

    def _expired(self) -> bool:
        """Whether this token's deadline, or its link's, has passed."""
        if self.deadline is not None and self.deadline.expired():
            return True
        return self._link is not None and self._link._expired()

    @property
    def cancelled(self) -> bool:
        """True once cancelled explicitly or past the deadline."""
        return self._cancelled_by() is not None or self._expired()

    @property
    def reason(self) -> str | None:
        by = self._cancelled_by()
        if by is not None:
            return by._reason
        return "deadline" if self._expired() else None

    def remaining(self) -> float | None:
        """Seconds until the earliest deadline this token trips on (its
        own or its link's); None when it has none."""
        own = None if self.deadline is None else self.deadline.remaining()
        up = None if self._link is None else self._link.remaining()
        return min((t for t in (own, up) if t is not None), default=None)

    def check(self, where: str | None = None) -> None:
        """Raise if this token has tripped; no-op otherwise.

        Explicit cancellation wins over the deadline when both hold, so a
        caller-initiated stop is never misreported as a timeout.
        """
        by = self._cancelled_by()
        if by is not None:
            raise CancelledError(
                f"solve cancelled ({by._reason})"
                + (f" at {where}" if where else ""),
                where=where, reason=by._reason)
        if self._expired():
            raise DeadlineExceededError(
                "deadline exceeded" + (f" at {where}" if where else ""),
                where=where, reason="deadline")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CancelToken(cancelled={self.cancelled}, "
                f"reason={self.reason!r})")


# ---------------------------------------------------------------------------
# ambient token: the one channel by which a token reaches the code below
# the solve entry points
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
    With one, the result is a fresh token that trips on the deadline or
    on whatever trips ``token``; the caller's token is never changed.
    Without one, ``token`` comes back as it is (``None`` when neither is
    given, keeping the hot path free).
    """
    if deadline is None:
        return token
    if not isinstance(deadline, Deadline):
        deadline = Deadline.after(float(deadline))
    linked = CancelToken(deadline)
    linked._link = token
    return linked


__all__ = [
    "Deadline",
    "CancelToken",
    "current_token",
    "check_cancelled",
    "cancel_scope",
    "make_token",
]
