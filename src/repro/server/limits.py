"""Backpressure primitives and the gateway's structured error taxonomy.

The gateway promises two things under overload: it never queues without
bound, and every rejection tells the client *why* and *when to retry*.
Both promises live here:

* :class:`GatewayError` and its subclasses — one class per HTTP status the
  gateway can produce, each carrying a stable machine-readable ``code``.
  The JSON error bodies round-trip through
  :func:`repro.io.error_to_dict` / :func:`repro.io.error_from_dict`, so a
  client can rebuild the typed error from a response body.
* :class:`ConcurrencyGate` — bounded concurrency, bounded waiting.  At
  most ``limit`` requests hold the gate at once; at most ``max_pending``
  more may wait.  Anything beyond that is rejected immediately with a 429
  and a ``Retry-After`` hint instead of growing a queue.  The gateway
  uses one with ``limit=workers`` for its worker pool and one per tenant
  with ``limit=1``: a :class:`~repro.service.FlexSession` is a
  synchronous, stateful object, so its requests execute one at a time.

The gate is asyncio-native and lazily creates its semaphore inside the
running loop (construction is therefore loop-free and safe on Python
3.9, where asyncio primitives bind a loop eagerly).
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import Optional

from ..core.errors import FlexError

__all__ = [
    "GatewayError",
    "BadRequestError",
    "UnknownSessionError",
    "NotFoundError",
    "MethodNotAllowedError",
    "SessionExistsError",
    "PayloadTooLargeError",
    "SaturatedError",
    "RegistryFullError",
    "ServiceUnavailableError",
    "StateCorruptedError",
    "InternalError",
    "error_class_for_code",
    "ConcurrencyGate",
    "RETRY_AFTER_S",
]

#: The ``Retry-After`` hint, in seconds, on every 429 and 503.
RETRY_AFTER_S = 0.05


class GatewayError(FlexError):
    """Base of every error the gateway turns into an HTTP response.

    Attributes
    ----------
    status:
        The HTTP status code of the response (class attribute).
    code:
        Stable machine-readable error code, the ``"error"`` field of the
        structured JSON body (class attribute).
    retry_after:
        Optional seconds-until-retry hint; when set, the response carries
        a ``Retry-After`` header (429 responses always set it).
    """

    status: int = 500
    code: str = "internal"

    def __init__(self, detail: str, retry_after: Optional[float] = None) -> None:
        super().__init__(detail)
        self.detail = detail
        self.retry_after = retry_after


class BadRequestError(GatewayError):
    """400 — malformed JSON, an invalid wire payload or bad parameters."""

    status = 400
    code = "bad-request"


class UnknownSessionError(GatewayError):
    """404 — the named session does not exist (or was evicted)."""

    status = 404
    code = "unknown-session"


class NotFoundError(GatewayError):
    """404 — no route matches the request path."""

    status = 404
    code = "not-found"


class MethodNotAllowedError(GatewayError):
    """405 — the route exists but not for this HTTP method."""

    status = 405
    code = "method-not-allowed"


class SessionExistsError(GatewayError):
    """409 — create refused: a session with that name is already live."""

    status = 409
    code = "session-exists"


class PayloadTooLargeError(GatewayError):
    """413 — the request body exceeds the gateway's byte budget."""

    status = 413
    code = "payload-too-large"


class SaturatedError(GatewayError):
    """429 — a bounded queue (global or per-session) is full."""

    status = 429
    code = "saturated"


class RegistryFullError(GatewayError):
    """429 — session cap reached and every session is busy (none evictable)."""

    status = 429
    code = "registry-full"


class ServiceUnavailableError(GatewayError):
    """503 — a required component is degraded (e.g. suspended persistence).

    Raised for operations that *need* the degraded component — an explicit
    checkpoint while the session's WAL is suspended — while regular
    serving continues.  Carries ``retry_after`` so clients back off until
    the circuit breaker re-enables the component.
    """

    status = 503
    code = "degraded"


class StateCorruptedError(GatewayError):
    """503 — the tenant's persisted state exists but cannot be read.

    The tenant is refused, not forgotten and not re-created, until an
    operator repairs its directory; nothing in it is overwritten.  No
    ``Retry-After``: retrying cannot help.
    """

    status = 503
    code = "state-corrupt"


class InternalError(GatewayError):
    """500 — an unexpected failure inside the gateway."""

    status = 500
    code = "internal"


#: ``code -> class`` for rebuilding typed errors from wire payloads: every
#: error class defined above.
_ERRORS_BY_CODE = {cls.code: cls for cls in GatewayError.__subclasses__()}


def error_class_for_code(code: str) -> type:
    """The :class:`GatewayError` subclass for a wire error ``code``.

    Unknown codes map to :class:`GatewayError` itself so a newer server's
    errors still deserialise on an older client.
    """
    return _ERRORS_BY_CODE.get(code, GatewayError)


class ConcurrencyGate:
    """Admission control: bounded concurrency, bounded waiting.

    ``limit`` requests run at once; up to ``max_pending`` more wait for a
    slot.  A request arriving beyond that is refused with
    :class:`SaturatedError` (HTTP 429) carrying :data:`RETRY_AFTER_S` —
    the queue never grows without bound.

    >>> import asyncio
    >>> gate = ConcurrencyGate(limit=1, max_pending=0)
    >>> async def occupied():
    ...     async with gate.admit():
    ...         try:
    ...             async with gate.admit():
    ...                 pass
    ...         except SaturatedError as error:
    ...             return error.status, error.retry_after, gate.busy
    >>> asyncio.run(occupied())
    (429, 0.05, True)
    >>> gate.busy
    False
    """

    def __init__(self, limit: int, max_pending: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        self.limit = limit
        self.max_pending = max_pending
        self.admitted = 0
        self.rejected = 0
        self._running = 0
        self._waiting = 0
        self._semaphore: Optional[asyncio.Semaphore] = None

    @property
    def waiting(self) -> int:
        """Requests currently queued for a slot (always <= ``max_pending``)."""
        return self._waiting

    @property
    def busy(self) -> bool:
        """Whether a request holds the gate or waits for it."""
        return self._running > 0 or self._waiting > 0

    @asynccontextmanager
    async def admit(self):
        """Hold one concurrency slot; 429 instead of unbounded waiting."""
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.limit)
        if self._semaphore.locked():
            if self._waiting >= self.max_pending:
                self.rejected += 1
                raise SaturatedError(
                    f"saturated: {self.limit} in flight, "
                    f"{self._waiting} waiting",
                    retry_after=RETRY_AFTER_S,
                )
            self._waiting += 1
            try:
                await self._semaphore.acquire()
            finally:
                self._waiting -= 1
        else:
            await self._semaphore.acquire()
        self.admitted += 1
        self._running += 1
        try:
            yield
        finally:
            self._running -= 1
            self._semaphore.release()

    def stats(self) -> dict:
        """Admission counters (for ``/healthz`` and the load harness)."""
        return {
            "limit": self.limit,
            "max_pending": self.max_pending,
            "waiting": self._waiting,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }
