"""The asyncio HTTP/JSON gateway in front of the session registry.

This is the "millions of users" front door the ROADMAP asks for: one
process, one event loop, many isolated tenants.  The stack is stdlib
only — ``asyncio.start_server`` plus a deliberately minimal HTTP/1.1
parser (request line, headers, ``Content-Length`` bodies, keep-alive) —
because the wire format is the point, not the web framework: every body
is a kind-tagged :mod:`repro.io` JSON document, so the whole service
surface (requests, results, stream events, errors) round-trips through
the same serialisation layer the library already tests.

Request path
------------
``POST /sessions/{name}/requests`` maps the body through
:func:`~repro.io.request_from_dict` →
:meth:`~repro.service.FlexSession.submit` →
:func:`~repro.io.result_envelope`, the :func:`~repro.io.result_to_dict`
document with a schedule's assignments left out of the dictionary tree:
the encoder (:func:`~repro.io.payload_json`) writes each one as text from
its offer's cached wire text, so a large schedule never builds a
dictionary per assignment (nor, when the schedule is packed, an
assignment).  Sessions are synchronous objects, so
the submit runs on a worker-thread pool via ``loop.run_in_executor`` —
safe because backend activation is thread-local (the PR 5 dispatch fix):
each worker thread activates only the serving session's backend.
Admission is gated twice before the pool is touched, by two
:class:`~repro.server.limits.ConcurrencyGate` instances: first the
tenant's own (``limit=1``), which serialises one session's requests
behind a bounded queue, then the gateway's (``limit=workers``), which
bounds in-flight work.  A request waiting behind its own tenant therefore
holds no worker slot.  Saturation of either returns 429 with
``Retry-After``.  Every request on a session (create, submit, stats,
checkpoint) takes both gates and holds them until it returns, so no two
run inside one session at once.

A submit to a ``live`` tenant whose last request of the same type took
at most one thread switch interval (``sys.getswitchinterval()``) of CPU
time, with a body at least as large, runs on the loop thread instead, still inside
both gates, and counts in ``inline``: while a worker holds the GIL the
loop already waits that long, and the two thread crossings of the pool
path cost more than such a request.  Streams that change the population
or fsync, tenants whose live population has reached their
``shard_min_population``, every request under a fault plan (the
gateway's or the tenant's), and every open and close keep the pool.

Tenant lifecycle
----------------
The tenant's gate also owns its session's life (see
:mod:`repro.server.registry` for the states).  On the loop the gateway
only looks up, checks and inserts entries; it never builds or closes a
:class:`~repro.service.FlexSession`.  A tenant's first request — its
``PUT``, or the first request after a restart or an eviction — builds
the session on a worker, inside both gates, before the request's own
work, so concurrent first requests queue on one entry and one of them
recovers it.  ``DELETE``, LRU eviction and the idle sweep close the
session on a worker in the tenant's turn on its own gate (the worker
gate never refuses a close), so a close waits for the running and queued
requests and never closes a session a worker is inside.  A request that
queued behind a close looks the name up again once the close has
finished, like a request that arrives after it.

Routes
------
====== ================================ =======================================
Method Path                             Meaning
====== ================================ =======================================
GET    ``/healthz``                     Gateway counters and queue depths
GET    ``/sessions``                    Registered session names (LRU order)
PUT    ``/sessions/{name}``             Create a tenant (optional config body)
GET    ``/sessions/{name}``             One tenant's stats block
DELETE ``/sessions/{name}``             Evict (close) a tenant
POST   ``/sessions/{name}/requests``    Serve one service request
POST   ``/sessions/{name}/checkpoint``  Snapshot a durable tenant now
====== ================================ =======================================

With ``persist_root`` configured every tenant is durable: stream events
hit a per-tenant write-ahead log, eviction checkpoints before closing,
and a request for a tenant that is not live but left persisted state
lazily recovers it — restart the gateway on the same ``persist_root``
and tenants simply come back, paying a snapshot-plus-tail replay on
their first request instead of a cold start.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from ..core.errors import FlexError, SerializationError
from ..faults.plan import GATEWAY_DISPATCH, FaultPlan
from ..io.csv_io import RequestStatsLog
from ..io.serialization import (
    error_to_dict,
    payload_json,
    request_from_dict,
    result_envelope,
    result_to_dict,  # noqa: F401 - unused here; gatewaybench/tracing.py wraps it by name
)
from ..persist import PersistenceSuspendedError, StateCorruptError
from ..service.config import ServiceError, SessionConfig, fault_plan_from_env
from ..service.requests import StreamRequest
from ..stream.events import Tick
from .limits import (
    RETRY_AFTER_S,
    BadRequestError,
    ConcurrencyGate,
    GatewayError,
    InternalError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    ServiceUnavailableError,
    StateCorruptedError,
    UnknownSessionError,
)
from .registry import LIVE, OPENING, REMOVED, SessionEntry, SessionRegistry

__all__ = ["GatewayConfig", "Response", "Gateway", "GatewayServer", "serve"]

#: Reason phrases for the statuses the gateway produces.
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _reshapes(stream: StreamRequest) -> bool:
    """Whether ``stream`` changes the live population: any event but a
    ``Tick``, which every request's cost then follows."""
    return not all(isinstance(event, Tick) for event in stream.events)


def _reject_constant(name: str):
    """Decoder hook refusing the non-standard ``NaN``/``Infinity``."""
    raise ValueError(f"{name} is not valid JSON")


#: Strict JSON for every inbound body, built once.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _gateway_error(failure: Exception) -> GatewayError:
    """The structured error a failed request is answered with."""
    if isinstance(failure, GatewayError):
        return failure
    if isinstance(failure, PersistenceSuspendedError):
        # Ahead of the FlexError test: a suspended WAL is a *server*
        # condition, not a client mistake.  Only operations that need the
        # degraded component (an explicit checkpoint) land here; regular
        # serving continues, so the client tries again after the circuit
        # breaker's next probe.
        return ServiceUnavailableError(str(failure), retry_after=RETRY_AFTER_S)
    if isinstance(failure, StateCorruptError):
        # Also ahead of it: a tenant whose persisted state cannot be read
        # is refused, not a client mistake.
        return StateCorruptedError(str(failure))
    if isinstance(failure, (SerializationError, ServiceError, FlexError)):
        # Library-level rejections of a well-formed HTTP request:
        # malformed wire payloads, unknown schedulers, invalid
        # flex-offers — all client mistakes, all 400s.
        return BadRequestError(str(failure))
    return InternalError(f"{type(failure).__name__}: {failure}")


@dataclass(frozen=True)
class GatewayConfig:
    """Everything the gateway needs, in one frozen value object.

    Parameters
    ----------
    host, port:
        TCP bind address for :func:`serve` (``port=0`` picks a free one).
        The in-process transport ignores both.
    max_sessions, idle_ttl:
        :class:`~repro.server.SessionRegistry` capacity cap and idle-TTL
        expiry (seconds; ``None`` disables expiry).
    max_pending:
        Global admission: requests that may wait for one of the
        ``workers`` slots before 429s start.  Default: ``32 * workers``.
    session_queue_depth:
        Per-tenant bounded queue depth (requests waiting behind the one
        executing before 429s start).
    max_body_bytes:
        Largest accepted request body (413 beyond it).
    workers:
        Worker-thread pool size.  Default: ``min(32, cpu_count + 4)``.
    session_defaults:
        The tenants' :class:`~repro.service.SessionConfig`; a ``PUT`` body
        is merged over it.
    persist_root:
        Directory under which each tenant persists (WAL + snapshots) as
        ``<persist_root>/<name>``; enables lazy recovery after restarts.
        ``None`` (the default) keeps every session in-memory only.
    access_log:
        Path or open text handle receiving one CSV
        :class:`~repro.service.RequestStats` row per served request
        (through the concurrency-safe :class:`~repro.io.RequestStatsLog`
        appender); ``None`` disables the access log.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` (or its JSON/dict spec) fired
        at the gateway's own ``gateway.dispatch`` site before every submit
        on a worker — the chaos knob for the HTTP layer itself, independent
        of any per-session plan.  ``None`` resolves ``REPRO_FAULTS`` from
        the environment.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 4096
    idle_ttl: Optional[float] = None
    max_pending: Optional[int] = None
    session_queue_depth: int = 8
    max_body_bytes: int = 8 * 1024 * 1024
    workers: Optional[int] = None
    session_defaults: Optional[SessionConfig] = None
    access_log: Optional[Union[str, Path, Any]] = None
    persist_root: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        import os

        if self.workers is None:
            object.__setattr__(
                self, "workers", min(32, (os.cpu_count() or 1) + 4)
            )
        if self.max_pending is None:
            object.__setattr__(self, "max_pending", 32 * self.workers)
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.persist_root is not None and not isinstance(
            self.persist_root, str
        ):
            object.__setattr__(self, "persist_root", str(self.persist_root))
        if self.fault_plan is None:
            object.__setattr__(self, "fault_plan", fault_plan_from_env())
        elif not isinstance(self.fault_plan, FaultPlan):
            try:
                object.__setattr__(
                    self, "fault_plan", FaultPlan.from_spec(self.fault_plan)
                )
            except ValueError as error:
                raise ValueError(f"invalid fault_plan: {error}") from error


@dataclass(frozen=True)
class Response:
    """One gateway response: status, JSON payload, optional retry hint."""

    status: int
    payload: dict
    retry_after: Optional[float] = None

    def encode(self, close: bool = False) -> bytes:
        """The full HTTP/1.1 response bytes for this payload.

        The body is :func:`~repro.io.payload_json`: strict JSON, in which
        non-finite floats anywhere in the payload (a window summary over
        an infinite measure value, say) leave as the
        :func:`~repro.io.float_to_wire` sentinels instead of the invalid
        ``NaN``/``Infinity`` literals ``allow_nan=True`` would emit; every
        body is byte-identical to encoding ``wire_safe(payload)``.  The
        assignments of a schedule's :func:`~repro.io.result_envelope` are
        spliced in as text, each written from its offer's cached wire
        text; the bytes equal those of the fully materialised
        :func:`~repro.io.result_to_dict` tree.
        """
        body = payload_json(self.payload).encode("utf-8")
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            "content-type: application/json",
            f"content-length: {len(body)}",
            "connection: " + ("close" if close else "keep-alive"),
        ]
        if self.retry_after is not None:
            lines.append(f"retry-after: {self.retry_after:g}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class _MemoryWriter:
    """Duck-typed ``StreamWriter`` feeding a peer reader directly.

    The in-process transport of the load harness: client and server each
    hold a real :class:`asyncio.StreamReader` fed by the peer's writer, so
    thousands of concurrent tenants exercise the full HTTP path without a
    socket (or file descriptor) each.
    """

    def __init__(self, peer: asyncio.StreamReader) -> None:
        self._peer = peer
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._peer.feed_data(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)  # yield, like a real transport under load

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()

    async def wait_closed(self) -> None:
        return None


class Gateway:
    """The multi-tenant request broker behind the HTTP front-end.

    Owns the :class:`~repro.server.SessionRegistry`, the admission gates,
    the worker-thread pool and the access log.  :meth:`handle` is the
    transport-independent core — the HTTP glue (:meth:`handle_connection`)
    and the in-process transport (:meth:`connect_in_process`) both feed
    it.
    """

    def __init__(
        self, config: Optional[GatewayConfig] = None, **overrides
    ) -> None:
        if config is None:
            config = GatewayConfig(**overrides)
        elif overrides:
            raise ValueError(
                "pass either a GatewayConfig or keyword overrides, not both"
            )
        self.config = config
        self.registry = SessionRegistry(
            max_sessions=config.max_sessions,
            idle_ttl=config.idle_ttl,
            default_config=config.session_defaults,
            queue_depth=config.session_queue_depth,
            persist_root=config.persist_root,
        )
        self.gate = ConcurrencyGate(
            limit=config.workers, max_pending=config.max_pending
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-gateway"
        )
        self.access_log: Optional[RequestStatsLog] = (
            None
            if config.access_log is None
            else RequestStatsLog(config.access_log)
        )
        self.served = 0
        self.inline = 0
        self.failed = 0
        self.sweeper_failures = 0
        self._connections: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Transport-independent request handling
    # ------------------------------------------------------------------ #
    async def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        """Serve one request; every failure becomes a structured error body."""
        try:
            if len(body) > self.config.max_body_bytes:
                raise PayloadTooLargeError(
                    f"body of {len(body)} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte budget"
                )
            return await self._route(method.upper(), path)(body)
        except Exception as failure:  # noqa: BLE001 - the 500 boundary
            self.failed += 1
            error = _gateway_error(failure)
            retry_after = error.retry_after
            if retry_after is None and error is failure:
                # Every backoff-shaped rejection carries a hint, even
                # when raised somewhere that had no gate to ask.
                retry_after = RETRY_AFTER_S if error.status in (429, 503) else None
            return Response(
                error.status, error_to_dict(error), retry_after=retry_after
            )

    def _route(self, method: str, path: str):
        """Resolve ``(method, path)`` to a body-consuming handler."""
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"]:
            if method != "GET":
                raise MethodNotAllowedError(f"{method} not allowed on {path}")
            return self._handle_health
        if not parts or parts[0] != "sessions" or len(parts) > 3:
            raise NotFoundError(f"no route for {path!r}")
        if len(parts) == 1:
            if method != "GET":
                raise MethodNotAllowedError(f"{method} not allowed on {path}")
            return self._handle_list
        name = parts[1]
        if len(parts) == 2:
            if method == "PUT":
                return lambda body: self._handle_create(name, body)
            if method == "GET":
                return lambda body: self._handle_stats(name, body)
            if method == "DELETE":
                return lambda body: self._handle_evict(name, body)
            raise MethodNotAllowedError(f"{method} not allowed on {path}")
        if parts[2] == "requests":
            if method != "POST":
                raise MethodNotAllowedError(f"{method} not allowed on {path}")
            return lambda body: self._handle_submit(name, body)
        if parts[2] == "checkpoint":
            if method != "POST":
                raise MethodNotAllowedError(f"{method} not allowed on {path}")
            return lambda body: self._handle_checkpoint(name, body)
        raise NotFoundError(f"no route for {path!r}")

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        if not body:
            return None
        try:
            return _DECODER.decode(body.decode("utf-8"))
        except ValueError as error:  # UnicodeDecodeError and JSONDecodeError too
            raise BadRequestError(f"malformed JSON body: {error}") from error

    async def _handle_health(self, body: bytes) -> Response:
        stats = self.stats()
        healthy = all(
            state == "ok"
            for part, state in stats["components"].items()
            if not (part == "persistence" and state == "disabled")
        )
        status = "ok" if healthy else "degraded"
        return Response(200, {"kind": "health", "status": status, **stats})

    async def _handle_list(self, body: bytes) -> Response:
        return Response(
            200, {"kind": "sessions", "sessions": self.registry.names()}
        )

    async def _handle_create(self, name: str, body: bytes) -> Response:
        payload = self._parse_json(body)
        config = None
        if payload is not None:
            if not isinstance(payload, dict):
                raise BadRequestError("session config must be a JSON object")
            config = self.registry.tenant_config(payload)
        entry = self.registry.reserve(name, config)
        session = await self._hand_off(entry, lambda entry: entry.session)
        return Response(
            201,
            {
                "kind": "session",
                "name": name,
                "backend": session.backend_name,
                "config": session.config.as_dict(),
            },
        )

    async def _handle_stats(self, name: str, body: bytes) -> Response:
        stats = await self._hand_off(self.registry.entry(name), SessionEntry.stats)
        return Response(200, {"kind": "session-stats", **stats})

    async def _handle_evict(self, name: str, body: bytes) -> Response:
        """Close a tenant once its running and queued requests are done;
        a tenant that is not in the registry is a 404 and is not
        recovered."""
        while name in self.registry:
            if await self._close(self.registry.entry(name), self.registry.evict, name):
                return Response(200, {"kind": "evicted", "name": name})
        raise UnknownSessionError(f"unknown session {name!r}")

    async def _handle_submit(self, name: str, body: bytes) -> Response:
        payload = self._parse_json(body)
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        request = request_from_dict(payload)
        entry = self.registry.entry(name)
        result = await self._hand_off(
            entry, self._dispatch, request, len(body), inline=self._cheap
        )
        self.served += 1
        if self.access_log is not None:
            self.access_log.append(result.stats)
        return Response(200, result_envelope(result))

    async def _handle_checkpoint(self, name: str, body: bytes) -> Response:
        stats = await self._hand_off(
            self.registry.entry(name), lambda entry: entry.session.checkpoint()
        )
        return Response(200, {"kind": "checkpoint", "name": name, **stats})

    async def _hand_off(self, entry, function, *args, inline=None):
        """Run ``function(entry, *args)`` once ``entry`` is open: on the
        pool, or on the loop thread when ``inline(entry, *args)`` says so.

        Takes the tenant's gate, then the gateway's, and holds both until
        ``function`` returns: Python cannot stop a running thread, so a
        gate is never released while a worker is inside the session.  An
        ``opening`` tenant first closes one
        :meth:`SessionRegistry.victim` on the victim's own gate, making
        room for itself; on the worker, :meth:`SessionRegistry.open`
        then builds its session before ``function`` runs.  A request that
        queued behind a close looks the name up again once the close has
        finished, exactly like a request that arrives after it.

        ``inline`` is asked only once both gates are held, and only for a
        ``live`` entry, so the loop never builds or closes a session.
        """
        while True:
            async with entry.gate.admit():
                if entry.state != REMOVED:
                    if entry.state == OPENING and (victim := self.registry.victim()):
                        await self._close(victim, self.registry.retire, victim)
                    async with self.gate.admit():
                        if (
                            inline is not None
                            and entry.state == LIVE
                            and inline(entry, *args)
                        ):
                            result = function(entry, *args)
                            self.inline += 1
                            return result
                        return await asyncio.get_running_loop().run_in_executor(
                            self._executor, self._open_then, entry, function, args
                        )
            entry = self.registry.entry(entry.name)

    def _open_then(self, entry, function, args):
        """On a worker: open ``entry`` if it is still opening, then run ``function``."""
        self.registry.open(entry)
        return function(entry, *args)

    async def _close(self, entry, function, *args) -> bool:
        """Run a close, ``function(*args)``, on the pool in ``entry``'s turn.

        The tenant's running and queued requests finish first.  A close
        holds only the tenant's gate, so the worker gate never refuses
        one.  False when a close ahead of it already removed ``entry``.
        """
        async with entry.gate.admit():
            if entry.state == REMOVED:
                return False
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, function, *args)
            return True

    async def sweep(self) -> None:
        """Close every :meth:`SessionRegistry.victim`, each on its own gate:
        the tenants idle past the TTL and any beyond the cap."""
        while (victim := self.registry.victim()) is not None:
            await self._close(victim, self.registry.retire, victim)

    def _cheap(self, entry, request, size: int) -> bool:
        """Whether a live tenant's ``request`` (a ``size``-byte body) runs
        on the loop thread rather than the pool.

        Only when the tenant's last request of the same type took at most
        one thread switch interval of CPU time (see :meth:`_dispatch`) and
        had a body at least as large: while
        a worker holds the GIL the loop already waits that long, so the
        request stalls the loop no longer than the pool path would, and
        saves two thread crossings.  A larger body (explicit ``offers`` or
        ``lots``, a longer event batch) may cost more than the estimate
        measured, so it keeps the pool.  So do a stream that changes the
        population (see :meth:`_dispatch`), a stream that fsyncs its WAL
        commit, a tenant whose live population has reached its
        ``shard_min_population`` (the size at which the library spreads
        one request over threads; on the loop thread such a request's
        buffers come from the main heap, which hands them back to the
        system after each request and faults them in again on the next),
        and every request under a fault plan, the gateway's or the
        tenant's own, so that an injected delay sleeps on a worker.
        """
        config = entry.config
        if self.config.fault_plan is not None or config.fault_plan is not None:
            return False
        if len(entry.session.engine) >= config.shard_min_population:
            return False
        if isinstance(request, StreamRequest) and (
            _reshapes(request)
            or (config.persist_dir is not None and config.persist_fsync)
        ):
            return False
        estimate = entry.costs.get(type(request))
        return (
            estimate is not None
            and estimate[0] <= sys.getswitchinterval()
            and size <= estimate[1]
        )

    def _dispatch(self, entry, request, size: int):
        """One submit, behind the ``gateway.dispatch`` fault site.

        Records the call's CPU seconds on its thread and the ``size`` of
        its body as the tenant's estimate for the request's type.  CPU
        time, not wall time: on a worker the wall time also holds the
        waits for the GIL, up to a switch interval each while the loop is
        busy, so a type sent to the pool once could stay there.  A
        failed call leaves no estimate for its type, and a stream that
        changes the population (a bulk ingest, say) clears every type's,
        so the next request of each goes to the pool.
        """
        if self.config.fault_plan is not None:
            self.config.fault_plan.fire(GATEWAY_DISPATCH)
        kind = type(request)
        reshapes = isinstance(request, StreamRequest) and _reshapes(request)
        if reshapes:
            entry.costs.clear()
        else:
            entry.costs.pop(kind, None)
        started = time.thread_time()
        result = entry.session.submit(request)
        if not reshapes:
            entry.costs[kind] = (time.thread_time() - started, size)
        entry.served += 1
        return result

    # ------------------------------------------------------------------ #
    # HTTP transport
    # ------------------------------------------------------------------ #
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer
    ) -> None:
        """Serve one HTTP/1.1 keep-alive connection until EOF."""
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, _version = (
                        request_line.decode("latin-1").split(None, 2)
                    )
                except ValueError:
                    await self._refuse(
                        writer, BadRequestError("malformed request line")
                    )
                    break
                headers = await self._read_headers(reader)
                if headers is None:
                    break
                # Refuse an unframeable or oversized body before buffering
                # it: the body never gets read, so the connection cannot
                # be reused afterwards.  A chunked body is unframeable
                # here: only content-length bodies are parsed.
                if "transfer-encoding" in headers:
                    await self._refuse(
                        writer, BadRequestError("transfer-encoding is not supported")
                    )
                    break
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    await self._refuse(
                        writer,
                        BadRequestError(
                            f"malformed content-length header: {declared!r}"
                        ),
                    )
                    break
                length = int(declared)
                if length > self.config.max_body_bytes:
                    await self._refuse(
                        writer,
                        PayloadTooLargeError(
                            f"declared body of {length} bytes exceeds the "
                            f"{self.config.max_body_bytes}-byte budget"
                        ),
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                path = target.partition("?")[0]
                response = await self.handle(method, path, body)
                close = headers.get("connection", "").lower() == "close"
                writer.write(response.encode(close=close))
                await writer.drain()
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            # CancelledError too: server shutdown cancels in-flight
            # connection tasks while they are closing their writer.
            with suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _refuse(writer, error: GatewayError) -> None:
        """Answer a request the parser will not serve, with ``connection: close``."""
        writer.write(
            Response(error.status, error_to_dict(error)).encode(close=True)
        )
        await writer.drain()

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader):
        """The request's header map (lower-cased), or ``None`` on EOF."""
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                return None
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()

    def connect_in_process(self):
        """A client ``(reader, writer)`` pair served without a socket.

        The server side of the pair runs :meth:`handle_connection` as a
        task on the current loop; the client side speaks ordinary
        HTTP/1.1 over it.  This is the transport the load harness uses to
        hold thousands of concurrent tenant connections without consuming
        a file descriptor per tenant.
        """
        client_reader = asyncio.StreamReader()
        server_reader = asyncio.StreamReader()
        client_writer = _MemoryWriter(server_reader)
        server_writer = _MemoryWriter(client_reader)
        task = asyncio.ensure_future(
            self.handle_connection(server_reader, server_writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        return client_reader, client_writer

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Gateway counters: served/failed totals, gates, registry, health.

        ``inline`` counts the submits served on the event loop thread
        rather than the worker pool (see :meth:`_cheap`).

        ``components`` is the operator-facing roll-up: one status word per
        subsystem (the sweeper goes ``degraded`` after any swallowed sweep
        failure; persistence mirrors
        :meth:`~repro.server.SessionRegistry.persistence_health`).
        """
        registry = self.registry.stats()
        persistence = self.registry.persistence_health()
        sweeper_ok = (
            self.sweeper_failures == 0 and registry["sweep_failures"] == 0
        )
        payload = {
            "served": self.served,
            "inline": self.inline,
            "failed": self.failed,
            "sweeper_failures": self.sweeper_failures,
            "gate": self.gate.stats(),
            "registry": registry,
            "workers": self.config.workers,
            "persistence": persistence,
            "components": {
                "gateway": "ok",
                "registry": "ok",
                "sweeper": "ok" if sweeper_ok else "degraded",
                "persistence": persistence["status"],
            },
        }
        if self.config.fault_plan is not None:
            payload["faults"] = self.config.fault_plan.stats()
        return payload

    def close(self) -> None:
        """Shut the pool down and close every session.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self.registry.close()
        if self.access_log is not None:
            self.access_log.close()


class GatewayServer:
    """A started gateway bound to a TCP port (what :func:`serve` returns)."""

    def __init__(self, gateway: Gateway, server: asyncio.AbstractServer) -> None:
        self.gateway = gateway
        self.server = server
        self._sweeper: Optional[asyncio.Task] = None
        if gateway.config.idle_ttl is not None:
            self._sweeper = asyncio.ensure_future(
                self._sweep_loop(gateway.config.idle_ttl / 2)
            )

    async def _sweep_loop(self, interval: float) -> None:
        """Sweep idle sessions forever; one bad sweep never kills the loop.

        An exception escaping :meth:`Gateway.sweep` (the close already
        counts per-session close failures, so this is registry-level
        breakage) is counted on the gateway and the loop keeps ticking —
        a wedged sweeper would silently turn the TTL off.
        """
        while True:
            await asyncio.sleep(interval)
            try:
                await self.gateway.sweep()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the sweeper must survive
                self.gateway.sweeper_failures += 1

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self.server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        """The bound host address."""
        return self.server.sockets[0].getsockname()[0]

    async def close(self) -> None:
        """Stop accepting, drain the pool, close every session."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            with suppress(asyncio.CancelledError):
                await self._sweeper
        self.server.close()
        await self.server.wait_closed()
        self.gateway.close()

    async def __aenter__(self) -> "GatewayServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def serve(
    config: Optional[GatewayConfig] = None, **overrides
) -> GatewayServer:
    """Start the gateway on its configured TCP address.

    Usage::

        async with await serve(port=0, max_sessions=100) as server:
            print(f"listening on {server.host}:{server.port}")
            ...

    Returns a :class:`GatewayServer`; ``await server.close()`` (or the
    ``async with`` exit) stops the listener and closes every session.
    """
    gateway = Gateway(config, **overrides)
    server = await asyncio.start_server(
        gateway.handle_connection, gateway.config.host, gateway.config.port
    )
    return GatewayServer(gateway, server)
