"""`RemoteShardExecutor` — the drop-in pool that dispatches over TCP.

The sharded backend's entire fan-out runs through one seam:
``self._executor().submit(worker, *args)`` followed by ``Future`` results
(:meth:`repro.backend.sharded.ShardedBackend._submit_shard`).  This module
satisfies that contract against a cluster of
:mod:`repro.cluster.worker` processes:

* ``submit`` returns a genuine :class:`concurrent.futures.Future` (an
  inner thread pool drives the blocking socket I/O), so the backend's
  retry loop consumes it exactly like a thread-pool future.
* Placement is least-outstanding with a round-robin tiebreak, over hosts
  in one of three health states: ``up``, ``suspect`` (one recent
  failure), ``down`` (repeated failures; only re-tried once its probe
  interval elapsed — the persistence breaker's probe-gating applied to
  hosts).
* A connection-level failure (socket error, torn frame, injected
  ``cluster.*`` fault) is handled *inside* the dispatch: the connection
  is discarded, the host demoted, and the task transparently redispatched
  to the next candidate host.  Only when every host has failed does the
  future raise :class:`HostUnavailable` — a :class:`BrokenExecutor`
  subclass, so it enters the backend's existing bounded-retry budget.
* Shard arguments that are flex-offer chunks are interned per connection:
  shipped once under their fingerprint digest
  (:func:`~repro.cluster.framing.shard_key`), referenced by key ever
  after.  The worker answers with the missing keys when its cache
  disagrees, and the executor re-ships.

Application exceptions raised by the shard function on the worker are
re-raised here with their original type, preserving the backend's
error-parity contract (same exception class as the reference backend,
first offending shard wins).
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.flexoffer import FlexOffer
from ..faults.plan import (
    CLUSTER_CONNECT,
    CLUSTER_RECV,
    CLUSTER_SEND,
    FaultPlan,
)
from .cluster import ClusterSpec
from .framing import (
    PROTOCOL_VERSION,
    ShardRef,
    WireError,
    recv_frame,
    send_frame,
    shard_key,
)

__all__ = ["HostUnavailable", "RemoteShardExecutor"]

#: Health states a host cycles through (also the wire order in health()).
_UP, _SUSPECT, _DOWN = "up", "suspect", "down"

#: Pooled connections kept per host.  Shard-matrix interning is
#: per-connection, so fewer connections mean warmer caches while more
#: mean more in-flight shards per host.
CONNECTIONS_PER_HOST = 2

#: Seconds a ``down`` host rests before one probe connection may test it
#: again (the persistence breaker's probe-gating, applied to hosts).
PROBE_INTERVAL_S = 1.0


class HostUnavailable(BrokenExecutor):
    """Every cluster host refused this dispatch.

    Subclasses :class:`~concurrent.futures.BrokenExecutor` so the sharded
    backend's retry loop (``_RETRYABLE``) catches it with no new wiring.
    By the time it is raised the failing hosts are already demoted and
    probe-gated, so the backend retries on this same executor (a *partial*
    recovery) instead of replacing it.
    """

    def __init__(self, message: str, host: Optional[str] = None) -> None:
        super().__init__(message)
        self.host = host


class _RemoteRaise(Exception):
    """Internal envelope for an application exception from the worker.

    Exists so a worker-side ``OSError`` raised by the shard *function*
    is not mistaken for a connection failure by the dispatch loop's
    ``except OSError`` — transport problems and transported problems take
    different paths.
    """

    def __init__(self, error: BaseException, remote_traceback: str) -> None:
        super().__init__(str(error))
        self.error = error
        self.remote_traceback = remote_traceback


class _Connection:
    """One pooled socket plus the interning state scoped to it."""

    __slots__ = ("sock", "shipped", "next_task_id")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.shipped: set = set()
        self.next_task_id = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close race
            pass


class _Host:
    """Mutable per-host record: health, load and the idle-connection pool."""

    __slots__ = (
        "address",
        "state",
        "failures",
        "outstanding",
        "dispatched",
        "probe_after",
        "idle",
    )

    def __init__(self, address: str) -> None:
        self.address = address
        self.state = _UP
        self.failures = 0
        self.outstanding = 0
        self.dispatched = 0
        self.probe_after = 0.0
        self.idle: List[_Connection] = []


class RemoteShardExecutor:
    """Dispatch picklable shard tasks to remote workers over framed TCP.

    Parameters
    ----------
    cluster:
        The :class:`~repro.cluster.ClusterSpec` naming the workers.
    max_workers:
        Size of the inner thread pool driving socket I/O — the number of
        concurrently in-flight shards.  Defaults to
        ``len(cluster.hosts) * CONNECTIONS_PER_HOST``.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; the dispatch path fires
        ``cluster.connect`` before dialing, ``cluster.send`` before each
        outbound frame and ``cluster.recv`` before each inbound frame.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        max_workers: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        cluster = ClusterSpec.from_spec(cluster)
        if max_workers is None:
            max_workers = len(cluster.hosts) * CONNECTIONS_PER_HOST
        self.cluster = cluster
        self._faults = faults
        self._lock = threading.Lock()
        self._hosts = [_Host(address) for address in cluster.hosts]
        self._rotation = 0
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-cluster"
        )
        # Wire-level counters, surfaced via stats().
        self.dispatched = 0
        self.redispatches = 0
        self.reships = 0
        self.ref_hits = 0
        self.shipped_offers = 0
        self.connects = 0

    # ------------------------------------------------------------------ #
    # The concurrent.futures face
    # ------------------------------------------------------------------ #
    def submit(self, fn, *args, **kwargs) -> Future:
        """Run ``fn(*args)`` on some healthy worker; returns a Future."""
        if kwargs:
            raise TypeError("remote shard tasks take positional arguments only")
        if self._closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        return self._pool.submit(self._run, fn, args)

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        """Close the thread pool and every pooled connection.

        Workers are *not* told to exit — their lifetime belongs to the
        operator (or :class:`~repro.cluster.LocalCluster`), and other
        executors may be sharing them.
        """
        self._closed = True
        self._pool.shutdown(wait=wait)
        with self._lock:
            connections = [
                connection for host in self._hosts for connection in host.idle
            ]
            for host in self._hosts:
                host.idle = []
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------ #
    # Health and stats
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, dict]:
        """Per-host state for ``/healthz`` and test assertions."""
        with self._lock:
            return {
                host.address: {
                    "state": host.state,
                    "outstanding": host.outstanding,
                    "dispatched": host.dispatched,
                    "failures": host.failures,
                }
                for host in self._hosts
            }

    def stats(self) -> dict:
        """Wire-level counters (interning effectiveness, redispatches)."""
        with self._lock:
            return {
                "hosts": len(self._hosts),
                "dispatched": self.dispatched,
                "redispatches": self.redispatches,
                "reships": self.reships,
                "ref_hits": self.ref_hits,
                "shipped_offers": self.shipped_offers,
                "connects": self.connects,
            }

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _run(self, fn, args: tuple):
        """Execute one task, sweeping hosts until one answers."""
        function_name = f"{fn.__module__}:{fn.__qualname__}"
        wire_args, chunks = self._intern_args(args)
        keys = frozenset(chunks)
        tried: set = set()
        last_error: Optional[BaseException] = None
        while True:
            host = self._pick_host(tried, keys)
            if host is None:
                raise HostUnavailable(
                    f"no cluster host available for {function_name} "
                    f"(tried {sorted(tried) or 'none'}): {last_error}",
                    host=getattr(last_error, "_repro_host", None),
                )
            tried.add(host.address)
            try:
                connection = self._checkout(host, keys)
            except OSError as error:
                self._mark_failure(host, connected=False)
                last_error = error
                last_error._repro_host = host.address
                continue
            try:
                value = self._dispatch(connection, host, function_name,
                                       wire_args, chunks)
            except _RemoteRaise as wrapped:
                self._checkin(host, connection)
                self._mark_success(host)
                raise wrapped.error from wrapped
            except OSError as error:
                connection.close()
                self._mark_failure(host, connected=True)
                last_error = error
                last_error._repro_host = host.address
                with self._lock:
                    self.redispatches += 1
                continue
            else:
                self._checkin(host, connection)
                self._mark_success(host)
                return value

    def _intern_args(
        self, args: tuple
    ) -> Tuple[list, Dict[str, Sequence[FlexOffer]]]:
        """Replace flex-offer chunks with refs; returns (args, key→chunk)."""
        wire_args: list = []
        chunks: Dict[str, Sequence[FlexOffer]] = {}
        for value in args:
            if (
                isinstance(value, (list, tuple))
                and value
                and all(isinstance(item, FlexOffer) for item in value)
            ):
                key = shard_key(value)
                chunks[key] = list(value)
                wire_args.append(ShardRef(key))
            else:
                wire_args.append(value)
        return wire_args, chunks

    def _pick_host(self, tried: set, keys: frozenset) -> Optional[_Host]:
        """Healthy host preferring interning affinity, then least load.

        Within the best available health tier (``up`` before ``suspect``
        before probe-eligible ``down``), a host with an idle connection
        that already holds every chunk key wins — a reference-by-key
        dispatch beats shipping megabytes to an idle peer.  Ties fall to
        least-outstanding with a round-robin rotation, which is also what
        spreads a *first* dispatch (no affinity anywhere) across hosts.
        """
        now = time.monotonic()
        with self._lock:
            candidates = [
                host for host in self._hosts if host.address not in tried
            ]
            for states in ((_UP,), (_SUSPECT,), (_DOWN,)):
                pool = [host for host in candidates if host.state in states]
                if states == (_DOWN,):
                    pool = [host for host in pool if now >= host.probe_after]
                if not pool:
                    continue
                self._rotation += 1
                rotation = self._rotation
                chosen = min(
                    enumerate(pool),
                    key=lambda pair: (
                        not (keys and self._warm(pair[1], keys)),
                        pair[1].outstanding,
                        (pair[0] + rotation) % len(pool),
                    ),
                )[1]
                chosen.outstanding += 1
                return chosen
        return None

    @staticmethod
    def _warm(host: _Host, keys: frozenset) -> bool:
        """Whether some idle connection of ``host`` holds every key."""
        return any(
            keys.issubset(connection.shipped) for connection in host.idle
        )

    def _mark_failure(self, host: _Host, connected: bool) -> None:
        with self._lock:
            host.outstanding = max(0, host.outstanding - 1)
            host.failures += 1
            if host.state == _UP and connected:
                host.state = _SUSPECT
            else:
                host.state = _DOWN
            host.probe_after = time.monotonic() + PROBE_INTERVAL_S

    def _mark_success(self, host: _Host) -> None:
        with self._lock:
            host.outstanding = max(0, host.outstanding - 1)
            host.dispatched += 1
            host.state = _UP
            host.probe_after = 0.0

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    def _checkout(self, host: _Host, keys: frozenset = frozenset()) -> _Connection:
        """An idle pooled connection (warmest first), or a fresh dial."""
        with self._lock:
            for index, connection in enumerate(host.idle):
                if keys and keys.issubset(connection.shipped):
                    return host.idle.pop(index)
            if host.idle:
                return host.idle.pop()
        if self._faults is not None:
            self._faults.fire(CLUSTER_CONNECT)
        address, _, port = host.address.rpartition(":")
        sock = socket.create_connection(
            (address, int(port)), timeout=self.cluster.connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(sock)
        try:
            # The connect timeout also bounds the handshake; task frames
            # afterwards may legitimately block for as long as a shard runs.
            send_frame(sock, {"op": "hello", "version": PROTOCOL_VERSION})
            welcome = recv_frame(sock)
        except OSError:
            connection.close()
            raise
        if welcome is None or welcome.get("op") != "welcome":
            connection.close()
            raise WireError(f"bad handshake from {host.address}: {welcome!r}")
        sock.settimeout(None)
        with self._lock:
            self.connects += 1
        return connection

    def _checkin(self, host: _Host, connection: _Connection) -> None:
        """Return a healthy connection to the host's pool (capped)."""
        with self._lock:
            if not self._closed and len(host.idle) < CONNECTIONS_PER_HOST:
                host.idle.append(connection)
                return
        connection.close()

    def _dispatch(
        self,
        connection: _Connection,
        host: _Host,
        function_name: str,
        wire_args: list,
        chunks: Dict[str, Sequence[FlexOffer]],
    ):
        """One task over one connection; OSError/WireError mean 'move on'."""
        connection.next_task_id += 1
        task_id = connection.next_task_id
        ship = {
            key: chunk
            for key, chunk in chunks.items()
            if key not in connection.shipped
        }
        referenced = len(chunks) - len(ship)
        message = {
            "op": "task",
            "id": task_id,
            "fn": function_name,
            "args": wire_args,
            "ship": ship,
        }
        send_frame(
            connection.sock,
            message,
            pickled=True,
            faults=self._faults,
            site=CLUSTER_SEND,
        )
        for attempt in range(2):
            reply = recv_frame(
                connection.sock, faults=self._faults, site=CLUSTER_RECV
            )
            if reply is None:
                raise WireError(f"{host.address} closed during a task")
            if reply.get("op") != "result" or reply.get("id") != task_id:
                raise WireError(
                    f"out-of-protocol reply from {host.address}: "
                    f"op={reply.get('op')!r} id={reply.get('id')!r}"
                )
            # The exchange was well-formed, so the worker's cache now holds
            # everything this frame shipped.
            connection.shipped.update(ship)
            with self._lock:
                self.dispatched += 1
                self.ref_hits += referenced
                self.shipped_offers += sum(
                    len(chunk) for chunk in ship.values()
                )
            if reply.get("ok"):
                return reply.get("value")
            missing = reply.get("missing")
            if missing is None:
                error = reply.get("error")
                if not isinstance(error, BaseException):
                    raise WireError(
                        f"malformed error frame from {host.address}"
                    )
                raise _RemoteRaise(error, reply.get("traceback", ""))
            if attempt == 1:
                break
            # The worker's per-connection cache disagrees with our ledger
            # (it never does on a healthy stream, but a reshipped answer
            # is cheaper than a redispatch).  Send the bytes it asked for.
            connection.shipped.difference_update(missing)
            ship = {key: chunks[key] for key in missing if key in chunks}
            referenced = 0
            if len(ship) != len(missing):
                raise WireError(
                    f"{host.address} asked for unknown shard keys"
                )
            with self._lock:
                self.reships += 1
            message = {
                "op": "task",
                "id": task_id,
                "fn": function_name,
                "args": wire_args,
                "ship": ship,
            }
            send_frame(
                connection.sock,
                message,
                pickled=True,
                faults=self._faults,
                site=CLUSTER_SEND,
            )
        raise WireError(
            f"{host.address} still missing shard keys after a reship"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RemoteShardExecutor hosts={len(self._hosts)} "
            f"dispatched={self.dispatched}>"
        )
