"""The named, capacity-bounded registry of tenant sessions.

One gateway process serves many tenants; each tenant owns a named
:class:`~repro.service.FlexSession` — its own engine, compute backend and
matrix-cache budgets, fully isolated from every other tenant (the PR 5
interleaving guarantee).  The registry is the multi-tenant bookkeeping on
top:

* **create / get / evict** by name, each tenant optionally carrying its
  own :class:`~repro.service.SessionConfig`;
* a **max-sessions cap** with LRU eviction of *idle* sessions (a session
  with requests in flight or queued is never evicted under it);
* optional **idle-TTL expiry**: sessions untouched for ``idle_ttl``
  seconds are closed and dropped on the next sweep.

The registry itself is cheap bookkeeping guarded by a thread lock, so it
can be inspected and mutated from worker threads: the gateway runs a
``DELETE``'s :meth:`SessionRegistry.evict` on one, holding the tenant's
gate.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from ..service.config import SessionConfig
from ..service.session import FlexSession
from .limits import (
    RETRY_AFTER_S,
    BadRequestError,
    ConcurrencyGate,
    RegistryFullError,
    SessionExistsError,
    UnknownSessionError,
)

__all__ = ["SessionEntry", "SessionRegistry"]

#: Tenant names double as persistence directory names, so they must be
#: plain path components: no separators, no leading dot, no traversal.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: Session settings a tenant's ``PUT`` body may not carry: where the
#: session writes (``persist_root``) and which hosts the gateway dials
#: (``session_defaults`` / ``REPRO_CLUSTER``) belong to the operator.
_OPERATOR_FIELDS = ("persist_dir", "cluster")


@dataclass
class SessionEntry:
    """One tenant's slot: the session, its queue gate and LRU bookkeeping.

    ``gate`` admits one request at a time, with a bounded queue behind it.
    """

    name: str
    session: FlexSession
    gate: ConcurrencyGate
    created_at: float
    last_used: float
    served: int = 0

    def stats(self) -> dict:
        """A JSON-ready health block for this tenant."""
        payload = dict(self.session.stats())
        payload.update(
            name=self.name,
            served=self.served,
            queued=self.gate.waiting,
            rejected=self.gate.rejected,
        )
        return payload


class SessionRegistry:
    """Named tenant sessions behind one gateway.

    Parameters
    ----------
    max_sessions:
        Hard cap on live sessions.  Creating beyond it evicts the
        least-recently-used *idle* session; when every session is busy the
        create is refused with :class:`RegistryFullError` (HTTP 429).
    idle_ttl:
        Seconds of inactivity after which a session may be swept.  ``None``
        disables TTL expiry.
    default_config:
        :class:`SessionConfig` for tenants created without an explicit
        config (``None`` resolves the environment defaults once, lazily).
    queue_depth:
        Requests that may wait behind a tenant's running one before its
        gate answers 429.
    persist_root:
        When set, every tenant becomes durable under
        ``<persist_root>/<name>`` (unless its config already carries an
        explicit ``persist_dir``): sessions log and checkpoint as they
        serve, eviction/expiry checkpoints before closing, and a request
        for a name that is not live but has persisted state **lazily
        recovers** it — the restart story is simply "same persist_root,
        first request per tenant pays its recovery".
    clock:
        Monotonic time source (injectable for TTL tests).

    >>> registry = SessionRegistry(max_sessions=8)
    >>> session = registry.create("tenant-a")
    >>> registry.get("tenant-a") is session
    True
    >>> registry.evict("tenant-a").closed
    True
    >>> len(registry)
    0
    """

    def __init__(
        self,
        max_sessions: int = 1024,
        idle_ttl: Optional[float] = None,
        default_config: Optional[SessionConfig] = None,
        queue_depth: int = 8,
        persist_root: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError(f"idle_ttl must be positive, got {idle_ttl}")
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.queue_depth = queue_depth
        self.persist_root = None if persist_root is None else str(persist_root)
        self._clock = clock
        self._default_config = default_config
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self.created = 0
        self.evicted = 0
        self.expired = 0
        self.recovered = 0
        self.sweep_failures = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def create(
        self, name: str, config: Optional[SessionConfig] = None
    ) -> FlexSession:
        """Create (and register) the named tenant's session.

        A name with a persisted ``config.json`` recovers under that saved
        config; ``config`` may only restate it.  Raises
        :class:`SessionExistsError` when the name is live or persisted
        with another config, and :class:`RegistryFullError` when the cap
        is reached and no idle session can be evicted.
        """
        with self._lock:
            self._check_name(name)
            self.sweep()
            if name in self._entries:
                raise SessionExistsError(f"session {name!r} already exists")
            recovered = self._recover(name, config)
            if recovered is not None:
                return recovered.session
            self._make_room()
            if config is None:
                config = self._default()
            session = FlexSession(self._persistent_config(name, config))
            if session.recovery is not None:
                self.recovered += 1
            self._insert(name, session)
            return session

    def tenant_config(self, body: dict) -> SessionConfig:
        """A tenant's config: its ``PUT`` body merged over the defaults.

        The body names only the fields it changes; every other field
        keeps its ``default_config`` value.  The operator's settings
        (``persist_dir``, ``cluster``) may appear in the body only as
        ``null``, and always keep the default's value.
        """
        for setting in _OPERATOR_FIELDS:
            if body.get(setting) is not None:
                raise BadRequestError(
                    f"a session body may not set {setting!r}; the "
                    "gateway operator configures it"
                )
        payload = self._default().as_dict()
        payload.update(
            (key, value)
            for key, value in body.items()
            if key not in _OPERATOR_FIELDS
        )
        return SessionConfig.from_dict(payload)

    def entry(self, name: str, recover: bool = True) -> SessionEntry:
        """The named tenant's entry; touches its LRU position.

        A name that is not live but has persisted state is recovered,
        unless ``recover`` is false.  Raises :class:`UnknownSessionError`
        for unknown (or already evicted/expired) names.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None and recover:
                entry = self._recover(name)
            if entry is None:
                raise UnknownSessionError(f"unknown session {name!r}")
            self._entries.move_to_end(name)
            entry.last_used = self._clock()
            return entry

    def get(self, name: str) -> FlexSession:
        """The named tenant's session (LRU-touching); 404-shaped on a miss."""
        return self.entry(name).session

    def evict(self, name: str) -> FlexSession:
        """Close and drop the named session, returning it (now closed).

        The entry stays registered until its session is closed, so a
        request for the name meanwhile finds it, not a second session
        recovered from the directory the close is still writing.
        """
        with self._lock:
            try:
                entry = self._entries[name]
            except KeyError:
                raise UnknownSessionError(f"unknown session {name!r}") from None
        try:
            entry.session.close()
        finally:
            with self._lock:
                if self._entries.get(name) is entry:
                    del self._entries[name]
                    self.evicted += 1
        return entry.session

    def sweep(self, now: Optional[float] = None) -> List[str]:
        """Evict sessions idle past ``idle_ttl``; returns the evicted names.

        Busy sessions (requests running or queued) are left alone even
        when expired — their TTL clock restarts when the request finishes.
        One session's close blowing up (a checkpoint-on-evict ``OSError``,
        say) must not stop the sweep or kill the sweeper task: the failure
        is counted in ``sweep_failures`` (surfaced via ``/healthz``), the
        entry is still dropped, and the sweep moves on.
        """
        if self.idle_ttl is None:
            return []
        now = self._clock() if now is None else now
        swept = []
        with self._lock:
            for name in list(self._entries):
                entry = self._entries[name]
                if entry.gate.busy:
                    continue
                if now - entry.last_used > self.idle_ttl:
                    del self._entries[name]
                    self._close_quietly(entry)
                    self.expired += 1
                    swept.append(name)
        return swept

    def close(self) -> None:
        """Close every session and empty the registry."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.session.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Live session names, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def stats(self) -> dict:
        """Registry-level counters for the gateway health block."""
        with self._lock:
            return {
                "sessions": len(self._entries),
                "max_sessions": self.max_sessions,
                "idle_ttl": self.idle_ttl,
                "created": self.created,
                "evicted": self.evicted,
                "expired": self.expired,
                "recovered": self.recovered,
                "sweep_failures": self.sweep_failures,
                "persist_root": self.persist_root,
            }

    def persistence_health(self) -> dict:
        """Aggregate persistence status across live tenants (``/healthz``).

        ``disabled`` when the gateway has no persistence at all, ``ok``
        when every durable session's WAL is healthy, ``degraded`` when at
        least one suspended — with the offending tenants named, so an
        operator sees *which* volume is failing, not just that one is.
        """
        with self._lock:
            entries = list(self._entries.values())
        durable = 0
        degraded: List[str] = []
        for entry in entries:
            persister = getattr(entry.session, "_persister", None)
            if persister is None:
                continue
            durable += 1
            if persister.degraded:
                degraded.append(entry.name)
        if durable == 0 and self.persist_root is None:
            status = "disabled"
        else:
            status = "degraded" if degraded else "ok"
        return {
            "status": status,
            "durable_sessions": durable,
            "degraded_sessions": sorted(degraded),
        }

    def cluster_health(self) -> dict:
        """Aggregate remote-shard cluster state across tenants (``/healthz``).

        ``disabled`` when no live session fans out to a cluster, ``ok``
        when every host every clustered tenant talks to is ``up``, and
        ``degraded`` otherwise — with a merged per-host table
        (worst-state-wins across tenants) so the operator sees *which*
        worker is suspect or down.
        """
        with self._lock:
            entries = list(self._entries.values())
        clustered = 0
        hosts: dict = {}
        severity = {"up": 0, "suspect": 1, "down": 2}
        for entry in entries:
            backend = getattr(entry.session, "_backend", None)
            health = getattr(backend, "cluster_health", None)
            health = health() if callable(health) else None
            if health is None:
                continue
            clustered += 1
            for address, row in health.items():
                known = hosts.get(address)
                if known is None or (
                    severity.get(row["state"], 2)
                    > severity.get(known["state"], 2)
                ):
                    hosts[address] = dict(row)
        if clustered == 0:
            status = "disabled"
        elif all(row["state"] == "up" for row in hosts.values()):
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "clustered_sessions": clustered,
            "hosts": {address: hosts[address] for address in sorted(hosts)},
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _default(self) -> SessionConfig:
        """The shared default config (environment resolved exactly once)."""
        if self._default_config is None:
            self._default_config = SessionConfig()
        return self._default_config

    def _check_name(self, name: str) -> None:
        """Refuse names unusable as persistence path components.

        Tenant names come straight from request URLs and (with a
        ``persist_root``) become directory names, so anything that is not
        a plain path component — separators, ``..``, leading dots — is a
        400, never a filesystem traversal.
        """
        if not _NAME_RE.match(name) or ".." in name:
            raise BadRequestError(
                f"invalid session name {name!r}: use 1-128 characters "
                "[A-Za-z0-9._-] starting with a letter or digit"
            )

    def _make_room(self) -> None:
        """Enforce the session cap, evicting one idle session if needed."""
        if len(self._entries) >= self.max_sessions:
            if not self._evict_lru_idle():
                raise RegistryFullError(
                    f"session cap reached ({self.max_sessions}) and "
                    "every session is busy",
                    retry_after=RETRY_AFTER_S,
                )

    def _insert(self, name: str, session: FlexSession) -> SessionEntry:
        now = self._clock()
        entry = SessionEntry(
            name=name,
            session=session,
            gate=ConcurrencyGate(limit=1, max_pending=self.queue_depth),
            created_at=now,
            last_used=now,
        )
        self._entries[name] = entry
        self.created += 1
        return entry

    def _persistent_config(
        self, name: str, config: SessionConfig
    ) -> SessionConfig:
        """The tenant's config with its persistence directory filled in.

        With no ``persist_root`` (or an explicit ``persist_dir`` already
        on the config) the config passes through untouched.
        """
        if self.persist_root is None or config.persist_dir is not None:
            return config
        payload = config.as_dict()
        payload["persist_dir"] = str(Path(self.persist_root) / name)
        return SessionConfig.from_dict(payload)

    def _recover(
        self, name: str, config: Optional[SessionConfig] = None
    ) -> Optional[SessionEntry]:
        """Revive a tenant from its persisted directory, or ``None``.

        Called under the lock on an ``entry()`` miss and on ``create``.
        The session is rebuilt with the ``config.json`` persisted when it
        was first created (with the directory itself re-pinned as
        ``persist_dir``), so a recovered tenant runs the same backend,
        measures and budgets it was configured with — and answers
        bit-identically to a process that never restarted.  A ``create``
        ``config`` that differs from the saved one is refused: the live
        session would diverge from the one the next restart recovers.
        An unreadable ``config.json`` raises
        :class:`~repro.persist.StateCorruptError`: the tenant is neither
        forgotten nor re-created under ``config``.
        """
        if self.persist_root is None:
            return None
        self._check_name(name)
        from ..persist import load_config

        directory = Path(self.persist_root) / name
        payload = load_config(directory)
        if payload is None:
            return None
        payload["persist_dir"] = str(directory)
        saved = SessionConfig.from_dict(payload)
        if config is not None and (
            self._persistent_config(name, config).as_dict() != saved.as_dict()
        ):
            raise SessionExistsError(
                f"session {name!r} is persisted with another config"
            )
        self._make_room()
        session = FlexSession(saved)
        self.recovered += 1
        return self._insert(name, session)

    def _evict_lru_idle(self) -> bool:
        """Drop the least-recently-used idle session; False if all busy."""
        for name in list(self._entries):
            entry = self._entries[name]
            if not entry.gate.busy:
                del self._entries[name]
                self._close_quietly(entry)
                self.evicted += 1
                return True
        return False

    def _close_quietly(self, entry: SessionEntry) -> None:
        """Close a swept/evicted session without letting it break the caller.

        The entry is already out of the table; a close failure only costs
        that session its final checkpoint, which ``sweep_failures`` makes
        visible.
        """
        try:
            entry.session.close()
        except Exception:  # noqa: BLE001 - sweep must keep sweeping
            self.sweep_failures += 1
