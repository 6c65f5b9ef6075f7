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
  seconds are closed and dropped.

Each tenant's :class:`SessionEntry` carries one lifecycle ``state``:
``opening`` (created or found persisted, no session yet) → ``live`` →
``closing`` → ``removed``.  The bookkeeping — look up, check, insert,
choose a victim — is cheap and runs under the registry's lock on the
caller's thread (the gateway's event loop).  The slow work has one
function each and never runs under the lock: :meth:`SessionRegistry.open`
builds the session, for a create and for a recovery alike, and
:meth:`SessionRegistry.retire` closes it and then drops the entry.  The
gateway runs both on a worker thread inside the tenant's gate; the
one-call library methods (``create``, ``get``, ``evict``, ``sweep``,
``close``) run them on the calling thread.
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

#: The lifecycle states of a :class:`SessionEntry`, in order.
OPENING, LIVE, CLOSING, REMOVED = "opening", "live", "closing", "removed"

#: Tenant names double as persistence directory names, so they must be
#: plain path components: no separators, no leading dot, no traversal.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")

#: Session settings a tenant's ``PUT`` body may not carry: where the
#: session writes (``persist_root``) belongs to the operator.
_OPERATOR_FIELDS = ("persist_dir",)


@dataclass
class SessionEntry:
    """One tenant's slot: its state, session, queue gate and LRU bookkeeping.

    ``session`` is ``None`` until :meth:`SessionRegistry.open` builds it
    from ``config``.  ``gate`` admits one request at a time, with a
    bounded queue behind it.  ``costs`` maps a request type to the CPU
    seconds the tenant's last request of that type took and the bytes of
    its body, the gateway's estimate of the next one.
    """

    name: str
    config: SessionConfig
    gate: ConcurrencyGate
    last_used: float
    session: Optional[FlexSession] = None
    state: str = OPENING
    served: int = 0
    costs: dict = field(default_factory=dict)

    def stats(self) -> dict:
        """A JSON-ready health block for this (live) tenant."""
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
        Hard cap on sessions.  An insert beyond it evicts the
        least-recently-used *idle* session; when every session is busy the
        insert is refused with :class:`RegistryFullError` (HTTP 429).
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
        self._lock = threading.Lock()
        self.created = 0
        self.evicted = 0
        self.expired = 0
        self.recovered = 0
        self.sweep_failures = 0

    # ------------------------------------------------------------------ #
    # Bookkeeping: look up, check, insert (cheap, under the lock)
    # ------------------------------------------------------------------ #
    def tenant_config(self, body: dict) -> SessionConfig:
        """A tenant's config: its ``PUT`` body merged over the defaults.

        The body names only the fields it changes; every other field
        keeps its ``default_config`` value.  The operator's setting
        (``persist_dir``) may appear in the body only as ``null``, and
        always keeps the default's value.  A retired field (a saved
        ``cluster``, say) is dropped, as it is from a saved config.
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

    def reserve(
        self, name: str, config: Optional[SessionConfig] = None
    ) -> SessionEntry:
        """Insert the named tenant's ``opening`` entry; builds no session.

        A name with a persisted ``config.json`` is entered under that
        saved config; ``config`` may only restate it.  An idle entry that
        never opened (its create or first request was refused before it
        reached a worker) is replaced.  Raises
        :class:`SessionExistsError` when the name is otherwise in the
        registry or persisted with another config, and
        :class:`RegistryFullError` when the cap is reached and no idle
        session can be evicted.
        """
        self._check_name(name)
        with self._lock:
            unopened = self._entries.get(name)
            if unopened is not None:
                if unopened.state != OPENING or unopened.gate.busy:
                    raise SessionExistsError(f"session {name!r} already exists")
                del self._entries[name]
            fresh = self._persistent_config(name, config or self._default())
            saved = self._saved_config(name) or fresh
            if config is not None and fresh.as_dict() != saved.as_dict():
                raise SessionExistsError(
                    f"session {name!r} is persisted with another config"
                )
            return self._insert(name, saved)

    def entry(self, name: str) -> SessionEntry:
        """The named tenant's entry, in any state; touches its LRU position.

        A name that is not in the registry but has persisted state gets an
        ``opening`` entry under its saved config.  Raises
        :class:`UnknownSessionError` for unknown (or already
        evicted/expired) names.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                saved = self._saved_config(name)
                if saved is None:
                    raise UnknownSessionError(f"unknown session {name!r}")
                entry = self._insert(name, saved)
            self._entries.move_to_end(name)
            entry.last_used = self._clock()
            return entry

    def victim(self, now: Optional[float] = None) -> Optional[SessionEntry]:
        """The next idle tenant to close, now marked ``closing``, or ``None``.

        First a tenant idle past ``idle_ttl`` (counted in ``expired``),
        else, while the registry is over its cap, the least-recently-used
        idle one (counted in ``evicted``).  A busy tenant (requests
        running or queued) is never chosen.  The caller closes it with
        :meth:`retire`.
        """
        now = self._clock() if now is None else now
        with self._lock:
            counted, idle = self._census()
            ttl = self.idle_ttl
            stale = [e for e in idle if ttl is not None and now - e.last_used > ttl]
            if stale:
                self.expired += 1
            elif counted > self.max_sessions and idle:
                self.evicted += 1
            else:
                return None
            entry = (stale or idle)[0]
            entry.state = CLOSING
            return entry

    # ------------------------------------------------------------------ #
    # The one open and the one close (slow; never under the lock)
    # ------------------------------------------------------------------ #
    def open(self, entry: SessionEntry) -> FlexSession:
        """``entry``'s session, built first while the entry is ``opening``.

        The one path that builds a session, for a create and a recovery
        alike; a session rebuilt from persisted state counts in
        ``recovered``.  A session that fails to build takes its entry out
        through :meth:`retire`, and the error propagates.
        """
        if entry.state == OPENING:
            try:
                session = FlexSession(entry.config)
            except BaseException:
                self.retire(entry)
                raise
            with self._lock:
                entry.session, entry.state = session, LIVE
                if session.recovery is not None:
                    self.recovered += 1
        return entry.session

    def retire(self, entry: SessionEntry) -> Optional[FlexSession]:
        """Close ``entry``'s session, then drop the entry; returns the session.

        The one path that closes a session: ``DELETE``, LRU eviction,
        the idle sweep and shutdown all end here.  The entry stays
        registered (``closing``) until the close returns, so a request for
        the name meanwhile waits for it instead of recovering a second
        session from the directory the close is still writing.  A close
        that raises (a checkpoint-on-evict ``OSError``, say) only costs
        the session its final checkpoint: it is counted in
        ``sweep_failures`` (surfaced via ``/healthz``) and the entry is
        dropped all the same.
        """
        with self._lock:
            entry.state = CLOSING
        try:
            if entry.session is not None:
                entry.session.close()
        except Exception:  # noqa: BLE001 - a close must always drop its entry
            with self._lock:
                self.sweep_failures += 1
        with self._lock:
            if self._entries.get(entry.name) is entry:
                del self._entries[entry.name]
            entry.state = REMOVED
        return entry.session

    # ------------------------------------------------------------------ #
    # One-call library methods (open and close on the calling thread)
    # ------------------------------------------------------------------ #
    def create(
        self, name: str, config: Optional[SessionConfig] = None
    ) -> FlexSession:
        """Create the named tenant's session: :meth:`reserve`, close one
        :meth:`victim` (an expired or, over the cap, the LRU idle
        session), :meth:`open`."""
        return self._open_here(self.reserve(name, config))

    def get(self, name: str) -> FlexSession:
        """The named tenant's session (LRU-touching, recovering); 404-shaped on a miss."""
        return self._open_here(self.entry(name))

    def evict(self, name: str) -> Optional[FlexSession]:
        """Close and drop the named tenant, returning its (now closed) session."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownSessionError(f"unknown session {name!r}")
            self.evicted += 1
        return self.retire(entry)

    def sweep(self, now: Optional[float] = None) -> List[str]:
        """Close every :meth:`victim`; returns their names.

        With the cap kept, these are the sessions idle past ``idle_ttl``.
        Busy sessions (requests running or queued) are left alone even
        when expired — their TTL clock restarts when the request
        finishes.  A close that raises does not stop the sweep.
        """
        swept = []
        while (entry := self.victim(now)) is not None:
            self.retire(entry)
            swept.append(entry.name)
        return swept

    def close(self) -> None:
        """Close every session and empty the registry (shutdown)."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            self.retire(entry)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Registered session names (any state), least-recently-used first."""
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
        if not _NAME_RE.fullmatch(name) or ".." in name:
            raise BadRequestError(
                f"invalid session name {name!r}: use 1-128 characters "
                "[A-Za-z0-9._-] starting with a letter or digit"
            )

    def _census(self):
        """``(entries not closing, idle ones among them in LRU order)``."""
        counted = [e for e in self._entries.values() if e.state != CLOSING]
        return len(counted), [e for e in counted if not e.gate.busy]

    def _open_here(self, entry: SessionEntry) -> FlexSession:
        """Close one :meth:`victim` to make room, then open ``entry``, here."""
        if entry.state == OPENING and (victim := self.victim()):
            self.retire(victim)
        return self.open(entry)

    def _insert(self, name: str, config: SessionConfig) -> SessionEntry:
        """Enter ``name`` as ``opening``; 429 when full of busy sessions."""
        counted, idle = self._census()
        if counted >= self.max_sessions and not idle:
            raise RegistryFullError(
                f"session cap reached ({self.max_sessions}) and "
                "every session is busy",
                retry_after=RETRY_AFTER_S,
            )
        entry = SessionEntry(
            name=name,
            config=config,
            gate=ConcurrencyGate(limit=1, max_pending=self.queue_depth),
            last_used=self._clock(),
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

    def _saved_config(self, name: str) -> Optional[SessionConfig]:
        """The config a persisted tenant was created with, or ``None``.

        Read from the ``config.json`` written when the tenant was first
        created, with the directory itself re-pinned as ``persist_dir``,
        so a recovered tenant runs the same backend, measures and budgets
        it was configured with — and answers bit-identically to a process
        that never restarted.  An unreadable ``config.json`` raises
        :class:`~repro.persist.StateCorruptError`: the tenant is neither
        forgotten nor re-created under another config.
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
        return SessionConfig.from_dict(payload)
