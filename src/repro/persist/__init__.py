"""Durable sessions: write-ahead event log, snapshots and crash recovery.

The package gives a :class:`~repro.service.FlexSession` an on-disk life
that survives process restarts:

* :class:`WriteAheadLog` — an append-only, CRC-framed log of every
  mutating stream event, buffered per request and fsynced at commit,
  tolerant of torn tails left by crashes mid-append;
* :class:`SnapshotStore` — versioned, atomically replaced checkpoints of
  the full engine state, corruption-checked and retained N-deep so a bad
  newest snapshot degrades to the previous one plus a longer replay;
* :class:`SessionPersister` — the coordinator wiring both to one session
  directory: log-after-apply on the write path, snapshot + strict
  sequential tail replay on the read path, and a *degraded mode* that
  suspends persistence (instead of failing requests) when the disk stops
  accepting writes, resuming through a probe-based circuit breaker with
  a forced snapshot (see :class:`PersistenceSuspendedError`).

The correctness contract (exercised by the crash-point property tests in
``tests/persist/``): for **any** prefix of committed events and **any**
crash point — including torn WAL tails and corrupted snapshot files —
recovering and replaying the tail yields a session whose observable
state is bit-identical to replaying the full event history into a fresh
engine, on every compute backend.

Quick start::

    from repro.service import FlexSession, SessionConfig

    session = FlexSession(SessionConfig(persist_dir="/var/lib/flex/acme"))
    ...                        # stream requests are logged + checkpointed
    session.close()            # final checkpoint

    session = FlexSession(SessionConfig(persist_dir="/var/lib/flex/acme"))
    session.recovery           # RecoveryStats: snapshot + tail replayed
"""

from .persister import (
    PersistenceSuspendedError,
    RecoveryStats,
    SessionPersister,
    StateCorruptError,
    load_config,
    save_config,
)
from .snapshot import FORMAT_VERSION, SnapshotStore
from .wal import PersistError, WalRecord, WriteAheadLog, read_wal_records

__all__ = [
    "FORMAT_VERSION",
    "PersistError",
    "PersistenceSuspendedError",
    "RecoveryStats",
    "SessionPersister",
    "SnapshotStore",
    "StateCorruptError",
    "WalRecord",
    "WriteAheadLog",
    "load_config",
    "read_wal_records",
    "save_config",
]
