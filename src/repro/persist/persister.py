"""The per-session durability coordinator: WAL + snapshots + recovery.

:class:`SessionPersister` owns one session directory::

    <persist_dir>/
        config.json            # the SessionConfig that built the session
        snapshot-<seq>.json    # versioned engine-state checkpoints
        wal-<seq>.log          # CRC-framed event segments

The write path is *log-after-apply*: the session applies an event to the
engine, appends its :func:`repro.io.event_to_dict` record, and commits
(flush + fsync) once per request — so the WAL only ever contains events
that actually mutated the engine, and a mid-batch failure cannot make the
log diverge from the state.  A bulk request, which lands all-or-nothing,
is logged as one *batch record* holding all of its events; it spans one
sequence number per event, so sequence numbers, the checkpoint policy and
:attr:`RecoveryStats.replayed` all count events.  The read path is
*snapshot + tail replay*: recovery restores the newest valid snapshot and
replays only the WAL records past its watermark — a batch record through
the engine's bulk path — O(snapshot + tail) instead of O(history).

**Checkpoints after the response.**  A checkpoint the size or age policy
starts (:meth:`SessionPersister.maybe_checkpoint`) is split in two.
Under the session gate it commits the WAL, notes the watermark, rotates to
a fresh segment and takes an O(live) capture of the engine
(:meth:`~repro.stream.StreamingEngine.capture_state`).  The persister's
writer thread then encodes the capture, writes the snapshot and prunes
the segments it covers, while the request that triggered it has already
been answered.  The order — commit, rotate, capture, respond, write,
prune — is crash-safe at every step: the committed WAL already holds
every acknowledged event, and a segment is deleted only once a durable
snapshot covers it.  At most one write is in flight; the next policy
trigger, an explicit :meth:`~SessionPersister.checkpoint` and
:meth:`~SessionPersister.close` wait for it first.

**Degraded mode.**  Durability failures must not take serving down: an
``OSError`` (disk full, injected fault, dead volume) on the append,
commit or checkpoint path — the writer thread included — *suspends*
persistence instead of failing the request.  While suspended the
session keeps answering from memory,
:meth:`SessionPersister.stats` reports ``status: "degraded"``, explicit
checkpoints raise :class:`PersistenceSuspendedError` (the gateway maps it
to HTTP 503), and every :meth:`maybe_checkpoint` tick runs a probe-based
circuit breaker — a small write + fsync + unlink in the session
directory.  Once a probe succeeds the persister resumes: the WAL rewinds
its dirty tail, a forced snapshot captures the engine state (covering
every event that went unlogged while degraded) and a fresh segment
starts, so recovery after a resume is exactly as trustworthy as one that
never degraded.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple, Union

from ..faults.plan import PERSIST_PROBE, FaultPlan
from ..io.serialization import event_from_dict, event_to_dict
from .snapshot import SnapshotStore
from .wal import PersistError, WriteAheadLog

__all__ = [
    "PersistenceSuspendedError",
    "RecoveryStats",
    "SessionPersister",
    "StateCorruptError",
    "load_config",
    "save_config",
]

_CONFIG_FILE = "config.json"

#: Name of the transient file the resume circuit breaker writes.
_PROBE_FILE = ".probe"


class StateCorruptError(PersistError):
    """Raised when persisted state exists but cannot be read.

    Nothing is recovered and no file is modified, so an operator can
    inspect the directory.  The gateway answers HTTP 503 with the
    ``state-corrupt`` error code.
    """


class PersistenceSuspendedError(PersistError):
    """Raised by explicit checkpoints while persistence is suspended.

    Regular request traffic never sees this — logging and commits degrade
    silently — but an operation whose *whole point* is durability (the
    checkpoint route, ``FlexSession.checkpoint()``) must fail loudly.  The
    gateway maps it to HTTP 503 with the ``degraded`` error code.
    """


def save_config(directory: Union[str, Path], payload: dict) -> Path:
    """Atomically write the session's ``config.json`` (once per directory).

    An existing file is left untouched: the config that *created* the
    persisted state is the one recovery must rebuild the session with.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _CONFIG_FILE
    if path.exists():
        return path
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_config(directory: Union[str, Path]) -> Optional[dict]:
    """The persisted ``config.json`` payload, or ``None`` when there is none.

    Raises :class:`StateCorruptError` when the file exists but does not
    read as a JSON object: the state beside it was written under that
    config, so it is refused rather than recovered under a guess.
    """
    path = Path(directory) / _CONFIG_FILE
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise StateCorruptError(f"{path} is unreadable: {error}") from error
    if not isinstance(payload, dict):
        raise StateCorruptError(f"{path} does not hold a JSON object")
    return payload


@dataclass(frozen=True)
class RecoveryStats:
    """What one recovery did: where it started and how much it replayed."""

    #: WAL watermark of the snapshot recovery started from (0 = none).
    snapshot_seq: int
    #: Live offers restored straight from the snapshot.
    restored: int
    #: WAL tail events replayed on top of the snapshot.
    replayed: int
    #: Wall-clock seconds the recovery took.
    duration_s: float

    def as_dict(self) -> dict:
        """A JSON-ready copy for health blocks."""
        return {
            "snapshot_seq": self.snapshot_seq,
            "restored": self.restored,
            "replayed": self.replayed,
            "duration_s": self.duration_s,
        }


class _Capture(NamedTuple):
    """What a checkpoint takes under the session gate, for the writer."""

    #: WAL watermark the snapshot covers.
    seq: int
    #: :meth:`~repro.stream.StreamingEngine.capture_state` output.
    state: dict
    #: The engine's ``encode_state``: turns ``state`` into the snapshot body.
    encode: Callable[[dict], dict]
    #: Session bookkeeping stored under the snapshot's ``"session"`` key.
    extra: Optional[dict]


class SessionPersister:
    """Durability for one session: event logging, checkpoints, recovery.

    Parameters
    ----------
    directory:
        The session's persistence directory (created if missing).
    fsync:
        Whether WAL commits and snapshot writes fsync.
    checkpoint_events:
        Events logged since the last snapshot that trigger an automatic
        checkpoint at the next :meth:`maybe_checkpoint` (a batch record
        counts each of its events).
    checkpoint_age_s:
        Optional wall-clock age of the last snapshot that triggers one,
        for quiet sessions trickling single events.
    clock:
        Monotonic time source (injectable for the age-policy tests).
    faults:
        Optional :class:`repro.faults.FaultPlan`, threaded through to the
        WAL and snapshot store and fired at ``persist.probe`` by the
        resume circuit breaker.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: bool = True,
        checkpoint_events: int = 1024,
        checkpoint_age_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if checkpoint_events < 1:
            raise PersistError(
                f"checkpoint_events must be >= 1, got {checkpoint_events}"
            )
        if checkpoint_age_s is not None and checkpoint_age_s <= 0:
            raise PersistError(
                f"checkpoint_age_s must be positive, got {checkpoint_age_s}"
            )
        self.directory = Path(directory)
        self.checkpoint_events = checkpoint_events
        self.checkpoint_age_s = checkpoint_age_s
        self._clock = clock
        self._faults = faults
        self.wal = WriteAheadLog(self.directory, fsync=fsync, faults=faults)
        self.snapshots = SnapshotStore(self.directory, fsync=fsync, faults=faults)
        latest = self.snapshots.paths()
        #: Guards every field the writer thread touches (the durable
        #: watermark, the checkpoint counter and the degraded state).
        self._lock = threading.Lock()
        #: The thread writing the newest capture (``None`` before one).
        self._writer: Optional[threading.Thread] = None
        #: WAL watermark of the newest *durable* snapshot.
        self._snapshot_seq = latest[-1][0] if latest else 0
        #: WAL watermark of the newest capture, written or in flight: the
        #: size policy counts from here.
        self._captured_seq = self._snapshot_seq
        self._snapshot_at = clock()
        self.checkpoints = 0
        self._closed = False
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.suspended_seq = 0
        self.suspensions = 0
        self.resumptions = 0
        self.probe_attempts = 0

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def log_event(self, event) -> Optional[int]:
        """Append one *applied* event; durable at the next :meth:`commit`.

        ``event`` may also be a non-empty list or tuple of applied
        :class:`~repro.stream.OfferArrived` events — one bulk request,
        which the engine applied all-or-nothing.  It is logged as one batch
        record spanning one sequence number per event, and recovery
        replays it through :meth:`~repro.stream.StreamingEngine.bulk_arrive`.

        Returns the last sequence number the record covers — or ``None``
        when the write failed (or persistence was already suspended): the
        events stay applied and un-durable, and the snapshot a successful
        resume forces will cover them.
        """
        if self.degraded:
            return None
        if isinstance(event, (list, tuple)):
            payload = {"events": [event_to_dict(item) for item in event]}
            span = len(event)
        else:
            payload = {"event": event_to_dict(event)}
            span = 1
        with self._lock:
            if self.degraded:
                return None
            try:
                return self.wal.append(payload, span)
            except OSError as error:
                self._suspend(error)
                return None

    def commit(self) -> None:
        """The request-level commit point (flush + configured fsync).

        A failing flush/fsync suspends persistence instead of raising —
        the request that triggered it still succeeds.
        """
        with self._lock:
            if self.degraded:
                return
            try:
                self.wal.commit()
            except OSError as error:
                self._suspend(error)

    def checkpoint(self, engine, extra: Optional[dict] = None) -> dict:
        """Snapshot the engine now; rotate and prune the WAL behind it.

        Waits for an in-flight background write first, then runs the
        whole checkpoint on the calling thread, so the returned snapshot
        is durable.  ``extra`` rides along under the state's
        ``"session"`` key (the service layer stores its request counter
        there).  Returns a JSON-ready summary block.  Raises
        :class:`PersistenceSuspendedError` while suspended, or when the
        checkpoint itself hits an ``OSError`` (which suspends).
        """
        if self._closed:
            raise PersistError("the persister is closed")
        self.join()
        if self.degraded:
            raise PersistenceSuspendedError(
                f"persistence is suspended ({self.degraded_reason}); "
                "serving continues without durability until writes recover"
            )
        started = self._clock()
        try:
            capture = self._capture(engine, extra)
            self._write(capture)
        except OSError as error:
            with self._lock:
                self._suspend(error)
            raise PersistenceSuspendedError(
                f"checkpoint failed and suspended persistence: {error}"
            ) from error
        return self._summary(capture, started)

    def maybe_checkpoint(self, engine, extra: Optional[dict] = None) -> Optional[dict]:
        """Start a checkpoint when the size or age policy says so; else ``None``.

        Under the caller's session gate this commits, rotates and
        captures the engine; the snapshot is encoded, written and the WAL
        pruned on the writer thread (see the module docstring), so the
        caller returns without waiting for the disk.  A write still in
        flight is joined first.  Returns the summary of the checkpoint it
        started — its snapshot is durable once :meth:`join` returns — and
        ``None`` when the policy did not fire or the commit/rotate failed
        (which suspends).

        While suspended this is the circuit breaker's tick: instead of
        checkpointing it probes the directory and, once writes succeed
        again, resumes with a forced snapshot (returned like a regular
        checkpoint summary).
        """
        if self.degraded:
            return self.try_resume(engine, extra)
        pending = self.wal.last_seq - self._captured_seq
        if pending <= 0:
            return None
        if pending < self.checkpoint_events and (
            self.checkpoint_age_s is None
            or self._clock() - self._snapshot_at < self.checkpoint_age_s
        ):
            return None
        self.join()
        if self.degraded:
            return None
        started = self._clock()
        try:
            capture = self._capture(engine, extra)
        except OSError as error:
            with self._lock:
                self._suspend(error)
            return None
        self._writer = threading.Thread(
            target=self._write_in_background,
            args=(capture,),
            name=f"snapshot-writer-{self.directory.name}",
        )
        self._writer.start()
        return self._summary(capture, started)

    def join(self) -> None:
        """Wait until the in-flight snapshot write, if any, has finished."""
        if self._writer is not None:
            self._writer.join()

    def try_resume(self, engine, extra: Optional[dict] = None) -> Optional[dict]:
        """One circuit-breaker attempt: probe, then resume via checkpoint.

        Returns the forced checkpoint's summary on success, ``None`` when
        the probe (or the checkpoint retry) says the directory is still
        unwritable — in which case the persister stays suspended.
        """
        if self._closed or not self.degraded:
            return None
        self.join()
        if not self._probe():
            return None
        with self._lock:
            self.degraded = False
            self.degraded_reason = None
        try:
            summary = self.checkpoint(engine, extra)
        except PersistenceSuspendedError:
            return None
        self.resumptions += 1
        return summary

    def close(self, engine=None, extra: Optional[dict] = None) -> None:
        """Final checkpoint (when dirty and an engine is given) and shutdown.

        This is what makes registry eviction *checkpoint-then-close*: any
        WAL tail past the last snapshot is folded into a final snapshot so
        a later lazy recovery answers from state, not from a long replay.
        A suspended persister gets one last resume attempt, then closes
        without raising either way.  Idempotent.
        """
        if self._closed:
            return
        self.join()
        if self.degraded and engine is not None:
            self.try_resume(engine, extra)
        if engine is not None and not self.degraded and self.dirty:
            try:
                self.checkpoint(engine, extra)
            except PersistenceSuspendedError:
                pass
        self._closed = True
        try:
            self.wal.close()
        except OSError:
            pass

    @property
    def dirty(self) -> bool:
        """Whether events were logged past the last durable snapshot."""
        return self.wal.last_seq > self._snapshot_seq

    # ------------------------------------------------------------------ #
    # The two halves of a checkpoint
    # ------------------------------------------------------------------ #
    def _capture(self, engine, extra: Optional[dict]) -> _Capture:
        """Commit, rotate and capture the engine: the half under the gate.

        Rotating first puts every later append in a segment the snapshot
        does not cover, so the writer can prune behind it while requests
        keep logging.
        """
        self.wal.rotate()
        capture = _Capture(
            seq=self.wal.last_seq,
            state=engine.capture_state(),
            encode=engine.encode_state,
            extra=dict(extra) if extra else None,
        )
        self._captured_seq = capture.seq
        self._snapshot_at = self._clock()
        return capture

    def _write(self, capture: _Capture) -> None:
        """Encode and durably write a capture, then prune the WAL behind it.

        Touches no engine: it runs on the writer thread while the session
        serves the next request.
        """
        state = capture.encode(capture.state)
        if capture.extra:
            state["session"] = capture.extra
        self.snapshots.write(capture.seq, state)
        self.wal.prune(capture.seq)
        with self._lock:
            self._snapshot_seq = capture.seq
            self.checkpoints += 1

    def _summary(self, capture: _Capture, started: float) -> dict:
        """The JSON-ready block a checkpoint returns."""
        return {
            "snapshot_seq": capture.seq,
            "live": len(capture.state["live"]),
            "duration_s": self._clock() - started,
        }

    def _write_in_background(self, capture: _Capture) -> None:
        """The writer thread's body: a failed write suspends persistence."""
        try:
            self._write(capture)
        except OSError as error:
            with self._lock:
                self._suspend(error)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def has_state(self) -> bool:
        """Whether the directory holds anything to recover."""
        return bool(self.snapshots.paths()) or self.wal.last_seq > 0

    def recover(self, engine) -> Tuple[RecoveryStats, dict]:
        """Rebuild a pristine engine: newest valid snapshot + WAL tail.

        Returns ``(stats, session_extra)`` where ``session_extra`` is the
        dictionary :meth:`checkpoint` stored under ``"session"``.  Tail
        replay is strictly sequential: it stops at the first gap in the
        sequence numbers (a mid-log corruption makes everything after it
        unreachable — replaying across the hole could apply events to the
        wrong state), and torn final records were already truncated when
        the WAL opened.  A batch record replays through the engine's bulk
        path and counts each of its events as replayed.
        """
        started = self._clock()
        snapshot_seq = 0
        restored = 0
        extra: dict = {}
        latest = self.snapshots.latest()
        if latest is not None:
            snapshot_seq, state = latest
            engine.restore_state(state)
            restored = len(state.get("live", ()))
            session_extra = state.get("session")
            if isinstance(session_extra, dict):
                extra = session_extra
        replayed = 0
        expected = snapshot_seq + 1
        for record in self.wal.records(after_seq=snapshot_seq):
            if record.seq != expected:
                break
            batch = record.payload.get("events")
            if batch is None:
                engine.apply(event_from_dict(record.payload["event"]))
            elif len(batch) == record.span:
                engine.bulk_arrive([event_from_dict(item) for item in batch])
            else:
                break
            expected += record.span
            replayed += record.span
        self._snapshot_seq = self._captured_seq = snapshot_seq
        stats = RecoveryStats(
            snapshot_seq=snapshot_seq,
            restored=restored,
            replayed=replayed,
            duration_s=self._clock() - started,
        )
        return stats, extra

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Counters for the session health block.

        ``snapshot_seq`` is the watermark of the newest *durable*
        snapshot, and ``pending`` counts the events past it: a snapshot
        still being written counts only once it is on disk.
        """
        with self._lock:
            head = {
                "directory": str(self.directory),
                "status": "degraded" if self.degraded else "ok",
                "degraded_reason": self.degraded_reason,
                "suspensions": self.suspensions,
                "resumptions": self.resumptions,
                "probe_attempts": self.probe_attempts,
                "snapshot_seq": self._snapshot_seq,
            }
            checkpoints = self.checkpoints
        wal = self.wal.stats()
        return {
            **head,
            "snapshots": len(self.snapshots.paths()),
            "checkpoints": checkpoints,
            "pending": wal["last_seq"] - head["snapshot_seq"],
            **wal,
        }

    # ------------------------------------------------------------------ #
    # Degraded-mode internals
    # ------------------------------------------------------------------ #
    def _suspend(self, error: BaseException) -> None:
        """Enter degraded mode; remembers why and where for ``stats()``.

        The caller holds ``_lock``.
        """
        self.degraded = True
        self.degraded_reason = f"{type(error).__name__}: {error}"
        self.suspended_seq = self.wal.last_seq
        self.suspensions += 1

    def _probe(self) -> bool:
        """Whether the directory accepts a durable write right now."""
        self.probe_attempts += 1
        path = self.directory / _PROBE_FILE
        try:
            if self._faults is not None:
                self._faults.fire(PERSIST_PROBE)
            with open(path, "wb") as handle:
                handle.write(b"probe")
                handle.flush()
                os.fsync(handle.fileno())
            path.unlink()
            return True
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SessionPersister({self.directory})"
