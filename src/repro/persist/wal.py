"""The append-only, CRC-framed event log backing durable sessions.

One :class:`WriteAheadLog` per persisted session directory.  Records are
JSON documents wrapped with a monotonic sequence number, framed as::

    <length: uint32 LE> <crc32(payload): uint32 LE> <payload: UTF-8 JSON>

A record may *span* several sequence numbers: the persister logs a whole
bulk request as one record holding its events, and that record covers
one sequence number per event (``seq`` is its first, ``span`` its count),
so sequence numbers keep counting events however they were framed.

The framing is what makes crashes survivable:

* **fsync-on-commit** — appends are buffered; :meth:`WriteAheadLog.commit`
  flushes and (by default) ``fsync``\\ s, so a request is durable exactly
  when the service acknowledged it and a crash loses only events no
  client was ever told succeeded;
* **torn-tail tolerance** — a crash mid-append leaves a final record with
  a short body or a CRC mismatch.  :func:`read_wal_records` stops at the
  first invalid frame, and opening the log truncates the torn bytes away,
  so recovery *never* raises on a partially written tail;
* **segment rotation** — a checkpoint rotates to a fresh segment file
  (``wal-<first_seq>.log``) and prunes segments the snapshot fully
  covers, keeping the tail short and the replay O(events since the last
  checkpoint).  With ``fsync`` on, the directory is fsynced after a new
  segment is created, so the file itself survives a machine crash.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.errors import FlexError
from ..faults.plan import WAL_APPEND, WAL_COMMIT, WAL_FSYNC, FaultPlan

__all__ = ["PersistError", "WalRecord", "WriteAheadLog", "read_wal_records"]

#: Per-record frame header: payload length, then the payload's CRC-32.
_HEADER = struct.Struct("<II")

#: Segment file name carrying the first sequence number it may contain.
_SEGMENT_FORMAT = "wal-{seq:012d}.log"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class PersistError(FlexError):
    """Raised on unrecoverable persistence misuse (never on a torn tail)."""


@dataclass(frozen=True)
class WalRecord:
    """One committed log record: its sequence numbers and JSON payload.

    The record covers ``seq`` through :attr:`last_seq` (``span`` numbers).
    """

    seq: int
    payload: dict
    span: int = 1

    @property
    def last_seq(self) -> int:
        """The last sequence number the record covers."""
        return self.seq + self.span - 1


def fsync_directory(directory: Union[str, Path]) -> None:
    """Make a rename or file creation in ``directory`` durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def read_wal_records(
    path: Union[str, Path], repair: bool = False
) -> List[WalRecord]:
    """Every valid record of one segment file, in write order.

    Reading stops at the first invalid frame — a short header, a short
    body, a CRC mismatch or an unparseable payload — which is exactly the
    torn tail a crash mid-append leaves behind.  With ``repair=True`` the
    invalid suffix is truncated off the file so subsequent appends extend
    a clean log.  A missing file reads as empty.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    records: List[WalRecord] = []
    offset = 0
    while True:
        header = data[offset : offset + _HEADER.size]
        if len(header) < _HEADER.size:
            break
        length, crc = _HEADER.unpack(header)
        body = data[offset + _HEADER.size : offset + _HEADER.size + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        try:
            payload = json.loads(body.decode("utf-8"))
            seq = int(payload["seq"])
            span = int(payload.get("span", 1))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            break
        if span < 1:
            break
        records.append(WalRecord(seq, payload, span))
        offset += _HEADER.size + length
    if repair and offset < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(offset)
    return records


def _segment_start(path: Path) -> Optional[int]:
    """The first sequence number a segment file name claims, or ``None``."""
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])
    except ValueError:
        return None


class WriteAheadLog:
    """An append-only log of JSON records across rotated segment files.

    Parameters
    ----------
    directory:
        Where the ``wal-*.log`` segments live (created if missing).
    fsync:
        Whether :meth:`commit` fsyncs.  ``False`` trades the
        machine-crash guarantee for speed (a *process* crash still loses
        nothing the OS already buffered) — the durability knob surfaced as
        ``SessionConfig(persist_fsync=...)``.
    faults:
        Optional :class:`repro.faults.FaultPlan`; when set, the log fires
        the ``wal.append`` / ``wal.commit`` / ``wal.fsync`` injection
        sites at the matching boundaries.

    Opening an existing directory repairs the torn tail of every segment
    and resumes the sequence numbering where the last valid record left
    off; sequence numbers start at 1 and are globally monotonic across
    rotations.

    A failed :meth:`commit` (flush or fsync raising) marks the log
    *dirty*: the buffered frames are in an unknown half-written state, so
    the next :meth:`append` or :meth:`commit` first rewinds — truncates
    the active segment back to the last committed offset and resets the
    sequence counter — before writing anything new.  Callers therefore
    never re-log on top of a torn middle, and :meth:`records` only ever
    shows the committed prefix plus cleanly re-appended records.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._faults = faults
        self.last_seq = 0
        self.appended = 0
        self.commits = 0
        self.rewinds = 0
        self._pending = 0
        self._dirty = False
        segments = self.segments()
        for start, path in segments:
            records = read_wal_records(path, repair=True)
            if records:
                self.last_seq = max(self.last_seq, records[-1].last_seq)
            else:
                self.last_seq = max(self.last_seq, start - 1)
        if segments:
            self._path = segments[-1][1]
            self._file = open(self._path, "ab")
            self._mark_committed()
        else:
            self._open_segment(1)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, payload: dict, span: int = 1) -> int:
        """Buffer one record covering ``span`` sequence numbers.

        Returns the last sequence number the record covers.  The record is
        **not** durable until :meth:`commit` runs — that is the point: a
        request appends what it applied and commits once, so the fsync
        cost is paid per request, not per event.
        """
        if self._file is None:
            raise PersistError("the write-ahead log is closed")
        if span < 1:
            raise PersistError(f"a record spans at least one event, got {span}")
        if self._faults is not None:
            self._faults.fire(WAL_APPEND)
        if self._dirty:
            self._rewind()
        record = dict(payload)
        record["seq"] = self.last_seq + 1
        if span != 1:
            record["span"] = span
        self.last_seq += span
        data = json.dumps(
            record, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        try:
            self._file.write(_HEADER.pack(len(data), zlib.crc32(data)))
            self._file.write(data)
        except BaseException:
            self._dirty = True
            raise
        self._pending += 1
        self.appended += 1
        return self.last_seq

    def commit(self) -> None:
        """Flush buffered appends; fsync when configured.  The commit point.

        If the flush or fsync raises, nothing buffered since the last
        successful commit counts as durable: the log goes *dirty* and the
        next write rewinds to the committed offset first (see the class
        docstring), so a half-flushed tail can never be extended.
        """
        if self._file is None:
            return
        if self._dirty:
            self._rewind()
        if not self._pending:
            return
        try:
            if self._faults is not None:
                self._faults.fire(WAL_COMMIT)
            self._file.flush()
            if self.fsync:
                if self._faults is not None:
                    self._faults.fire(WAL_FSYNC)
                os.fsync(self._file.fileno())
        except BaseException:
            self._dirty = True
            raise
        self._mark_committed()
        self.commits += 1

    def rotate(self) -> Path:
        """Start a fresh segment (the step after writing a snapshot).

        Everything appended afterwards lands in the new file, so segments
        older than the snapshot hold only covered records and can be
        pruned; crashing between snapshot, rotate and prune is safe at
        every point — recovery filters replay by sequence number.
        """
        self.commit()
        self._file.close()
        self._open_segment(self.last_seq + 1)
        return self._path

    def prune(self, through_seq: int) -> List[Path]:
        """Delete segments whose records are all ``<= through_seq``.

        A segment is fully covered when the *next* segment starts at or
        below ``through_seq + 1``.  The active segment is never deleted.
        Returns the removed paths.
        """
        removed: List[Path] = []
        segments = self.segments()
        for (start, path), (next_start, _) in zip(segments, segments[1:]):
            if path != self._path and next_start <= through_seq + 1:
                path.unlink()
                removed.append(path)
        return removed

    def close(self) -> None:
        """Commit and close the active segment.  Idempotent.

        The file handle is released even when the final commit raises —
        a log on a failing disk must still close cleanly.
        """
        if self._file is not None:
            try:
                self.commit()
            finally:
                file, self._file = self._file, None
                try:
                    file.close()
                except OSError:
                    pass

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def segments(self) -> List[Tuple[int, Path]]:
        """``(first_seq, path)`` of every segment, oldest first."""
        found = []
        for path in self.directory.iterdir():
            start = _segment_start(path)
            if start is not None:
                found.append((start, path))
        return sorted(found)

    def records(self, after_seq: int = 0) -> List[WalRecord]:
        """Every committed record with ``seq > after_seq``, in order."""
        result: List[WalRecord] = []
        for _, path in self.segments():
            for record in read_wal_records(path):
                if record.seq > after_seq:
                    result.append(record)
        return result

    def stats(self) -> dict:
        """Counters for the session health block."""
        return {
            "last_seq": self.last_seq,
            "segments": len(self.segments()),
            "appended": self.appended,
            "commits": self.commits,
            "rewinds": self.rewinds,
            "dirty": self._dirty,
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _open_segment(self, first_seq: int) -> None:
        self._path = self.directory / _SEGMENT_FORMAT.format(seq=first_seq)
        self._file = open(self._path, "ab")
        self._mark_committed()
        if self.fsync:
            fsync_directory(self.directory)

    def _mark_committed(self) -> None:
        """Record the current end of the active segment as durable."""
        self._committed_offset = self._file.tell()
        self._committed_seq = self.last_seq
        self._pending = 0
        self._dirty = False

    def _rewind(self) -> None:
        """Truncate the active segment back to the last committed offset.

        Runs before the first write after a failed commit: whatever the
        failed flush left on disk past the committed offset is discarded
        and the sequence counter rewinds with it, so re-logged events
        reuse the abandoned sequence numbers and replay stays gapless.
        """
        try:
            self._file.close()
        except OSError:
            pass
        with open(self._path, "r+b") as handle:
            handle.truncate(self._committed_offset)
        self._file = open(self._path, "ab")
        self.last_seq = self._committed_seq
        self._pending = 0
        self._dirty = False
        self.rewinds += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({self.directory}, seq={self.last_seq}, "
            f"fsync={self.fsync})"
        )
