"""Versioned, atomically written, corruption-tolerant state snapshots.

A snapshot file (``snapshot-<wal_seq>.json``) captures a full
:meth:`~repro.stream.StreamingEngine.export_state` document together with
the write-ahead-log sequence number it covers.  Format 2 is a one-line
JSON header followed by the state's JSON body::

    {"format":2,"seq":<wal_seq>,"crc":<crc32 of the body bytes>}\n
    <state: UTF-8 JSON>

The state is encoded once, and the CRC covers exactly the bytes written,
so the loader checks it over the raw body before parsing anything.
Format-1 files (one JSON document whose CRC covers a sorted re-encoding of
its ``state``) still load.

Writes go through a temp file + ``fsync`` + ``os.replace`` + a directory
``fsync``, so a crash mid-checkpoint leaves either the old snapshot or the
new one, never a half-written file, and a machine crash cannot undo the
rename; reads walk the retained snapshots newest-first and silently skip
any that fail the format, CRC or JSON checks, so one corrupted file
degrades recovery to the previous checkpoint instead of failing it.  A
temp file left by a process killed mid-write is never read, and is
deleted when the store next opens the directory.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..faults.plan import SNAPSHOT_REPLACE, FaultPlan
from .wal import fsync_directory

__all__ = ["SnapshotStore"]

#: Bumped when the file layout or the state document's shape changes
#: incompatibly.
FORMAT_VERSION = 2

#: The single-document layout written before format 2; still loaded.
_LEGACY_FORMAT = 1

_SNAPSHOT_FORMAT = "snapshot-{seq:012d}.json"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"
_TEMP_SUFFIX = ".tmp"

#: Snapshots retained after a write; older ones are pruned.  The newest
#: plus one fallback: that is what makes a corrupted newest snapshot a
#: degradation (recover from the previous one plus a longer WAL tail)
#: rather than a data loss.
KEEP_SNAPSHOTS = 2


def _canonical(state: dict) -> bytes:
    """The byte string a format-1 snapshot's CRC is computed over."""
    return json.dumps(
        state, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


class SnapshotStore:
    """The retained snapshot files of one persisted session directory.

    Parameters
    ----------
    directory:
        Where the ``snapshot-*.json`` files live (created if missing).
        Opening the store deletes any ``snapshot-*.json.tmp`` a killed
        writer left behind.
    fsync:
        Whether writes fsync the temp file before the atomic rename, and
        the directory after it.
    faults:
        Optional :class:`repro.faults.FaultPlan`; when set, the store
        fires the ``snapshot.replace`` injection site just before the
        atomic ``os.replace`` — the last point a checkpoint can fail
        while still leaving the previous snapshot intact.
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
        self.written = 0
        for path in self.directory.glob(
            f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}{_TEMP_SUFFIX}"
        ):
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def write(self, seq: int, state: dict) -> Path:
        """Durably write the snapshot covering WAL records ``<= seq``."""
        path = self.directory / _SNAPSHOT_FORMAT.format(seq=seq)
        body = json.dumps(
            state, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        header = json.dumps(
            {"format": FORMAT_VERSION, "seq": seq, "crc": zlib.crc32(body)},
            separators=(",", ":"),
        ).encode("utf-8")
        tmp = path.with_name(path.name + _TEMP_SUFFIX)
        try:
            with open(tmp, "wb") as handle:
                handle.write(header + b"\n")
                handle.write(body)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            if self._faults is not None:
                self._faults.fire(SNAPSHOT_REPLACE)
            os.replace(tmp, path)
            if self.fsync:
                fsync_directory(self.directory)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self.written += 1
        self.prune()
        return path

    def prune(self) -> List[Path]:
        """Drop all but the :data:`KEEP_SNAPSHOTS` newest snapshots;
        returns the removals."""
        paths = self.paths()
        removed = []
        for _, path in paths[: max(0, len(paths) - KEEP_SNAPSHOTS)]:
            path.unlink()
            removed.append(path)
        return removed

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def paths(self) -> List[Tuple[int, Path]]:
        """``(seq, path)`` of every snapshot file, oldest first."""
        found = []
        for path in self.directory.iterdir():
            name = path.name
            if not (
                name.startswith(_SNAPSHOT_PREFIX)
                and name.endswith(_SNAPSHOT_SUFFIX)
            ):
                continue
            try:
                seq = int(name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)])
            except ValueError:
                continue
            found.append((seq, path))
        return sorted(found)

    def latest(self) -> Optional[Tuple[int, dict]]:
        """The newest *valid* snapshot as ``(seq, state)``, else ``None``.

        Walks newest-first; a snapshot failing the JSON parse, format
        version, sequence or CRC checks is skipped — falling back to an
        older checkpoint is always correct because the WAL replays the
        difference.
        """
        for seq, path in reversed(self.paths()):
            state = self._load(seq, path)
            if state is not None:
                return seq, state
        return None

    def _load(self, seq: int, path: Path) -> Optional[dict]:
        """The state of one snapshot file, or ``None`` when it fails a check.

        The first line is a format-2 header; a file without a newline is
        a whole format-1 document.
        """
        try:
            data = path.read_bytes()
            head, newline, body = data.partition(b"\n")
            header = json.loads(head)
            if int(header["seq"]) != seq:
                return None
            if header["format"] == FORMAT_VERSION and newline:
                if zlib.crc32(body) != int(header["crc"]):
                    return None
                return json.loads(body)
            if header["format"] == _LEGACY_FORMAT and not newline:
                state = header["state"]
                if zlib.crc32(_canonical(state)) != int(header["crc"]):
                    return None
                return state
            return None
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SnapshotStore({self.directory})"
