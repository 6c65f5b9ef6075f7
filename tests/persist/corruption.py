"""Byte-level crash/corruption helpers for the durability suite.

These manufacture the on-disk states a real crash leaves behind — torn
WAL tails cut at arbitrary byte offsets, bit-flipped record bodies,
half-written snapshot files — so the recovery tests exercise exactly the
inputs the persistence layer promises to survive.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

_HEADER = struct.Struct("<II")


def wal_segments(directory) -> list[Path]:
    """The ``wal-*.log`` segment files of a persisted directory, oldest first."""
    return sorted(Path(directory).glob("wal-*.log"))


def snapshot_files(directory) -> list[Path]:
    """The ``snapshot-*.json`` files of a persisted directory, oldest first."""
    return sorted(Path(directory).glob("snapshot-*.json"))


def tear_tail(path, drop_bytes: int) -> int:
    """Truncate ``drop_bytes`` off the end of ``path`` — a torn final write.

    Returns the resulting file size.  ``drop_bytes`` larger than the file
    clamps to empty, matching a crash before anything hit the disk.
    """
    data = Path(path).read_bytes()
    kept = data[: max(0, len(data) - drop_bytes)]
    Path(path).write_bytes(kept)
    return len(kept)


def flip_byte(path, offset: int) -> None:
    """XOR one byte of ``path`` — bitrot / partial-sector corruption."""
    data = bytearray(Path(path).read_bytes())
    data[offset] ^= 0xFF
    Path(path).write_bytes(bytes(data))


def frame_offsets(path) -> list[tuple[int, int]]:
    """``(start, end)`` byte offsets of every valid frame in a segment."""
    data = Path(path).read_bytes()
    offsets = []
    cursor = 0
    while cursor + _HEADER.size <= len(data):
        length, _ = _HEADER.unpack(data[cursor : cursor + _HEADER.size])
        end = cursor + _HEADER.size + length
        if end > len(data):
            break
        offsets.append((cursor, end))
        cursor = end
    return offsets


# --------------------------------------------------------------------- #
# Legacy on-disk layouts (frozen copies of the earlier writers)
# --------------------------------------------------------------------- #
def write_format1_snapshot(directory, seq: int, state: dict) -> Path:
    """Write ``snapshot-<seq>.json`` exactly as the format-1 writer did.

    One JSON document ``{"format": 1, "seq", "crc", "state"}`` whose CRC
    covers the sorted, compact re-encoding of ``state``.
    """
    canonical = json.dumps(
        state, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    document = {
        "format": 1,
        "seq": seq,
        "crc": zlib.crc32(canonical),
        "state": state,
    }
    path = Path(directory) / f"snapshot-{seq:012d}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, allow_nan=False)
    return path


def append_event_records(path, first_seq: int, event_dicts) -> int:
    """Append one per-event WAL frame per event, as the old persister did.

    Each record is ``{"event": <event dict>, "seq": n}``; returns the last
    sequence number written.
    """
    seq = first_seq - 1
    with open(path, "ab") as handle:
        for event in event_dicts:
            seq += 1
            data = json.dumps(
                {"event": event, "seq": seq}, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
            handle.write(_HEADER.pack(len(data), zlib.crc32(data)))
            handle.write(data)
    return seq
