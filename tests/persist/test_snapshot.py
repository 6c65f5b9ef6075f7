"""Snapshot atomicity, CRC validation and corrupted-newest fallback."""

from __future__ import annotations

import json

import pytest

from repro.persist import FORMAT_VERSION, SnapshotStore

from corruption import flip_byte, snapshot_files, tear_tail, write_format1_snapshot


def store(directory) -> SnapshotStore:
    return SnapshotStore(directory, fsync=False)


def test_write_latest_roundtrip(persist_dir):
    snapshots = store(persist_dir)
    state = {"offers": [1, 2, 3], "nested": {"a": 0.5}}
    path = snapshots.write(7, state)
    assert path.name == "snapshot-000000000007.json"
    assert snapshots.latest() == (7, state)


def test_no_temp_file_survives_a_write(persist_dir):
    snapshots = store(persist_dir)
    snapshots.write(1, {"x": 1})
    leftovers = [p.name for p in snapshots.directory.iterdir()]
    assert leftovers == ["snapshot-000000000001.json"]


def test_opening_the_store_deletes_a_killed_writers_temp_file(persist_dir):
    """A process killed between the temp write and the rename leaves a
    ``.tmp`` behind; the next store on the directory removes it and
    leaves every other file alone."""
    store(persist_dir).write(1, {"x": 1})
    stale = persist_dir / "snapshot-000000000009.json.tmp"
    stale.write_bytes(b'{"format":2,"seq":9,"crc":0}\n{"x"')
    unrelated = persist_dir / "notes.tmp"
    unrelated.write_bytes(b"keep me")
    reopened = store(persist_dir)
    assert sorted(p.name for p in persist_dir.iterdir()) == [
        "notes.tmp",
        "snapshot-000000000001.json",
    ]
    assert reopened.latest() == (1, {"x": 1})


def test_prune_keeps_the_newest(persist_dir):
    snapshots = store(persist_dir)
    for seq in (1, 5, 9):
        snapshots.write(seq, {"seq": seq})
    assert [seq for seq, _ in snapshots.paths()] == [5, 9]
    assert snapshots.latest() == (9, {"seq": 9})


def test_corrupted_newest_falls_back_to_the_previous(persist_dir):
    snapshots = store(persist_dir)
    snapshots.write(3, {"seq": 3})
    snapshots.write(8, {"seq": 8})
    newest = snapshot_files(persist_dir)[-1]
    flip_byte(newest, newest.stat().st_size // 2)
    assert snapshots.latest() == (3, {"seq": 3})


def test_truncated_newest_falls_back_to_the_previous(persist_dir):
    snapshots = store(persist_dir)
    snapshots.write(3, {"seq": 3})
    snapshots.write(8, {"seq": 8})
    tear_tail(snapshot_files(persist_dir)[-1], drop_bytes=10)
    assert snapshots.latest() == (3, {"seq": 3})


def test_all_snapshots_corrupt_reads_as_none(persist_dir):
    snapshots = store(persist_dir)
    snapshots.write(2, {"seq": 2})
    for path in snapshot_files(persist_dir):
        tear_tail(path, drop_bytes=5)
    assert snapshots.latest() is None


def test_crc_guards_the_state_not_just_the_json(persist_dir):
    """A snapshot that parses as JSON but whose state was altered (a
    partial-sector overwrite) must be skipped by the CRC check."""
    snapshots = store(persist_dir)
    path = snapshots.write(4, {"value": 10})
    header, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(body) == {"value": 10}
    # Altered state, stale CRC: still valid JSON on both lines.
    path.write_bytes(header + b"\n" + body.replace(b"10", b"11"))
    assert snapshots.latest() is None


def test_crc_guards_the_state_of_a_format1_snapshot(persist_dir):
    snapshots = store(persist_dir)
    path = write_format1_snapshot(persist_dir, 4, {"value": 10})
    assert snapshots.latest() == (4, {"value": 10})
    document = json.loads(path.read_text())
    document["state"]["value"] = 11  # altered state, stale CRC
    path.write_text(json.dumps(document))
    assert snapshots.latest() is None


def test_future_format_version_is_skipped(persist_dir):
    snapshots = store(persist_dir)
    path = snapshots.write(4, {"value": 10})
    header, body = path.read_bytes().split(b"\n", 1)
    document = json.loads(header)
    assert document["format"] == FORMAT_VERSION
    document["format"] = FORMAT_VERSION + 1
    path.write_bytes(json.dumps(document).encode() + b"\n" + body)
    assert snapshots.latest() is None


def test_future_format_version_of_a_format1_document_is_skipped(persist_dir):
    snapshots = store(persist_dir)
    path = write_format1_snapshot(persist_dir, 4, {"value": 10})
    document = json.loads(path.read_text())
    document["format"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(document))
    assert snapshots.latest() is None


def test_a_flipped_byte_anywhere_skips_the_snapshot(persist_dir):
    """Every byte of the header and the body is covered: the header by its
    own JSON + format/seq/CRC checks, the body by the CRC."""
    snapshots = store(persist_dir)
    path = snapshots.write(4, {"values": [1, 2.5, "x"], "nested": {"a": None}})
    pristine = path.read_bytes()
    for offset in range(len(pristine)):
        path.write_bytes(pristine)
        flip_byte(path, offset)
        assert snapshots.latest() is None, offset
    path.write_bytes(pristine)
    assert snapshots.latest() is not None


def test_the_crc_covers_exactly_the_written_body(persist_dir):
    import zlib

    snapshots = store(persist_dir)
    path = snapshots.write(4, {"value": 10})
    header, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(header) == {
        "format": FORMAT_VERSION,
        "seq": 4,
        "crc": zlib.crc32(body),
    }


def test_mismatched_filename_seq_is_skipped(persist_dir):
    snapshots = store(persist_dir)
    path = snapshots.write(4, {"value": 10})
    path.rename(path.with_name("snapshot-000000000009.json"))
    assert snapshots.latest() is None


def test_non_finite_state_is_rejected_at_write(persist_dir):
    snapshots = store(persist_dir)
    with pytest.raises(ValueError):
        snapshots.write(1, {"value": float("inf")})


@pytest.mark.parametrize("fsync", [True, False])
def test_the_rename_is_made_durable_only_with_fsync(persist_dir, fsynced_kinds, fsync):
    """With ``fsync=True`` the directory is fsynced after ``os.replace``;
    without it nothing is fsynced at all."""
    snapshots = SnapshotStore(persist_dir, fsync=fsync)
    snapshots.write(1, {"x": 1})
    if fsync:
        assert fsynced_kinds == ["file", "dir"]
    else:
        assert fsynced_kinds == []
