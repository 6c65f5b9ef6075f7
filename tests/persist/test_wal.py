"""WAL framing, torn-tail tolerance, rotation and pruning."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.persist import PersistError, WriteAheadLog, read_wal_records

from corruption import flip_byte, frame_offsets, tear_tail, wal_segments

_HEADER = struct.Struct("<II")


def write_log(directory, count: int, fsync: bool = False) -> WriteAheadLog:
    wal = WriteAheadLog(directory, fsync=fsync)
    for index in range(count):
        wal.append({"event": {"kind": "tick", "time": index}})
    wal.commit()
    return wal


class TestFraming:
    def test_append_commit_read_roundtrip(self, persist_dir):
        wal = write_log(persist_dir, 5)
        records = wal.records()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert records[2].payload["event"] == {"kind": "tick", "time": 2}
        wal.close()

    def test_frames_carry_length_and_crc(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.close()
        (path,) = wal_segments(persist_dir)
        data = path.read_bytes()
        offset = 0
        for _ in range(3):
            length, crc = _HEADER.unpack(data[offset : offset + _HEADER.size])
            body = data[offset + _HEADER.size : offset + _HEADER.size + length]
            assert zlib.crc32(body) == crc
            offset += _HEADER.size + length
        assert offset == len(data)

    def test_append_on_closed_log_raises(self, persist_dir):
        wal = write_log(persist_dir, 1)
        wal.close()
        with pytest.raises(PersistError):
            wal.append({"event": {}})
        wal.close()  # idempotent

    def test_non_finite_floats_are_rejected_at_append(self, persist_dir):
        wal = WriteAheadLog(persist_dir, fsync=False)
        with pytest.raises(ValueError):
            wal.append({"event": {"value": float("nan")}})
        wal.close()

    def test_missing_segment_reads_empty(self, tmp_path):
        assert read_wal_records(tmp_path / "wal-000000000001.log") == []


class TestTornTail:
    def test_every_torn_byte_offset_keeps_the_committed_prefix(self, persist_dir):
        """Cut the final frame at *every* byte boundary: reads never raise
        and always return exactly the records before the torn one."""
        wal = write_log(persist_dir, 4)
        wal.close()
        (path,) = wal_segments(persist_dir)
        pristine = path.read_bytes()
        frames = frame_offsets(path)
        last_start, last_end = frames[-1]
        for cut in range(last_start, last_end):
            path.write_bytes(pristine[:cut])
            records = read_wal_records(path)
            assert [r.seq for r in records] == [1, 2, 3]
        path.write_bytes(pristine)
        assert [r.seq for r in read_wal_records(path)] == [1, 2, 3, 4]

    def test_repair_truncates_the_torn_suffix(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.close()
        (path,) = wal_segments(persist_dir)
        tear_tail(path, drop_bytes=2)
        read_wal_records(path, repair=True)
        frames = frame_offsets(path)
        assert len(frames) == 2
        assert path.stat().st_size == frames[-1][1]

    def test_crc_mismatch_stops_the_read(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.close()
        (path,) = wal_segments(persist_dir)
        start, end = frame_offsets(path)[1]
        flip_byte(path, start + _HEADER.size)  # corrupt record 2's body
        assert [r.seq for r in read_wal_records(path)] == [1]

    def test_reopen_repairs_and_resumes_the_sequence(self, persist_dir):
        wal = write_log(persist_dir, 5)
        wal.close()
        (path,) = wal_segments(persist_dir)
        tear_tail(path, drop_bytes=3)  # record 5 is torn

        reopened = WriteAheadLog(persist_dir, fsync=False)
        assert reopened.last_seq == 4
        seq = reopened.append({"event": {"kind": "tick", "time": 99}})
        reopened.commit()
        assert seq == 5
        records = reopened.records()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert records[-1].payload["event"]["time"] == 99
        reopened.close()


class TestRotation:
    def test_rotate_opens_a_new_segment_named_for_the_next_seq(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.rotate()
        wal.append({"event": {"kind": "tick", "time": 3}})
        wal.commit()
        segments = wal.segments()
        assert [start for start, _ in segments] == [1, 4]
        assert [r.seq for r in wal.records()] == [1, 2, 3, 4]
        assert [r.seq for r in wal.records(after_seq=3)] == [4]
        wal.close()

    def test_prune_drops_only_fully_covered_segments(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.rotate()  # wal-1 covers 1..3, new segment starts at 4
        wal.append({"event": {"kind": "tick", "time": 3}})
        wal.commit()
        assert wal.prune(through_seq=2) == []  # record 3 not covered
        removed = wal.prune(through_seq=3)
        assert len(removed) == 1
        assert [start for start, _ in wal.segments()] == [4]
        wal.close()

    def test_prune_never_deletes_the_active_segment(self, persist_dir):
        wal = write_log(persist_dir, 2)
        assert wal.prune(through_seq=10) == []
        assert len(wal.segments()) == 1
        wal.close()

    def test_empty_rotated_segment_still_resumes_numbering(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.rotate()
        wal.close()  # the new segment holds no records
        reopened = WriteAheadLog(persist_dir, fsync=False)
        assert reopened.last_seq == 3
        assert reopened.append({"event": {}}) == 4
        reopened.close()

    def test_stats_counters(self, persist_dir):
        wal = write_log(persist_dir, 3)
        wal.rotate()
        stats = wal.stats()
        assert stats == {
            "last_seq": 3,
            "segments": 2,
            "appended": 3,
            "commits": 1,
            "rewinds": 0,
            "dirty": False,
        }
        wal.close()


class TestBatchRecords:
    def test_a_record_spans_one_sequence_number_per_event(self, persist_dir):
        wal = WriteAheadLog(persist_dir, fsync=False)
        assert wal.append({"event": {"kind": "tick", "time": 0}}) == 1
        assert wal.append({"events": [{}, {}, {}]}, span=3) == 4
        assert wal.append({"event": {"kind": "tick", "time": 1}}) == 5
        wal.commit()
        records = wal.records()
        assert [(r.seq, r.span, r.last_seq) for r in records] == [
            (1, 1, 1),
            (2, 3, 4),
            (5, 1, 5),
        ]
        # Single-event frames keep the old layout: no "span" key.
        assert "span" not in records[0].payload
        assert records[1].payload["span"] == 3
        wal.close()

    def test_reopen_resumes_after_the_last_spanned_number(self, persist_dir):
        wal = WriteAheadLog(persist_dir, fsync=False)
        wal.append({"events": [{}, {}]}, span=2)
        wal.close()
        reopened = WriteAheadLog(persist_dir, fsync=False)
        assert reopened.last_seq == 2
        assert reopened.append({"event": {}}) == 3
        reopened.close()

    def test_a_torn_batch_record_drops_as_a_whole(self, persist_dir):
        wal = WriteAheadLog(persist_dir, fsync=False)
        wal.append({"event": {}})
        wal.append({"events": [{}, {}, {}, {}]}, span=4)
        wal.close()
        (path,) = wal_segments(persist_dir)
        start, end = frame_offsets(path)[-1]
        tear_tail(path, (end - start) // 2)
        reopened = WriteAheadLog(persist_dir, fsync=False)
        assert reopened.last_seq == 1
        assert [r.seq for r in reopened.records()] == [1]
        reopened.close()

    def test_a_frame_claiming_no_span_stops_the_read(self, persist_dir):
        wal = write_log(persist_dir, 2)
        wal.close()
        (path,) = wal_segments(persist_dir)
        data = b'{"events":[],"seq":3,"span":0}'
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(len(data), zlib.crc32(data)) + data)
        assert [r.seq for r in read_wal_records(path)] == [1, 2]

    def test_span_must_be_positive(self, persist_dir):
        wal = WriteAheadLog(persist_dir, fsync=False)
        with pytest.raises(PersistError):
            wal.append({"events": []}, span=0)
        assert wal.last_seq == 0
        wal.close()


class TestDirectoryFsync:
    """Creating a segment is a directory change: with ``fsync=True`` the
    directory is fsynced too, or a machine crash could lose the file."""

    def test_new_segments_fsync_the_directory(self, persist_dir, fsynced_kinds):
        wal = write_log(persist_dir, 2, fsync=True)
        assert "dir" in fsynced_kinds
        fsynced_kinds.clear()
        wal.rotate()
        assert "dir" in fsynced_kinds
        wal.close()

    def test_fsync_off_never_fsyncs_the_directory(self, persist_dir, fsynced_kinds):
        wal = write_log(persist_dir, 2, fsync=False)
        wal.rotate()
        wal.close()
        assert "dir" not in fsynced_kinds
