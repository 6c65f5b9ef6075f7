"""The PR 7 acceptance bar: crash → recover ≡ fresh full replay.

For any interleaving of events, any checkpoint cadence and any crash
point — including torn WAL tails cut at arbitrary byte offsets — a
session rebuilt from its persisted directory is *bit-identical* (same
``export_state`` document) to a fresh session that replayed the full
committed event prefix, on every compute backend.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import NUMPY_AVAILABLE
from repro.faults import WAL_FSYNC, FaultPlan, FaultRule
from repro.io import event_to_dict
from repro.persist import (
    PersistError,
    SessionPersister,
    StateCorruptError,
    load_config,
    save_config,
)
from repro.service import FlexSession, ServiceError, SessionConfig, StreamRequest
from repro.stream import OfferArrived, StreamingEngine, Tick, population_events
from repro.workloads import neighbourhood_scenario

from corruption import (
    append_event_records,
    frame_offsets,
    wal_segments,
    write_format1_snapshot,
)
from strategies import interleavings

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

BACKENDS = [
    "reference",
    pytest.param("numpy", marks=requires_numpy),
    pytest.param("sharded", marks=requires_numpy),
]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def fingerprint(session: FlexSession) -> str:
    """The bit-identity probe: the full canonical engine state."""
    return json.dumps(session.engine.export_state(), sort_keys=True)


def durable_config(directory, backend: str = "reference", **overrides) -> SessionConfig:
    defaults = dict(
        backend=backend,
        persist_dir=directory,
        persist_fsync=False,  # the tests crash the process model, not the kernel
        window_capacity=8,
        # relative_area is undefined for zero-energy offers the interleaving
        # strategy may generate — configure only totally-defined measures.
        measures=("time", "energy"),
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


def crash(session: FlexSession) -> None:
    """Abandon the session the way a crash would: no final checkpoint.

    The WAL already holds every committed record; dropping the persister
    before ``close()`` frees backend resources without the orderly
    checkpoint-then-close a graceful shutdown performs.  A snapshot write
    still in flight is let finish first, so the crash lands at a defined
    point instead of racing the recovery that follows.
    """
    session._persister.join()
    session._persister.wal.close()
    session._persister = None
    session.close()


def spaced_ticks(events: list, every: int = 2) -> list:
    """Weave a Tick after every ``every``-th event, driving window sampling."""
    woven = []
    for index, event in enumerate(events):
        woven.append(event)
        if index % every == every - 1:
            woven.append(Tick(index))
    return woven


def requests_of(events: list, chunk_size: int, bulk: bool) -> list:
    """Cut the stream into ``(events, bulk)`` requests of <= chunk_size.

    With ``bulk`` every run of consecutive arrivals goes out as bulk
    requests of its own, and every other event alone.
    """
    if not bulk:
        return [
            (tuple(events[start : start + chunk_size]), False)
            for start in range(0, len(events), chunk_size)
        ]
    requests: list = []
    run: list = []
    for event in events:
        if isinstance(event, OfferArrived):
            run.append(event)
            if len(run) == chunk_size:
                requests.append((tuple(run), True))
                run = []
        else:
            if run:
                requests.append((tuple(run), True))
                run = []
            requests.append(((event,), False))
    if run:
        requests.append((tuple(run), True))
    return requests


def example_events(households: int = 3) -> list:
    """A small deterministic event stream for the byte-offset tests."""
    scenario = neighbourhood_scenario(households=households, seed=11, horizon=16)
    return list(population_events(scenario.flex_offers))


#: Where the last served request's background checkpoint stops when the
#: process dies: it never started writing, or it wrote the snapshot but
#: did not prune the WAL segments the snapshot covers.
BETWEEN_REQUESTS = "between requests"
NOT_WRITTEN = "captured, snapshot not written"
NOT_PRUNED = "snapshot written, not pruned"


def serve_then_crash(session: FlexSession, chunks: list, crash_point: str) -> list:
    """Serve ``chunks``, stopping the last one's checkpoint at ``crash_point``.

    Returns the sequence numbers the interrupted checkpoints covered.
    """
    for chunk, chunk_bulk in chunks[:-1]:
        session.stream(StreamRequest(events=chunk, bulk=chunk_bulk))
    persister = session._persister
    persister.join()  # earlier checkpoints complete; only the last stops
    interrupted: list = []
    if crash_point == NOT_WRITTEN:
        persister._write = lambda capture: interrupted.append(capture.seq)
    elif crash_point == NOT_PRUNED:
        persister.wal.prune = interrupted.append
    for chunk, chunk_bulk in chunks[-1:]:
        session.stream(StreamRequest(events=chunk, bulk=chunk_bulk))
    crash(session)
    return interrupted


def snapshot_seqs(directory) -> list:
    return sorted(int(path.name[9:-5]) for path in directory.glob("snapshot-*.json"))


def check_interrupted_checkpoints(directory, crash_point: str, interrupted: list):
    """The directory really is in the state ``crash_point`` names."""
    for seq in interrupted:
        if crash_point == NOT_WRITTEN:
            assert seq not in snapshot_seqs(directory)
        else:
            assert seq in snapshot_seqs(directory)
            # The segment holding the covered records survived.
            assert int(wal_segments(directory)[0].name[4:-4]) <= seq


# --------------------------------------------------------------------- #
# The crash-point property
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    data=interleavings(min_offers=1, max_offers=8),
    chunk_size=st.integers(min_value=1, max_value=4),
    crash_fraction=st.floats(min_value=0.0, max_value=1.0),
    checkpoint_events=st.integers(min_value=1, max_value=6),
    bulk=st.booleans(),
    crash_point=st.sampled_from([BETWEEN_REQUESTS, NOT_WRITTEN, NOT_PRUNED]),
)
def test_recovery_is_bit_identical_to_full_replay_at_any_crash_point(
    tmp_path_factory,
    backend,
    data,
    chunk_size,
    crash_fraction,
    checkpoint_events,
    bulk,
    crash_point,
):
    events, _survivors = data
    # Bulk requests carry runs of arrivals: weave ticks in less densely.
    events = spaced_ticks(events, every=4 if bulk else 2)
    directory = tmp_path_factory.mktemp("crash")
    config = durable_config(
        str(directory / "s"), backend=backend, checkpoint_events=checkpoint_events
    )

    chunks = requests_of(events, chunk_size, bulk)
    served = max(0, min(len(chunks), int(round(crash_fraction * len(chunks)))))

    # The durable session: serve some requests, then crash.
    session = FlexSession(config)
    interrupted = serve_then_crash(session, chunks[:served], crash_point)
    committed = [event for chunk, _ in chunks[:served] for event in chunk]
    check_interrupted_checkpoints(directory / "s", crash_point, interrupted)

    # Recover from disk.
    recovered = FlexSession(config)
    try:
        if committed:
            assert recovered.recovery is not None
            # Every committed event is accounted for: covered by the
            # snapshot watermark or replayed from the WAL tail.
            stats = recovered.recovery
            assert stats.snapshot_seq + stats.replayed == len(committed)
            # The request counter is restored from the last checkpoint —
            # never ahead of what was actually served.
            assert 0 <= recovered.requests_served <= served
        else:
            assert recovered.recovery is None  # nothing durable yet

        # The reference: a fresh, non-durable session replaying everything.
        with FlexSession(
            SessionConfig(
                backend=backend,
                window_capacity=8,
                measures=("time", "energy"),
            )
        ) as fresh:
            if committed:
                fresh.stream(StreamRequest(events=tuple(committed)))
            assert fingerprint(recovered) == fingerprint(fresh)

        # The recovered session is live: it keeps serving and persisting.
        recovered.stream(StreamRequest(events=(Tick(9_999),)))
    finally:
        recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("crash_point", [NOT_WRITTEN, NOT_PRUNED])
def test_crash_inside_a_background_checkpoint(tmp_path, backend, crash_point):
    """Every request checkpoints; the last one's write stops at
    ``crash_point``.  Recovery starts from the previous snapshot (not
    written) or the new one (not pruned) and still matches a full replay."""
    events = spaced_ticks(example_events(households=6))
    directory = tmp_path / "s"
    config = durable_config(str(directory), backend=backend, checkpoint_events=1)
    chunks = requests_of(events, 3, bulk=True)

    session = FlexSession(config)
    interrupted = serve_then_crash(session, chunks, crash_point)
    assert interrupted == [len(events)]
    check_interrupted_checkpoints(directory, crash_point, interrupted)

    recovered = FlexSession(config)
    try:
        last = len(chunks[-1][0])
        stats = recovered.recovery
        if crash_point == NOT_WRITTEN:
            assert (stats.snapshot_seq, stats.replayed) == (len(events) - last, last)
        else:
            assert (stats.snapshot_seq, stats.replayed) == (len(events), 0)
        assert fingerprint(recovered) == fresh_fingerprint(backend, events)
    finally:
        recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_torn_wal_tail_recovers_the_committed_prefix(tmp_path, backend):
    """Tear the final WAL frame at several byte offsets: recovery silently
    drops the torn record and lands exactly one event earlier."""
    events = example_events()
    directory = tmp_path / "s"
    config = durable_config(str(directory), backend=backend, checkpoint_events=10_000)

    session = FlexSession(config)
    for event in events:
        session.stream(StreamRequest(events=(event,)))
    crash(session)

    segment = wal_segments(directory)[-1]
    pristine = segment.read_bytes()
    frames = frame_offsets(segment)
    # Cut inside the final frame (a torn write) and at its start boundary
    # (a crash before the append hit the disk at all).
    last_start, last_end = frames[-1]
    for cut in (last_start, last_start + 4, (last_start + last_end) // 2, last_end - 1):
        segment.write_bytes(pristine[:cut])
        recovered = FlexSession(config)
        try:
            with FlexSession(
                SessionConfig(
                    backend=backend,
                    window_capacity=8,
                    measures=("time", "energy"),
                )
            ) as fresh:
                fresh.stream(StreamRequest(events=tuple(events[:-1])))
                assert fingerprint(recovered) == fingerprint(fresh)
        finally:
            crash(recovered)
    segment.write_bytes(pristine)


@pytest.mark.parametrize("backend", BACKENDS)
def test_torn_batch_record_drops_the_whole_bulk_request(tmp_path, backend):
    """A bulk request is one WAL record: cut anywhere inside it, recovery
    drops the whole request and lands on the committed prefix."""
    events = example_events(households=6)
    head, batch = events[:3], events[3:]
    directory = tmp_path / "s"
    config = durable_config(str(directory), backend=backend, checkpoint_events=10_000)

    session = FlexSession(config)
    for event in head:
        session.stream(StreamRequest(events=(event,)))
    session.stream(StreamRequest(events=tuple(batch), bulk=True))
    crash(session)

    segment = wal_segments(directory)[-1]
    pristine = segment.read_bytes()
    frames = frame_offsets(segment)
    assert len(frames) == len(head) + 1  # the whole batch is one frame
    last_start, last_end = frames[-1]
    with FlexSession(
        SessionConfig(backend=backend, window_capacity=8, measures=("time", "energy"))
    ) as fresh:
        fresh.stream(StreamRequest(events=tuple(head)))
        expected = fingerprint(fresh)
    for cut in (last_start + 4, (last_start + last_end) // 2, last_end - 1):
        segment.write_bytes(pristine[:cut])
        recovered = FlexSession(config)
        try:
            assert recovered.recovery.replayed == len(head)
            assert not any(event.offer_id in recovered.engine for event in batch)
            assert fingerprint(recovered) == expected
        finally:
            crash(recovered)
    segment.write_bytes(pristine)
    recovered = FlexSession(config)
    try:
        assert recovered.recovery.replayed == len(events)
        assert len(recovered.engine) == len(events)
    finally:
        crash(recovered)


# --------------------------------------------------------------------- #
# Older on-disk layouts
# --------------------------------------------------------------------- #
def fresh_fingerprint(backend: str, events: list) -> str:
    """The fingerprint of a non-durable session replaying ``events``."""
    with FlexSession(
        SessionConfig(backend=backend, window_capacity=8, measures=("time", "energy"))
    ) as fresh:
        fresh.stream(StreamRequest(events=tuple(events)))
        return fingerprint(fresh)


def legacy_directory(directory, config: SessionConfig, events: list, cut: int) -> None:
    """A session directory as the format-1 writer left it.

    Events ``1..cut`` sit in a covered per-event segment and in a format-1
    snapshot at ``cut``; the rest form a per-event segment after it.
    """
    save_config(directory, config.as_dict())
    with FlexSession(
        SessionConfig(
            backend=config.backend,
            window_capacity=config.window_capacity,
            measures=config.measures,
        )
    ) as source:
        source.stream(StreamRequest(events=tuple(events[:cut])))
        state = source.engine.export_state()
    state["session"] = {"requests_served": 1}
    dicts = [event_to_dict(event) for event in events]
    append_event_records(directory / "wal-000000000001.log", 1, dicts[:cut])
    write_format1_snapshot(directory, cut, state)
    append_event_records(directory / f"wal-{cut + 1:012d}.log", cut + 1, dicts[cut:])


@pytest.mark.parametrize("backend", BACKENDS)
def test_format1_snapshot_with_per_event_segments_recovers(tmp_path, backend):
    events = spaced_ticks(example_events(households=6))
    directory = tmp_path / "s"
    config = durable_config(str(directory), backend=backend)
    legacy_directory(directory, config, events, cut=5)

    recovered = FlexSession(config)
    try:
        assert recovered.recovery.snapshot_seq == 5
        assert recovered.recovery.replayed == len(events) - 5
        assert recovered.requests_served == 1
        assert fingerprint(recovered) == fresh_fingerprint(backend, events)
    finally:
        recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_per_event_segment_followed_by_batch_records_recovers(tmp_path, backend):
    events = example_events(households=6)
    head, batch = events[:4], events[4:]
    directory = tmp_path / "s"
    config = durable_config(str(directory), backend=backend, checkpoint_events=10_000)
    save_config(directory, config.as_dict())
    append_event_records(
        directory / "wal-000000000001.log",
        1,
        [event_to_dict(event) for event in head],
    )

    session = FlexSession(config)  # replays the old records, appends after
    assert session.recovery.replayed == len(head)
    session.stream(StreamRequest(events=tuple(batch[:3]), bulk=True))
    session.stream(StreamRequest(events=tuple(batch[3:]), bulk=True))
    crash(session)
    assert len(frame_offsets(wal_segments(directory)[-1])) == len(head) + 2

    recovered = FlexSession(config)
    try:
        assert recovered.recovery.snapshot_seq == 0
        assert recovered.recovery.replayed == len(events)
        assert fingerprint(recovered) == fresh_fingerprint(backend, events)
    finally:
        recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_format1_directory_carries_on_in_the_new_layout(tmp_path, backend):
    """Recover a format-1 directory, keep serving bulk requests and
    checkpointing in the new layout, crash, and recover again."""
    events = spaced_ticks(example_events(households=6))
    extra = list(
        population_events(
            neighbourhood_scenario(households=6, seed=12, horizon=16).flex_offers,
            start_index=100,
        )
    )
    directory = tmp_path / "s"
    config = durable_config(str(directory), backend=backend, checkpoint_events=10_000)
    legacy_directory(directory, config, events, cut=5)

    session = FlexSession(config)
    session.stream(StreamRequest(events=tuple(extra[:2]), bulk=True))
    session.checkpoint()  # a format-2 snapshot beside the format-1 one
    session.stream(StreamRequest(events=tuple(extra[2:]), bulk=True))
    crash(session)

    recovered = FlexSession(config)
    try:
        assert recovered.recovery.snapshot_seq == len(events) + 2
        assert recovered.recovery.replayed == len(extra) - 2
        assert fingerprint(recovered) == fresh_fingerprint(backend, events + extra)
    finally:
        recovered.close()


# --------------------------------------------------------------------- #
# SessionPersister mechanics
# --------------------------------------------------------------------- #
def test_checkpoint_rotates_and_prunes(persist_dir):
    events = example_events()
    persister = SessionPersister(persist_dir, fsync=False)
    engine = StreamingEngine()
    for event in events:
        engine.apply(event)
        persister.log_event(event)
    stats = persister.checkpoint(engine, extra={"requests_served": 3})
    assert stats["snapshot_seq"] == len(events)
    assert stats["live"] == len(engine)
    # The old segment is fully covered by the snapshot, hence pruned.
    starts = [int(p.name[4:-4]) for p in wal_segments(persist_dir)]
    assert starts == [len(events) + 1]
    assert not persister.dirty
    persister.close()


def test_maybe_checkpoint_triggers_on_event_count(persist_dir):
    events = example_events()
    persister = SessionPersister(persist_dir, fsync=False, checkpoint_events=3)
    engine = StreamingEngine()
    checkpoints = 0
    for event in events:
        engine.apply(event)
        persister.log_event(event)
        if persister.maybe_checkpoint(engine) is not None:
            checkpoints += 1
    assert checkpoints == len(events) // 3
    persister.close()


def test_maybe_checkpoint_triggers_on_age(persist_dir):
    clock = FakeClock()
    persister = SessionPersister(
        persist_dir,
        fsync=False,
        checkpoint_events=10_000,
        checkpoint_age_s=30.0,
        clock=clock,
    )
    engine = StreamingEngine()
    event = example_events()[0]
    engine.apply(event)
    persister.log_event(event)
    assert persister.maybe_checkpoint(engine) is None
    clock.advance(31.0)
    assert persister.maybe_checkpoint(engine) is not None
    # Age-based checkpoints need *something* pending: advancing the clock
    # again without new events stays quiet.
    clock.advance(31.0)
    assert persister.maybe_checkpoint(engine) is None
    persister.close()


def test_stats_stay_consistent_while_the_writer_runs(tmp_path):
    """Every request fires the policy, so a snapshot write runs beside
    each next request, while another thread polls ``stats()`` under a
    1 µs switch interval.  The durable watermark never runs backwards or
    past the log, and no write is lost."""
    config = durable_config(str(tmp_path / "s"), checkpoint_events=1)
    events = spaced_ticks(example_events(households=6))
    session = FlexSession(config)
    persister = session._persister
    stop = threading.Event()
    seen: list = []

    def poll() -> None:
        while not stop.is_set():
            stats = persister.stats()
            seen.append((stats["snapshot_seq"], stats["last_seq"], stats["pending"]))

    reader = threading.Thread(target=poll)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for event in events:
            session.stream(StreamRequest(events=(event,)))
    finally:
        stop.set()
        reader.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert seen
    durable = [seq for seq, _, _ in seen]
    assert durable == sorted(durable)
    assert all(seq <= last and pending >= 0 for seq, last, pending in seen)
    persister.join()
    stats = persister.stats()
    assert stats["checkpoints"] == len(events)
    assert stats["snapshot_seq"] == stats["last_seq"] == len(events)
    crash(session)

    recovered = FlexSession(config)
    try:
        assert recovered.recovery.replayed == 0
        assert fingerprint(recovered) == fresh_fingerprint("reference", events)
    finally:
        recovered.close()


def test_close_folds_the_dirty_tail_into_a_final_checkpoint(persist_dir):
    events = example_events()
    persister = SessionPersister(persist_dir, fsync=False)
    engine = StreamingEngine()
    for event in events:
        engine.apply(event)
        persister.log_event(event)
    persister.close(engine, extra={"requests_served": 7})

    reopened = SessionPersister(persist_dir, fsync=False)
    fresh = StreamingEngine()
    stats, extra = reopened.recover(fresh)
    assert stats.replayed == 0  # everything came from the final snapshot
    assert stats.snapshot_seq == len(events)
    assert extra == {"requests_served": 7}
    assert json.dumps(fresh.export_state(), sort_keys=True) == json.dumps(
        engine.export_state(), sort_keys=True
    )
    reopened.close()


def test_recover_stops_at_a_sequence_gap(persist_dir):
    """A mid-log hole must not be replayed across: events after the gap
    could apply to the wrong state."""
    events = example_events()
    head, tail = events[:3], events[3:]
    persister = SessionPersister(persist_dir, fsync=False)
    for event in head:
        persister.log_event(event)
    persister.commit()
    persister.wal.rotate()  # head lands in segment 1, tail in segment 2
    for event in tail:
        persister.log_event(event)
    persister.close()

    # Remove the first segment: records 1..3 vanish, the tail starts at 4.
    wal_segments(persist_dir)[0].unlink()
    reopened = SessionPersister(persist_dir, fsync=False)
    engine = StreamingEngine()
    stats, _ = reopened.recover(engine)
    assert stats.snapshot_seq == 0 and stats.replayed == 0
    assert len(engine) == 0
    reopened.close()


def test_recover_stops_at_a_batch_record_whose_span_disagrees(persist_dir):
    events = example_events(households=6)
    persister = SessionPersister(persist_dir, fsync=False)
    persister.log_event(events[0])
    # A batch record claiming one more event than it holds.
    persister.wal.append(
        {"events": [event_to_dict(event) for event in events[1:3]]}, span=3
    )
    persister.close()
    reopened = SessionPersister(persist_dir, fsync=False)
    engine = StreamingEngine()
    stats, _ = reopened.recover(engine)
    assert stats.replayed == 1
    assert engine.live_ids() == [events[0].offer_id]
    reopened.close()


def test_a_policy_checkpoint_whose_commit_fails_suspends(persist_dir):
    """The commit before the capture fails: nothing is captured, no
    writer starts, and persistence suspends."""
    plan = FaultPlan([FaultRule(WAL_FSYNC, count=1)])
    persister = SessionPersister(
        persist_dir, fsync=True, checkpoint_events=1, faults=plan
    )
    engine = StreamingEngine()
    event = example_events()[0]
    engine.apply(event)
    persister.log_event(event)
    assert persister.maybe_checkpoint(engine) is None
    assert persister.degraded
    assert persister._writer is None
    assert persister.snapshots.paths() == []
    persister.close()


def test_a_second_trigger_joins_a_write_that_then_fails(persist_dir):
    """The next policy trigger waits for the in-flight write; when that
    write fails, it starts no checkpoint of its own."""
    persister = SessionPersister(persist_dir, fsync=False, checkpoint_events=1)
    release = threading.Event()

    def held_then_failing(seq, state):
        assert release.wait(timeout=30.0)
        raise OSError("disk gone")

    persister.snapshots.write = held_then_failing
    engine = StreamingEngine()
    first, second = example_events()[:2]
    engine.apply(first)
    persister.log_event(first)
    assert persister.maybe_checkpoint(engine)["snapshot_seq"] == 1
    writer = persister._writer
    engine.apply(second)
    assert persister.log_event(second) == 2  # the write is still held
    releaser = threading.Timer(0.05, release.set)
    releaser.start()
    assert persister.maybe_checkpoint(engine) is None
    releaser.join(timeout=30.0)
    assert not writer.is_alive()
    assert persister._writer is writer
    assert persister.degraded
    assert "disk gone" in persister.stats()["degraded_reason"]
    assert persister.stats()["snapshot_seq"] == 0
    persister.close()


def test_log_event_returns_the_last_sequence_number_of_a_batch(persist_dir):
    events = example_events(households=6)
    persister = SessionPersister(persist_dir, fsync=False, checkpoint_events=4)
    engine = StreamingEngine()
    engine.bulk_arrive(events[:3])
    assert persister.log_event(tuple(events[:3])) == 3
    assert persister.maybe_checkpoint(engine) is None  # 3 events < 4
    engine.bulk_arrive(events[3:5])
    assert persister.log_event(list(events[3:5])) == 5
    assert persister.maybe_checkpoint(engine)["snapshot_seq"] == 5
    assert persister.wal.appended == 2
    persister.close()


def test_persister_validation(persist_dir):
    with pytest.raises(PersistError):
        SessionPersister(persist_dir, checkpoint_events=0)
    with pytest.raises(PersistError):
        SessionPersister(persist_dir, checkpoint_age_s=0.0)


def test_closed_persister_refuses_checkpoints(persist_dir):
    persister = SessionPersister(persist_dir, fsync=False)
    persister.close()
    persister.close()  # idempotent
    with pytest.raises(PersistError):
        persister.checkpoint(StreamingEngine())


def test_config_sidecar_roundtrip(persist_dir):
    payload = {"backend": "reference", "seed": 3}
    save_config(persist_dir, payload)
    # A second save never clobbers the original (first-writer-wins).
    save_config(persist_dir, {"backend": "numpy"})
    assert load_config(persist_dir) == payload
    assert load_config(persist_dir / "missing") is None


@pytest.mark.parametrize(
    "content", [b"{torn", b"[1, 2]", b"\xff\xfe", b""], ids=["torn", "list", "bytes", "empty"]
)
def test_an_unreadable_config_sidecar_is_corrupt_state(persist_dir, content):
    persist_dir.mkdir(parents=True, exist_ok=True)
    (persist_dir / "config.json").write_bytes(content)
    with pytest.raises(StateCorruptError, match="config.json"):
        load_config(persist_dir)
    assert issubclass(StateCorruptError, PersistError)


# --------------------------------------------------------------------- #
# FlexSession integration seams
# --------------------------------------------------------------------- #
def test_checkpoint_requires_a_durable_session():
    with FlexSession(SessionConfig(backend="reference")) as session:
        assert session.recovery is None
        with pytest.raises(ServiceError):
            session.checkpoint()


def test_durable_session_stats_expose_persistence_and_recovery(tmp_path):
    config = durable_config(str(tmp_path / "s"))
    session = FlexSession(config)
    session.stream(StreamRequest(events=(Tick(1),)))
    session.checkpoint()
    crash(session)

    recovered = FlexSession(config)
    try:
        stats = recovered.stats()
        assert stats["persistence"]["snapshot_seq"] == 1
        assert stats["recovery"]["replayed"] == 0
        assert recovered.recovery.snapshot_seq == 1
    finally:
        recovered.close()


def test_graceful_close_then_reopen_replays_nothing(tmp_path):
    config = durable_config(str(tmp_path / "s"))
    events = example_events()
    session = FlexSession(config)
    session.stream(StreamRequest(events=tuple(events)))
    before = fingerprint(session)
    session.close()  # checkpoint-then-close

    recovered = FlexSession(config)
    try:
        assert recovered.recovery.replayed == 0
        assert fingerprint(recovered) == before
    finally:
        recovered.close()
