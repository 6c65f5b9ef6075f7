"""Batch arrival ≡ per-event arrival, over the engine's whole state.

``bulk_arrive`` and ``restore_state`` land a batch of arrivals in one step:
one packed-matrix append and one block write of the value columns, beside
the grid-index and aggregate additions.  These properties pin that the
result is exactly the state the same arrivals applied one by one produce —
not just the observable reports, but the packed columns, their exactness
flags, the auto-expiry heap and the degrade to the dictionary path — on
every backend.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import grouping_parameters, stream_flexoffers

from repro.backend import NUMPY_AVAILABLE
from repro.core import FlexOffer
from repro.measures.base import FlexibilityMeasure, MeasureCharacteristics
from repro.stream import OfferArrived, StreamError, StreamingEngine, Tick

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

BACKENDS = [
    "reference",
    pytest.param("numpy", marks=requires_numpy),
    pytest.param("sharded", marks=requires_numpy),
]


class QuirkyMeasure(FlexibilityMeasure):
    """A test measure whose values stress the value columns' exactness."""

    label = "Quirky"
    characteristics = MeasureCharacteristics(
        captures_time=True,
        captures_energy=False,
        captures_time_and_energy=False,
        captures_size=False,
    )


class MixedNumbers(QuirkyMeasure):
    """Ints for even earliest starts, floats for odd ones."""

    key = "mixed-numbers"

    def value(self, flex_offer: FlexOffer) -> float:
        start = flex_offer.earliest_start
        return start if start % 2 == 0 else start + 0.5


class HugeInts(QuirkyMeasure):
    """Ints past 2^62 and past the exact float64 range, and small ones."""

    key = "huge-ints"

    def value(self, flex_offer: FlexOffer) -> float:
        flexibility = flex_offer.time_flexibility
        if flexibility % 3 == 1:
            return (1 << 62) + 1 + flexibility
        if flexibility % 3 == 2:
            return (1 << 53) + 1
        return flexibility


class SometimesNaN(QuirkyMeasure):
    """NaN for two-slice offers, a finite float otherwise."""

    key = "sometimes-nan"

    def value(self, flex_offer: FlexOffer) -> float:
        duration = flex_offer.duration
        return math.nan if duration == 2 else float(duration)


def engine_measures() -> list:
    # absolute_area skips mixed-sign offers: the unsupported bookkeeping.
    return [
        "time",
        "energy",
        "absolute_area",
        MixedNumbers(),
        HugeInts(),
        SometimesNaN(),
    ]


#: Magnitudes beyond the packed matrix's int64 limit: the unpackable offer.
UNPACKABLE = FlexOffer(0, 1, [(0, 1 << 41)])


def build(backend, parameters, log: list) -> StreamingEngine:
    return StreamingEngine(
        parameters=parameters,
        measures=engine_measures(),
        window_capacity=4,
        auto_expire=True,
        backend=backend,
        on_arrived=lambda offer_id, *_: log.append(("arrived", offer_id)),
        on_expired=lambda offer_id, *_: log.append(("expired", offer_id)),
    )


def canonical(value) -> str:
    """A NaN-tolerant equality probe for reports and value dicts."""
    return repr(value)


def assert_same_state(batch: StreamingEngine, single: StreamingEngine) -> None:
    assert json.dumps(batch.export_state(), sort_keys=True) == json.dumps(
        single.export_state(), sort_keys=True
    )
    assert canonical(batch.report()) == canonical(single.report())
    assert batch.aggregates() == single.aggregates()
    assert batch.stats == single.stats
    assert canonical(batch._values) == canonical(single._values)
    assert batch._unsupported == single._unsupported
    assert batch._unsupported_counts == single._unsupported_counts
    assert batch._deadlines == single._deadlines
    assert (batch._live is None) == (single._live is None)
    if batch._live is None:
        return
    import numpy as np

    live, other = batch._live, single._live
    assert live._ids == other._ids
    assert live._rows == other._rows
    count = len(live._ids)
    assert np.array_equal(live._values[:count], other._values[:count], equal_nan=True)
    assert live._saw_int == other._saw_int
    assert live._saw_float == other._saw_float
    assert live._inexact == other._inexact
    assert live._int_max_abs == other._int_max_abs
    matrices = (batch.live_matrix(), single.live_matrix())
    for name in ("tes", "tls", "cmin", "cmax", "durations", "offsets", "amin", "amax"):
        assert np.array_equal(getattr(matrices[0], name), getattr(matrices[1], name))
    assert matrices[0].offers == matrices[1].offers


def assert_flags_follow_the_values(engine: StreamingEngine) -> None:
    """The column flags against the per-value rules, value by value.

    Valid while every offer that ever arrived is still live.
    """
    if engine._live is None:
        return
    live = engine._live
    for column, measure in enumerate(engine.measures):
        values = [
            cached[measure.key]
            for cached in engine._values.values()
            if measure.key in cached
        ]
        ints = [value for value in values if type(value) is int]
        exact_ints = [value for value in ints if abs(value) <= 1 << 62]
        floats = [value for value in values if type(value) is float]
        inexact = (
            len(exact_ints) < len(ints)
            or any(float(value) != value for value in exact_ints)
            or any(value != value for value in floats)
            or len(ints) + len(floats) < len(values)
        )
        assert live._saw_int[column] == bool(ints), measure.key
        assert live._saw_float[column] == bool(floats), measure.key
        assert live._inexact[column] == inexact, measure.key
        assert live._int_max_abs[column] == max(
            (float(abs(value)) for value in exact_ints), default=0.0
        ), measure.key
        images = live._values[: len(live._ids), column].tolist()
        rows = [
            row
            for row, cached in enumerate(engine._values.values())
            if measure.key in cached
        ]
        assert [images[row] for row in rows] == [
            float(value) if value == value else images[row]
            for row, value in zip(rows, values)
        ], measure.key


@st.composite
def arrival_batches(draw):
    """Arrivals cut into bulk batches, maybe with an unpackable offer."""
    offers = draw(st.lists(stream_flexoffers(), min_size=1, max_size=12))
    if draw(st.booleans()):
        offers.insert(draw(st.integers(0, len(offers))), UNPACKABLE)
    events = [OfferArrived(f"f{index}", offer) for index, offer in enumerate(offers)]
    batches = []
    start = 0
    while start < len(events):
        size = draw(st.integers(min_value=1, max_value=len(events) - start))
        batches.append(events[start : start + size])
        start += size
    return batches


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    batches=arrival_batches(),
    parameters=grouping_parameters(),
    ticks=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
)
def test_bulk_arrive_equals_per_event_arrival(backend, batches, parameters, ticks):
    batch_log: list = []
    single_log: list = []
    batch = build(backend, parameters, batch_log)
    single = build(backend, parameters, single_log)
    for events in batches:
        batch.bulk_arrive(events)
        for event in events:
            single.apply(event)
    assert batch_log == single_log  # on_arrived: once per offer, arrival order
    assert_flags_follow_the_values(batch)
    assert_same_state(batch, single)
    # Later ticks expire lapsed offers in the same order from both heaps.
    for time in sorted(ticks):
        batch.apply(Tick(time))
        single.apply(Tick(time))
    assert batch_log == single_log
    assert_same_state(batch, single)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None)
@given(batches=arrival_batches(), parameters=grouping_parameters())
def test_restore_state_equals_per_event_arrival(backend, batches, parameters):
    events = [event for chunk in batches for event in chunk]
    single = build(backend, parameters, [])
    for event in events:
        single.apply(event)
    restored = build(backend, parameters, [])
    restored.restore_state(single.export_state())
    assert_same_state(restored, single)


def test_on_arrived_fires_after_the_whole_batch_lands():
    seen = []
    engine = StreamingEngine(measures=["time", "energy"])
    engine.on_arrived = lambda offer_id, *_: seen.append((offer_id, len(engine)))
    offers = [FlexOffer(index, index + 2, [(1, 2)]) for index in range(4)]
    engine.bulk_arrive((f"o{index}", offer) for index, offer in enumerate(offers))
    assert seen == [(f"o{index}", 4) for index in range(4)]


def test_restore_state_rejects_an_unconfigured_measure_before_mutating():
    source = StreamingEngine(measures=["time", "energy"], auto_expire=True)
    offers = [FlexOffer(index, index + 2, [(1, 2)]) for index in range(5)]
    source.bulk_arrive((f"o{index}", offer) for index, offer in enumerate(offers))
    payload = json.loads(json.dumps(source.export_state()))
    payload["live"][-1]["values"]["vector"] = 1.0  # only the last entry drifts

    target = StreamingEngine(measures=["time", "energy"], auto_expire=True)
    pristine = json.dumps(target.export_state(), sort_keys=True)
    with pytest.raises(StreamError, match="unconfigured"):
        target.restore_state(payload)
    assert len(target) == 0
    assert json.dumps(target.export_state(), sort_keys=True) == pristine
    assert target._aggregates == {} and target._deadlines == []
    assert target._live is None or len(target._live) == 0

    # Still pristine: the valid payload restores afterwards.
    del payload["live"][-1]["values"]["vector"]
    target.restore_state(payload)
    assert json.dumps(target.export_state(), sort_keys=True) == json.dumps(
        source.export_state(), sort_keys=True
    )


def test_restore_state_rejects_a_repeated_id_before_mutating():
    source = StreamingEngine(measures=["time"])
    source.bulk_arrive([("a", FlexOffer(0, 1, [(1, 2)]))])
    payload = source.export_state()
    payload["live"] = payload["live"] * 2
    target = StreamingEngine(measures=["time"])
    with pytest.raises(StreamError, match="already"):
        target.restore_state(payload)
    assert len(target) == 0


@requires_numpy
def test_ints_beyond_float64_make_the_column_inexact():
    from repro.stream.live import LivePopulation

    live = LivePopulation(["big"])
    offers = [FlexOffer(0, 1, [(1, 2)]), FlexOffer(1, 2, [(1, 2)])]
    live.extend(["a", "b"], offers, [{"big": 10**400}, {"big": 3}])
    assert live._inexact == [True]
    assert live._saw_int == [True]
    assert live._values[:2, 0].tolist() == [0.0, 3.0]
    assert live._int_max_abs == [3.0]
    assert live.fold("big") is None
