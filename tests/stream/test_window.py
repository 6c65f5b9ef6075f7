"""Tests of the ring buffer and the sliding-window measure statistics.

:class:`TestDifferentialConformance` drives :class:`MeasureWindow` against a
test-local list oracle: after every record (or rejected sample) the window's
extremes, sums, sorted view and nearest-rank percentiles must equal what the
plain retained list gives, float for float.  :class:`TestEngineConformance`
checks that tick summaries are identical on every backend.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import NUMPY_AVAILABLE
from repro.stream import (
    MeasureWindow,
    OfferArrived,
    RingBuffer,
    StreamError,
    StreamingEngine,
    Tick,
    WindowTracker,
)
from repro.stream.window import nearest_rank
from repro.workloads import neighbourhood_scenario


class TestRingBuffer:
    def test_fills_then_overwrites_oldest(self):
        buffer = RingBuffer(3)
        for value in (1, 2, 3):
            buffer.push(value)
        assert buffer.items() == [1, 2, 3]
        assert buffer.full
        buffer.push(4)
        buffer.push(5)
        assert buffer.items() == [3, 4, 5]
        assert len(buffer) == 3

    def test_partial_fill(self):
        buffer = RingBuffer(4)
        buffer.push("x")
        assert buffer.items() == ["x"]
        assert not buffer.full

    def test_capacity_validation(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(StreamError):
                RingBuffer(bad)


class TestMeasureWindow:
    def build(self, values, capacity=8):
        window = MeasureWindow(capacity)
        for time, value in enumerate(values):
            window.record(time, value)
        return window

    def test_statistics(self):
        window = self.build([4.0, 1.0, 3.0, 2.0])
        assert window.last == 2.0
        assert window.total() == 10.0
        assert window.mean() == 2.5
        assert window.minimum() == 1.0
        assert window.maximum() == 4.0
        assert window.percentile(0) == 1.0
        assert window.percentile(50) == 2.0
        assert window.percentile(100) == 4.0

    def test_percentile_nearest_rank(self):
        window = self.build([10.0, 20.0, 30.0, 40.0, 50.0])
        assert window.percentile(90) == 50.0
        assert window.percentile(40) == 20.0
        assert window.percentile(41) == 30.0

    def test_percentile_fractional_rank_rounds_up(self):
        # Regression: ceil must apply to the exact q*n/100, not to a
        # truncated intermediate (33.4% of 3 samples -> rank 2).
        window = self.build([1.0, 2.0, 3.0])
        assert window.percentile(33.4) == 2.0
        assert window.percentile(66.8) == 3.0
        assert window.percentile(33.0) == 1.0

    def test_sliding_eviction_changes_statistics(self):
        window = self.build([100.0, 1.0, 2.0, 3.0], capacity=3)
        assert window.maximum() == 3.0  # the 100.0 sample slid out
        assert window.samples() == [(1, 1.0), (2, 2.0), (3, 3.0)]

    def test_sorted_view_is_memoised_and_invalidated_on_record(self):
        # Repeated percentile reads between ticks reuse one sorted view...
        window = self.build([4.0, 1.0, 3.0])
        assert window.percentile(50) == 3.0
        assert window._ordered() is window._ordered()
        ordered = window._ordered()
        # ...and the next push drops it, so statistics see the new sample
        # (including one sliding an old sample out of the ring).
        window.record(3, 2.0)
        assert window._ordered() is not ordered
        assert window.percentile(50) == 2.0
        assert window.summary()["p90"] == 4.0
        for time in range(4, 12):
            window.record(time, float(time))
        assert window.percentile(0) == window.minimum()
        assert window.percentile(100) == 11.0

    def test_empty_window_guards(self):
        window = MeasureWindow(4)
        assert window.last is None
        assert window.mean() == 0.0
        assert window.summary() == {"count": 0}
        with pytest.raises(StreamError):
            window.minimum()
        with pytest.raises(StreamError):
            window.percentile(50)
        with pytest.raises(StreamError):
            self.build([1.0]).percentile(101)

    def test_summary_block(self):
        summary = self.build([1.0, 2.0, 3.0]).summary()
        assert summary["count"] == 3.0
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert summary["p90"] == 3.0

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 100, 1000])
    def test_percentile_boundaries_are_exact_extremes(self, size):
        # Regression: q=0 must be exactly minimum() and q=100 exactly
        # maximum() for *every* window size — by definition, not by the
        # luck of ceil(q*n/100) rounding the right way.
        window = self.build(
            [float((7 * index) % size) + 0.5 for index in range(size)],
            capacity=size,
        )
        assert window.percentile(0) == window.minimum()
        assert window.percentile(0.0) == window.minimum()
        assert window.percentile(100) == window.maximum()
        assert window.percentile(100.0) == window.maximum()

    def test_nearest_rank_boundary_short_circuits(self):
        # The shared helper hits the explicit q<=0 / q>=100 branches even
        # for q values where the rank formula could misround.
        ordered = [1.0, 2.0, 3.0]
        assert nearest_rank(ordered, 0) == 1.0
        assert nearest_rank(ordered, 100) == 3.0
        assert nearest_rank(ordered, 1e-300) == 1.0
        assert nearest_rank(ordered, 100.0 - 1e-12) == 3.0
        assert nearest_rank([5.0], 0) == 5.0
        assert nearest_rank([5.0], 100) == 5.0

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_samples_rejected_without_state_change(self, bad):
        window = self.build([1.0, 2.0])
        with pytest.raises(StreamError):
            window.record(2, bad)
        assert window.values() == [1.0, 2.0]
        assert math.isfinite(window.total())


class TestWindowTracker:
    def test_samples_only_present_measures(self):
        tracker = WindowTracker(["time", "vector"], capacity=4)
        tracker.sample(0, {"time": 5.0, "vector": 2.0, "energy": 9.0})
        tracker.sample(1, {"time": 6.0})  # vector skipped this round
        assert tracker.window("time").values() == [5.0, 6.0]
        assert tracker.window("vector").values() == [2.0]

    def test_unknown_window_rejected(self):
        tracker = WindowTracker(["time"])
        with pytest.raises(StreamError):
            tracker.window("ghost")
        with pytest.raises(StreamError):
            WindowTracker([])

    def test_non_finite_set_values_are_skipped_not_recorded(self):
        # A measure's float sum can overflow to inf on extreme
        # populations; that tick must be dropped for that measure, not
        # poison the window or crash the engine's tick path.
        tracker = WindowTracker(["time"], capacity=4)
        tracker.sample(0, {"time": 1.0})
        tracker.sample(1, {"time": float("inf")})
        tracker.sample(2, {"time": float("nan")})
        tracker.sample(3, {"time": 2.0})
        assert tracker.window("time").values() == [1.0, 2.0]

    def test_summary_keyed_by_measure(self):
        tracker = WindowTracker(["time"], capacity=2)
        tracker.sample(0, {"time": 1.0})
        summary = tracker.summary()
        assert set(summary) == {"time"}
        assert summary["time"]["count"] == 1.0


def signed(value: float) -> tuple[float, float]:
    """A value with its sign bit, so ``0.0`` and ``-0.0`` tell apart."""
    return value, math.copysign(1.0, value)


def oracle_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile, written out independently of the module."""
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    return ordered[min(max(1, math.ceil(q * len(ordered) / 100)), len(ordered)) - 1]


#: Percentiles every comparison probes, the boundaries included.
PROBES = (0, 25, 50, 90, 100)


def assert_matches_oracle(window: MeasureWindow, retained: list) -> None:
    """Every observable of ``window`` against the retained samples list."""
    values = [value for _, value in retained]
    assert len(window) == len(retained)
    assert window.samples() == retained
    assert window.values() == values
    if not values:
        assert window.last is None
        assert window.total() == 0.0
        assert window.mean() == 0.0
        assert window.summary() == {"count": 0}
        for query in (window.minimum, window.maximum):
            with pytest.raises(StreamError):
                query()
        with pytest.raises(StreamError):
            window.percentile(50)
        return
    ordered = sorted(values)
    total = sum(values)
    assert signed(window.last) == signed(values[-1])
    assert window.total() == total
    assert window.mean() == total / len(values)
    assert signed(window.minimum()) == signed(min(values))
    assert signed(window.maximum()) == signed(max(values))
    assert window._ordered() == ordered
    for q in PROBES:
        assert signed(window.percentile(q)) == signed(oracle_rank(ordered, q))
    summary = window.summary()
    assert summary == {
        "count": float(len(values)),
        "last": values[-1],
        "total": total,
        "mean": total / len(values),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": oracle_rank(ordered, 50),
        "p90": oracle_rank(ordered, 90),
    }
    assert signed(summary["min"]) == signed(ordered[0])
    assert signed(summary["max"]) == signed(ordered[-1])


#: Finite samples: plain floats (negatives included), a few small
#: integers and both zeros (so ties, all-equal windows and ``0.0`` against
#: ``-0.0`` occur often), and exact halves.
sample_values = st.one_of(
    st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([0.0, -0.0]),
    st.integers(min_value=-100, max_value=100).map(lambda n: n / 2),
)

#: A record: a finite sample, or a non-finite one the window must reject.
records = st.one_of(
    sample_values,
    sample_values,
    sample_values,
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


class TestDifferentialConformance:
    """:class:`MeasureWindow` against a plain list, after every prefix."""

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        stream=st.lists(records, max_size=60),
    )
    def test_every_prefix_agrees(self, capacity, stream):
        window = MeasureWindow(capacity)
        retained: list = []
        assert_matches_oracle(window, retained)
        for time, value in enumerate(stream):
            if math.isfinite(value):
                window.record(time, value)
                retained = (retained + [(time, value)])[-capacity:]
            else:
                with pytest.raises(StreamError):
                    window.record(time, value)
            assert_matches_oracle(window, retained)

    @pytest.mark.slow
    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        values=st.lists(sample_values, min_size=1, max_size=25),
        bad_at=st.integers(min_value=0, max_value=24),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_rejections_leave_the_window_unchanged(
        self, capacity, values, bad_at, bad
    ):
        window, retained = MeasureWindow(capacity), []
        for time, value in enumerate(values):
            if time == bad_at % len(values):
                before = window.summary()
                with pytest.raises(StreamError):
                    window.record(time, bad)
                assert window.summary() == before
                assert_matches_oracle(window, retained)
            window.record(time, value)
            retained = (retained + [(time, value)])[-capacity:]
        assert_matches_oracle(window, retained)

    def test_sorted_view_tracks_the_ring_through_wrap_around(self):
        # The memoised sorted view is reused between records and rebuilt
        # after each one, so it always equals the sorted retained values.
        window, retained = MeasureWindow(3), []
        for time, value in enumerate([4.0, 1.0, 3.0, 2.0, -5.0, 4.0, 0.5]):
            previous = window._ordered() if retained else None
            window.record(time, value)
            retained = (retained + [(time, value)])[-3:]
            ordered = window._ordered()
            assert ordered is not previous
            assert window._ordered() is ordered
            assert ordered == sorted(v for _, v in retained)
            assert_matches_oracle(window, retained)

    def test_capacity_one_tracks_the_last_sample_only(self):
        window = MeasureWindow(1)
        for time, value in enumerate([5.0, -3.0, 7.5, 7.5, 0.0]):
            window.record(time, value)
            assert_matches_oracle(window, [(time, value)])
            assert window.minimum() == window.maximum() == value

    def test_all_equal_values(self):
        window, retained = MeasureWindow(4), []
        for time in range(10):
            window.record(time, 2.5)
            retained = (retained + [(time, 2.5)])[-4:]
            assert_matches_oracle(window, retained)
        assert window.percentile(0) == window.percentile(100) == 2.5

    def test_ties_report_the_oldest_extreme(self):
        # min()/max() return the first of equal values; so do the deques,
        # because a record pops only strictly worse entries.
        window = MeasureWindow(2)
        for time, value in enumerate([-0.0, 0.0, 0.0, -0.0]):
            window.record(time, value)
            oldest = window.values()[0]
            assert signed(window.minimum()) == signed(oldest)
            assert signed(window.maximum()) == signed(oldest)

    def test_negative_values_and_extreme_eviction(self):
        # The initial extremes (-100 and 50) slide out of the ring; the
        # monotonic deques must forget them exactly when the ring does.
        stream = [-100.0, 50.0, -1.0, -2.0, -3.0, -0.5]
        window, retained = MeasureWindow(3), []
        for time, value in enumerate(stream):
            window.record(time, value)
            retained = (retained + [(time, value)])[-3:]
            assert_matches_oracle(window, retained)
        assert window.minimum() == -3.0
        assert window.maximum() == -0.5

    def test_invalid_percentiles_and_capacities_raise(self):
        for bad in (0, -2, 1.5, True):
            with pytest.raises(StreamError):
                MeasureWindow(bad)
        window = MeasureWindow(4)
        window.record(0, 1.0)
        for q in (-0.1, 100.1):
            with pytest.raises(StreamError):
                window.percentile(q)


class TestEngineConformance:
    """Identical event streams give identical window summaries per backend."""

    @staticmethod
    def run_engine(backend):
        scenario = neighbourhood_scenario(households=6, seed=11, horizon=32)
        engine = StreamingEngine(
            window_capacity=8,
            backend=backend,
            auto_expire=True,
        )
        for index, offer in enumerate(scenario.flex_offers):
            engine.apply(OfferArrived(f"offer-{index}", offer))
            if index % 3 == 2:
                engine.apply(Tick(index))
        engine.apply(Tick(10_000))
        return engine

    @pytest.mark.parametrize(
        "backend",
        [
            "reference",
            pytest.param(
                "numpy",
                marks=pytest.mark.skipif(
                    not NUMPY_AVAILABLE, reason="NumPy backend not available"
                ),
            ),
            "sharded",
        ],
    )
    def test_tick_summaries_match_the_reference(self, backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResourceWarning)
            reference = self.run_engine("reference")
            candidate = self.run_engine(backend)
        expected = reference.tracker.summary()
        assert all(block["count"] > 0 for block in expected.values())
        assert candidate.tracker.summary() == expected
