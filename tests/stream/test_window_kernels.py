"""Differential window-conformance: the array kernel must match the scalar.

The scalar :class:`~repro.stream.window.MeasureWindow` *is* the window
semantics; the NumPy ring-buffer
:class:`~repro.stream.windowkernels.ArrayMeasureWindow` is only trustworthy
if it is observationally equivalent.  The hypothesis property here drives
*identical interleavings* of records, ring evictions and queries through
both kernels side by side and asserts, after every operation:

* exact float equality on ``total`` / ``minimum`` / ``maximum`` / ``count``
  / ``last`` / ``values`` (the ``cumsum`` fold and the monotonic deques are
  designed to be bit-identical, not merely close);
* agreement within 1e-9 on ``mean`` and every percentile (also exact in
  practice — the tolerance is the contract, the exactness an
  implementation property);
* the same :class:`~repro.stream.StreamError` on the same bad inputs
  (non-finite samples, out-of-range percentiles), with no state change.

The deterministic tests pin the named edge cases — capacity 1, all-equal
values, negative values, non-finite rejection — plus the per-backend kernel
selection: the reference backend keeps the scalar kernel, and the NumPy and
sharded tiers hand out the array kernel.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import NUMPY_AVAILABLE, ShardedBackend, get_backend
from repro.stream import MeasureWindow, StreamError, StreamingEngine
from repro.service import FlexSession

if NUMPY_AVAILABLE:
    from repro.stream.windowkernels import ArrayMeasureWindow

pytestmark = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="the array window kernel needs NumPy"
)

#: Percentiles every comparison probes, the boundaries included.
PROBES = (0, 25, 50, 90, 100)


def assert_windows_agree(scalar: MeasureWindow, array) -> None:
    """One full cross-examination of both kernels' observable state."""
    assert len(array) == len(scalar)
    assert array.values() == scalar.values()
    assert array.samples() == scalar.samples()
    assert array.last == scalar.last
    assert array.total() == scalar.total()
    if len(scalar):
        assert array.minimum() == scalar.minimum()
        assert array.maximum() == scalar.maximum()
        assert math.isclose(
            array.mean(), scalar.mean(), rel_tol=0, abs_tol=1e-9
        )
        for q in PROBES:
            assert math.isclose(
                array.percentile(q),
                scalar.percentile(q),
                rel_tol=0,
                abs_tol=1e-9,
            )
        array_summary = array.summary()
        scalar_summary = scalar.summary()
        assert set(array_summary) == set(scalar_summary)
        for key in ("count", "last", "total", "min", "max"):
            assert array_summary[key] == scalar_summary[key]
        for key in ("mean", "p50", "p90"):
            assert math.isclose(
                array_summary[key],
                scalar_summary[key],
                rel_tol=0,
                abs_tol=1e-9,
            )
    else:
        assert array.summary() == scalar.summary() == {"count": 0}
        for kernel in (scalar, array):
            with pytest.raises(StreamError):
                kernel.minimum()
            with pytest.raises(StreamError):
                kernel.maximum()
            with pytest.raises(StreamError):
                kernel.percentile(50)


#: Finite sample values: plain floats (negatives included), integral
#: floats (repeat-heavy, so all-equal windows occur) and exact halves.
sample_values = st.one_of(
    st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    st.integers(min_value=-5, max_value=5).map(float),
    st.integers(min_value=-100, max_value=100).map(lambda n: n / 2),
)


class TestDifferentialConformance:
    """Both kernels through identical interleavings, compared per step."""

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=9),
        values=st.lists(sample_values, max_size=40),
    )
    def test_every_prefix_agrees(self, capacity, values):
        scalar = MeasureWindow(capacity)
        array = ArrayMeasureWindow(capacity)
        assert_windows_agree(scalar, array)
        for time, value in enumerate(values):
            scalar.record(time, value)
            array.record(time, value)
            assert_windows_agree(scalar, array)

    @pytest.mark.slow
    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        values=st.lists(sample_values, min_size=1, max_size=25),
        bad_at=st.integers(min_value=0, max_value=24),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_rejections_leave_both_kernels_unchanged(
        self, capacity, values, bad_at, bad
    ):
        scalar = MeasureWindow(capacity)
        array = ArrayMeasureWindow(capacity)
        for time, value in enumerate(values):
            if time == bad_at % len(values):
                for kernel in (scalar, array):
                    with pytest.raises(StreamError):
                        kernel.record(time, bad)
            scalar.record(time, value)
            array.record(time, value)
        assert_windows_agree(scalar, array)

    def test_capacity_one_tracks_the_last_sample_only(self):
        scalar, array = MeasureWindow(1), ArrayMeasureWindow(1)
        for time, value in enumerate([5.0, -3.0, 7.5, 7.5, 0.0]):
            scalar.record(time, value)
            array.record(time, value)
            assert_windows_agree(scalar, array)
            assert array.minimum() == array.maximum() == value

    def test_all_equal_values(self):
        scalar, array = MeasureWindow(4), ArrayMeasureWindow(4)
        for time in range(10):
            scalar.record(time, 2.5)
            array.record(time, 2.5)
            assert_windows_agree(scalar, array)
        assert array.percentile(0) == array.percentile(100) == 2.5

    def test_negative_values_and_eviction_of_the_extreme(self):
        # The initial extremes (-100 and 50) slide out of the ring; the
        # monotonic deques must forget them exactly when the scalar does.
        stream = [-100.0, 50.0, -1.0, -2.0, -3.0, -0.5]
        scalar, array = MeasureWindow(3), ArrayMeasureWindow(3)
        for time, value in enumerate(stream):
            scalar.record(time, value)
            array.record(time, value)
            assert_windows_agree(scalar, array)
        assert array.minimum() == -3.0
        assert array.maximum() == -0.5

    def test_invalid_percentiles_and_capacities_match(self):
        for bad in (0, -2, 1.5, True):
            with pytest.raises(StreamError):
                ArrayMeasureWindow(bad)
        window = ArrayMeasureWindow(4)
        window.record(0, 1.0)
        for q in (-0.1, 100.1):
            with pytest.raises(StreamError):
                window.percentile(q)

    def test_array_sorted_view_is_memoised_and_invalidated(self):
        window = ArrayMeasureWindow(4)
        for time, value in enumerate([4.0, 1.0, 3.0]):
            window.record(time, value)
        assert window._ordered() is window._ordered()
        ordered = window._ordered()
        window.record(3, 2.0)
        assert window._ordered() is not ordered
        assert window.percentile(50) == 2.0


class TestKernelSelection:
    """The engine's backend is the one thing that picks the kernel."""

    def test_backend_hooks_pick_the_expected_kernel(self):
        assert get_backend("reference").measure_window(4).kernel == "scalar"
        assert get_backend("numpy").measure_window(4).kernel == "array"
        sharded = ShardedBackend(shards=2)
        try:
            assert sharded.measure_window(4).kernel == sharded.inner.measure_window(4).kernel
        finally:
            sharded.close()

    def test_engine_inherits_its_backend_kernel(self):
        assert (
            StreamingEngine(window_capacity=4, backend="numpy").window_kernel
            == "array"
        )
        assert (
            StreamingEngine(
                window_capacity=4, backend="reference"
            ).window_kernel
            == "scalar"
        )
        assert StreamingEngine().window_kernel is None

    def test_session_reports_its_backend_kernel(self):
        for backend, kernel in (("reference", "scalar"), ("numpy", "array")):
            with FlexSession(backend=backend, window_capacity=4) as session:
                assert session.engine.window_kernel == kernel
                assert session.stats()["window_kernel"] == kernel

    def test_lazy_package_export(self):
        import repro.stream

        assert repro.stream.ArrayMeasureWindow is ArrayMeasureWindow
        with pytest.raises(AttributeError):
            repro.stream.NoSuchKernel


class TestEngineConformance:
    """Identical event streams give matching window summaries per backend."""

    def run_engine(self, backend):
        from repro.stream import OfferArrived, Tick
        from repro.workloads import neighbourhood_scenario

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

    @pytest.mark.parametrize("backend", ["reference", "numpy", "sharded"])
    def test_tick_summaries_match_the_scalar_reference(self, backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResourceWarning)
            reference = self.run_engine("reference")
            candidate = self.run_engine(backend)
        assert reference.window_kernel == "scalar"
        expected = reference.tracker.summary()
        actual = candidate.tracker.summary()
        assert set(actual) == set(expected)
        for key, block in expected.items():
            other = actual[key]
            assert set(other) == set(block)
            for stat, value in block.items():
                if stat in ("count", "last", "total", "min", "max"):
                    assert other[stat] == value
                else:
                    assert math.isclose(
                        other[stat], value, rel_tol=0, abs_tol=1e-9
                    )
