"""W-KERNEL — vectorized tick sampling vs. the scalar window path.

A :class:`~repro.stream.events.Tick` with a window tracker once cost, per
tracked measure, a full O(population) Python fold —
``{offer_id: {measure: value}}`` dictionary lookups re-listed into Python
and summed scalar by scalar — before the sample reached its window.  Tick
sampling now runs as **one bulk pass** over the engine's packed value
columns (one alive-mask gather, one exact ``cumsum`` per measure column —
:meth:`~repro.stream.live.LivePopulation.combined_values`) feeding the
:class:`~repro.stream.window.MeasureWindow` windows.

This benchmark replays the *old* scalar path — the dictionary fold into a
:class:`~repro.stream.window.WindowTracker`, exactly as
``_sample_values`` used to run it — against the engine as shipped, on the
same population and the same tick schedule, asserts the resulting
per-measure window summaries are **identical floats**, and gates the
speedup: ≥10x at 100k live offers (the CI acceptance gate), with a
correctness smoke at 10k on every run.  A second record times the shipped
window's monotonic-deque extremes against :class:`ScanWindow`, the old
O(capacity) scan rebuilt here, on record + min/max churn.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_window_kernels.py

or through pytest (the CI gate: ≥10x tick sampling at 100k)::

    PYTHONPATH=../src python -m pytest bench_window_kernels.py -q -s
"""

from __future__ import annotations

import json
import random
import time
from collections import deque

import pytest

from repro.backend import NUMPY_AVAILABLE
from repro.core import FlexOffer
from repro.measures import get_measure
from repro.stream import MeasureWindow, StreamingEngine, Tick, WindowTracker
from repro.stream.window import check_sample, nearest_rank

#: Always-supported measures with integer per-offer values: the comparison
#: targets the sampling fold and the window kernel, and both paths must
#: reproduce identical floats (int sums are exact either way).
MEASURES = ["time", "energy"]

GATE_SCALE = 100_000
GATE_TICK_SPEEDUP = 10.0
WINDOW_CAPACITY = 64


def population(size: int, seed: int = 0) -> list[FlexOffer]:
    """Streaming-shaped offers: 1–2 slices, small time flexibility."""
    rng = random.Random(seed)
    offers = []
    for index in range(size):
        earliest = rng.randrange(0, 96)
        slices = [(1, 1 + rng.randint(0, 4))]
        if rng.random() < 0.5:
            slices.append((0, rng.randint(1, 3)))
        offers.append(
            FlexOffer(
                earliest,
                earliest + rng.randint(0, 2),
                slices,
                name=f"offer-{index}",
            )
        )
    return offers


def _scalar_tick_path(engine: StreamingEngine, tracker, tick_time: int) -> None:
    """The pre-PR sampling fold: per-measure dictionary walk + scalar window."""
    measures = [get_measure(key) for key in MEASURES]
    values = {
        measure.key: measure.combine_values(
            [engine._values[offer_id][measure.key] for offer_id in engine._index]
        )
        for measure in measures
    }
    tracker.sample(tick_time, values)


def bench_tick_sampling(size: int, ticks: int = 12, seed: int = 3) -> dict:
    """Per-tick cost: bulk column sampling vs. the scalar dictionary fold.

    One engine, one population; the scalar side drives the replicated
    old fold into a second tracker over the same tick schedule, and
    the summaries of both trackers must agree exactly — same counts, same
    totals, same percentiles — before any timing is trusted.
    """
    engine = StreamingEngine(
        measures=MEASURES,
        window_capacity=WINDOW_CAPACITY,
        backend="numpy",
    )
    engine.bulk_arrive(
        (f"offer-{index}", offer)
        for index, offer in enumerate(population(size, seed=seed))
    )
    scalar_tracker = WindowTracker(MEASURES, WINDOW_CAPACITY)

    started = time.perf_counter()
    for tick_time in range(ticks):
        engine.apply(Tick(tick_time))
    bulk = (time.perf_counter() - started) / ticks

    started = time.perf_counter()
    for tick_time in range(ticks):
        _scalar_tick_path(engine, scalar_tracker, tick_time)
    scalar = (time.perf_counter() - started) / ticks

    assert engine.tracker.summary() == scalar_tracker.summary()
    return {
        "name": f"tick_sampling_{size}",
        "scale": size,
        "ticks": ticks,
        "measures": len(MEASURES),
        "scalar_s_per_tick": scalar,
        "bulk_s_per_tick": bulk,
        "ops_per_s": 1.0 / bulk if bulk else 0.0,
        "speedup": scalar / bulk if bulk else 0.0,
    }


class ScanWindow:
    """The window before its monotonic deques: extremes by O(capacity) scan.

    Rebuilds the old semantics the way :func:`_scalar_tick_path` rebuilds
    the old fold — same samples, same ``min(values())``/``max(values())``,
    same summary block — as the dashboard benchmark's comparator.
    """

    def __init__(self, capacity: int) -> None:
        self._samples: deque[tuple[int, float]] = deque(maxlen=capacity)

    def record(self, time: int, value: float) -> None:
        self._samples.append((time, check_sample(value)))

    def values(self) -> list[float]:
        return [value for _, value in self._samples]

    def minimum(self) -> float:
        return min(self.values())

    def maximum(self) -> float:
        return max(self.values())

    def summary(self) -> dict[str, float]:
        values = self.values()
        ordered = sorted(values)
        count = len(values)
        return {
            "count": float(count),
            "last": values[-1],
            "total": float(sum(values)),
            "mean": float(sum(values) / count),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": nearest_rank(ordered, 50),
            "p90": nearest_rank(ordered, 90),
        }


def bench_window_dashboard(samples: int = 100_000, capacity: int = 256) -> dict:
    """Dashboard churn: record + min/max read per sample, scan vs. deques.

    The monitoring pattern: every sample is recorded and the sliding
    extremes are read back immediately.  :class:`ScanWindow` re-scans the
    whole retained window per extreme query (O(capacity));
    :class:`~repro.stream.window.MeasureWindow` reads the front of its
    monotonic deques (O(1) amortised).  Both must agree float for float;
    the gated product win is the sampling fold above.
    """
    rng = random.Random(11)
    stream = [rng.uniform(-50.0, 50.0) for _ in range(samples)]

    def churn(window) -> tuple[float, float]:
        checksum = 0.0
        started = time.perf_counter()
        for tick_time, value in enumerate(stream):
            window.record(tick_time, value)
            checksum += window.minimum() + window.maximum()
            if tick_time % 1000 == 999:
                window.summary()
        return time.perf_counter() - started, checksum

    scan_window = ScanWindow(capacity)
    deque_window = MeasureWindow(capacity)
    scan, scan_checksum = churn(scan_window)
    shipped, shipped_checksum = churn(deque_window)
    assert shipped_checksum == scan_checksum
    assert deque_window.summary() == scan_window.summary()
    return {
        "name": f"window_dashboard_{samples}",
        "scale": samples,
        "capacity": capacity,
        "scan_s": scan,
        "deque_s": shipped,
        "ops_per_s": samples / shipped if shipped else 0.0,
        "speedup": scan / shipped if shipped else 0.0,
    }


def bench_records(gate_scale: bool = False) -> list[dict]:
    """Machine-readable records for ``tools/bench_to_json.py``."""
    records = [bench_tick_sampling(10_000)]
    if gate_scale:
        records.append(bench_tick_sampling(GATE_SCALE))
    records.append(bench_window_dashboard())
    return records


def _print_record(record: dict) -> None:
    print(f"\n=== {record['name']} ===")
    for key, value in record.items():
        if key == "name":
            continue
        formatted = f"{value:.6f}" if isinstance(value, float) else value
        print(f"  {key:24s} {formatted}")
    print(json.dumps(record))


def main() -> None:
    for record in bench_records(gate_scale=True):
        _print_record(record)


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
def test_tick_sampling_smoke_at_10k():
    """Correctness smoke at 10k: bulk sampling beats the scalar fold and
    both trackers' summaries are identical (asserted inside the run)."""
    record = bench_tick_sampling(10_000)
    _print_record(record)
    assert record["speedup"] > 1.0


@pytest.mark.slow
@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
def test_tick_sampling_gate_at_100k():
    """CI gate (push-only job): ≥10x tick sampling vs. the scalar window
    path at 100k live offers."""
    record = bench_tick_sampling(GATE_SCALE)
    _print_record(record)
    assert record["speedup"] >= GATE_TICK_SPEEDUP, record


def test_window_dashboard_churn_matches_exactly():
    """The deque window and the scan agree float-for-float on 100k-sample
    dashboard churn (asserted inside the run); the O(1) extremes must beat
    the scan."""
    record = bench_window_dashboard()
    _print_record(record)
    assert record["speedup"] > 1.0


if __name__ == "__main__":
    main()
