"""E-BACKEND — reference vs. NumPy compute backend across population sizes.

The ROADMAP's north star is "fast as the hardware allows"; the backend layer
delivers it by replacing the per-object Python loops of the hot paths with
packed-array arithmetic.  This benchmark times the bulk operations on
synthetic consumption populations (so every registered measure participates,
area-based ones included) at 100 / 1k / 10k offers:

* ``evaluate_set`` — all eight registered measures over the population;
* ``measure:series`` / ``measure:absolute_area`` — the two most expensive
  single measures, per-offer values;
* ``feasible_profiles`` — extreme-assignment profiles (min and max);
* ``aggregate`` — one start-aligned aggregate over the whole population;
* ``bulk_ingest`` — streaming-engine ingestion of the population
  (``bulk_arrive`` vs. per-event ``apply``);
* ``live_earliest_schedule`` — a live ``earliest`` schedule request on a
  session holding a narrow population (a ``numpy`` session against a
  ``reference`` one);
* ``live_earliest_schedule_wire`` — the same request plus the text of its
  response body (:func:`~repro.io.payload_json` of its
  :func:`~repro.io.result_envelope`), the gateway's path; recorded only,
  no gate.

Both backends produce *identical* results (the conformance suite pins
that); the point here is the wall-clock ratio.  The acceptance gates
assert the NumPy backend wins by ≥10x on at least one hot path at the 10k
scale, and that the live ``earliest`` schedule of 10k narrow offers is
≥2.5x faster on a ``numpy`` session than on a ``reference`` one.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py

or through pytest (the 10k acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend_speedup.py -q -s
"""

from __future__ import annotations

import json
import random
import statistics
import time

import pytest

from repro.aggregation import aggregate_start_aligned
from repro.backend import NUMPY_AVAILABLE, get_backend, use_backend
from repro.core import FlexOffer, batch_feasible_profiles
from repro.io import payload_json, result_envelope
from repro.measures import evaluate_set, get_measure
from repro.service import FlexSession, ScheduleRequest, SessionConfig
from repro.stream import OfferArrived, StreamingEngine

SCALES = [100, 1_000, 10_000]

#: Live-schedule gate: a ``numpy`` session must serve a live ``earliest``
#: schedule of 10k narrow offers this many times faster than a
#: ``reference`` one.
LIVE_SCHEDULE_SPEEDUP = 2.5

#: Measures the streaming-ingestion comparison maintains.
ENGINE_MEASURES = ["time", "energy", "product", "vector", "series", "assignments"]


def synthetic_population(size: int, seed: int = 0) -> list[FlexOffer]:
    """A day-ahead-style consumption population (ragged 1–4 slice profiles)."""
    rng = random.Random(seed)
    population = []
    for index in range(size):
        earliest = rng.randrange(0, 96)
        time_flex = rng.randrange(0, 8)
        slices = []
        for position in range(rng.randint(1, 4)):
            # Keep the first slice strictly positive so |cmin| + |cmax| > 0
            # and the relative area measure is defined for every offer.
            low = rng.randint(1 if position == 0 else 0, 3)
            slices.append((low, low + rng.randint(0, 4)))
        profile_min = sum(s[0] for s in slices)
        profile_max = sum(s[1] for s in slices)
        cmin = rng.randint(profile_min, profile_max)
        cmax = rng.randint(cmin, profile_max)
        population.append(
            FlexOffer(
                earliest,
                earliest + time_flex,
                slices,
                cmin,
                cmax,
                name=f"offer-{index}",
            )
        )
    return population


def narrow_population(size: int, seed: int = 0) -> list[FlexOffer]:
    """1–2 slice profiles with a time flexibility of at most 2 (the shape
    of ``bench_sharded_scaling.py``'s population)."""
    rng = random.Random(seed)
    population = []
    for index in range(size):
        earliest = rng.randrange(0, 96)
        slices = [(1, 1 + rng.randint(0, 4))]
        if rng.random() < 0.5:
            slices.append((0, rng.randint(1, 3)))
        profile_min = sum(s[0] for s in slices)
        profile_max = sum(s[1] for s in slices)
        cmin = rng.randint(profile_min, profile_max)
        population.append(
            FlexOffer(
                earliest,
                earliest + rng.randint(0, 2),
                slices,
                cmin,
                rng.randint(cmin, profile_max),
                name=f"offer-{index}",
            )
        )
    return population


def live_schedule_speedup(
    size: int, repeats: int = 5, wire: bool = False
) -> dict[str, float]:
    """``{reference, numpy, speedup}``: median seconds of a live
    ``earliest`` schedule request on a session of each backend, with the
    text of its response body when ``wire`` is set."""
    population = narrow_population(size)
    row: dict[str, float] = {}
    schedules = {}
    for backend in ("reference", "numpy"):
        config = SessionConfig(backend=backend, measures=("time", "energy"))
        with FlexSession(config) as session:
            session.ingest(population)
            request = ScheduleRequest("earliest")

            def serve():
                result = session.schedule(request)
                if wire:
                    payload_json(result_envelope(result))
                return result

            serve()  # warm: lazily cached derived state and offer texts
            times = []
            for _ in range(repeats):
                elapsed, result = _timed(serve)
                times.append(elapsed)
        row[backend] = statistics.median(times)
        schedules[backend] = result.schedule
    assert schedules["reference"] == schedules["numpy"]
    row["speedup"] = row["reference"] / row["numpy"] if row["numpy"] else 0.0
    return row


def _timed(operation) -> tuple[float, object]:
    started = time.perf_counter()
    result = operation()
    return time.perf_counter() - started, result


def _operations(population: list[FlexOffer]):
    series = get_measure("series")
    area = get_measure("absolute_area")

    def ingest() -> StreamingEngine:
        engine = StreamingEngine(measures=ENGINE_MEASURES)
        if get_backend().name == "reference":
            for index, offer in enumerate(population):
                engine.apply(OfferArrived(f"f{index}", offer))
            return engine
        return engine.bulk_arrive(
            (f"f{index}", offer) for index, offer in enumerate(population)
        )

    return {
        "evaluate_set": lambda: evaluate_set(population),
        "measure:series": lambda: get_backend().measure_values(series, population),
        "measure:absolute_area": lambda: get_backend().measure_values(
            area, population
        ),
        "feasible_profiles": lambda: (
            batch_feasible_profiles(population, "min"),
            batch_feasible_profiles(population, "max"),
        ),
        "aggregate": lambda: aggregate_start_aligned(population),
        "bulk_ingest": ingest,
    }


def compare_backends(size: int, seed: int = 0) -> dict[str, dict[str, float]]:
    """``{operation: {reference, numpy, speedup}}`` wall-clock seconds."""
    population = synthetic_population(size, seed)
    results: dict[str, dict[str, float]] = {}
    for operation in _operations(population):
        row: dict[str, float] = {}
        outputs = {}
        for backend in ("reference", "numpy"):
            with use_backend(backend):
                elapsed, output = _timed(_operations(population)[operation])
            row[backend] = elapsed
            outputs[backend] = output
        if operation == "bulk_ingest":
            # Equality of full snapshots is its own (conformance) test; the
            # benchmark only sanity-checks the population-level report here.
            assert outputs["reference"].report() == outputs["numpy"].report()
        else:
            assert outputs["reference"] == outputs["numpy"]
        row["speedup"] = row["reference"] / row["numpy"] if row["numpy"] else 0.0
        results[operation] = row
    return results


def bench_records(gate_scale: bool = False) -> list[dict]:
    """Machine-readable records for ``tools/bench_to_json.py``.

    The default scale keeps the cross-PR perf artifact cheap to emit; the
    gate scale records the population the CI acceptance gate reasons about.
    """
    scale = 10_000 if gate_scale else 1_000
    records = []
    rows = compare_backends(scale)
    rows["live_earliest_schedule"] = live_schedule_speedup(scale)
    rows["live_earliest_schedule_wire"] = live_schedule_speedup(scale, wire=True)
    for operation, row in rows.items():
        elapsed = row["numpy"]
        records.append(
            {
                "name": f"{operation}_{scale}",
                "scale": scale,
                "reference_s": row["reference"],
                "numpy_s": elapsed,
                "ops_per_s": 1.0 / elapsed if elapsed else 0.0,
                "speedup": row["speedup"],
            }
        )
    return records


def main() -> None:
    for size in SCALES:
        results = compare_backends(size)
        results["live_earliest_schedule"] = live_schedule_speedup(size)
        results["live_earliest_schedule_wire"] = live_schedule_speedup(
            size, wire=True
        )
        print(f"\n=== backend speedup @ {size} offers ===")
        for operation, row in results.items():
            print(
                f"  {operation:27s} reference {row['reference'] * 1e3:9.2f} ms   "
                f"numpy {row['numpy'] * 1e3:8.2f} ms   {row['speedup']:7.1f}x"
            )
        print(json.dumps({"scale": size, "results": results}))


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
def test_numpy_backend_wins_10x_on_a_10k_hot_path():
    """Acceptance gate: ≥10x on at least one hot path at 10k offers."""
    results = compare_backends(10_000)
    best = max(results.items(), key=lambda item: item[1]["speedup"])
    print(
        f"\nbest 10k speedup: {best[0]} at {best[1]['speedup']:.1f}x "
        f"({best[1]['reference'] * 1e3:.1f} ms -> {best[1]['numpy'] * 1e3:.1f} ms)"
    )
    assert best[1]["speedup"] >= 10.0, results


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
def test_a_live_earliest_schedule_is_faster_on_a_numpy_session():
    """Acceptance gate: a live ``earliest`` schedule of 10k narrow offers
    is ≥2.5x faster on a ``numpy`` session than on a ``reference`` one."""
    row = live_schedule_speedup(10_000)
    print(
        f"\nlive earliest schedule @ 10k: reference "
        f"{row['reference'] * 1e3:.1f} ms -> numpy {row['numpy'] * 1e3:.1f} ms "
        f"({row['speedup']:.2f}x)"
    )
    assert row["speedup"] >= LIVE_SCHEDULE_SPEEDUP, row


if __name__ == "__main__":
    main()
