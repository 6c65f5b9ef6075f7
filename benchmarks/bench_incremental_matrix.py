"""E-LIVE — incremental live-matrix maintenance vs. wholesale re-packing.

Before this PR the streaming engine threw the packed
:class:`~repro.backend.ProfileMatrix` away on every population-mutating
event, so a consumer that wants the packed state back after a single
arrival paid a full O(population) Python re-pack.  The live matrix
(append / tombstone / compact) maintains the packed arrays in amortized
O(Δ) per event instead; this benchmark measures both costs per event, at
10k and (for the CI gate) 100k live offers, asserts the maintained matrix
is bit-identical to a fresh pack of the survivors, and times the
snapshot path (``engine.live_matrix()``: compact + zero-copy frozen
snapshot) against the re-pack it replaces.

The second half measures the other bulk op this PR adds:
``ComputeBackend.batch_objectives``.  A whole generation of schedules (the
evolutionary scheduler's population shape) is scored in one backend call
and compared against the per-schedule Python fold — same floats, ≥3x
faster at the gated shape.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_incremental_matrix.py

or through pytest (the CI acceptance gates: ≥10x per-event update at 100k,
≥3x generation objectives)::

    PYTHONPATH=../src python -m pytest bench_incremental_matrix.py -q -s
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.backend import NUMPY_AVAILABLE, matrix_cache, use_backend
from repro.core import FlexOffer
from repro.scheduling import ImbalanceObjective, build_validated_schedule, random_profile
from repro.stream import OfferArrived, OfferExpired, StreamingEngine

#: Cheap always-supported measures: the point is matrix maintenance, not
#: per-offer measure arithmetic (both sides of the comparison pay that).
MEASURES = ["time", "energy"]

GATE_SCALE = 100_000
GATE_UPDATE_SPEEDUP = 10.0
GATE_OBJECTIVE_SPEEDUP = 3.0


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


def _verify_bit_identical(engine: StreamingEngine) -> None:
    import numpy as np

    from repro.backend import ProfileMatrix

    live = engine.live_matrix()
    fresh = ProfileMatrix(engine.live_offers())
    for name in ("tes", "tls", "cmin", "cmax", "durations", "offsets", "amin", "amax"):
        assert np.array_equal(getattr(live, name), getattr(fresh, name)), name
    assert live.offers == fresh.offers


def bench_live_updates(size: int, events: int = 40, seed: int = 1) -> dict:
    """Per-event cost: O(Δ) live maintenance vs. full re-pack.

    Both engines see the same arrive/expire churn (population size held
    steady).  The *incremental* side is the engine as shipped — the live
    matrix rides along every event.  The *re-pack* side additionally
    rebuilds ``ProfileMatrix(live_offers())`` from scratch after each
    event: exactly what restoring the packed state cost under the old
    wholesale cache invalidation.
    """
    from repro.backend import ProfileMatrix

    offers = population(size, seed=seed)
    churn = population(events, seed=seed + 1)
    rng = random.Random(seed + 2)

    def build() -> StreamingEngine:
        engine = StreamingEngine(measures=MEASURES)
        with use_backend("numpy"):
            engine.bulk_arrive(
                (f"seed-{index}", offer) for index, offer in enumerate(offers)
            )
        return engine

    def churn_events(engine: StreamingEngine, repack: bool) -> float:
        victims = [f"seed-{rng.randrange(size)}" for _ in range(events)]
        seen = set()
        started = time.perf_counter()
        for index, offer in enumerate(churn):
            engine.apply(OfferArrived(f"churn-{index}", offer))
            victim = victims[index]
            if victim not in seen and victim in engine:
                seen.add(victim)
                engine.apply(OfferExpired(victim))
            if repack:
                ProfileMatrix(engine.live_offers())
        return (time.perf_counter() - started) / (events * 2)

    engine = build()
    incremental = churn_events(engine, repack=False)
    _verify_bit_identical(engine)
    publish_started = time.perf_counter()
    engine.live_matrix()
    publish = time.perf_counter() - publish_started

    rng = random.Random(seed + 2)  # identical victim sequence
    repack_engine = build()
    repacked = churn_events(repack_engine, repack=True)
    repack_started = time.perf_counter()
    ProfileMatrix(repack_engine.live_offers())
    repack_once = time.perf_counter() - repack_started

    matrix_cache.clear()
    return {
        "name": f"live_update_{size}",
        "scale": size,
        "events": events * 2,
        "incremental_s_per_event": incremental,
        "repack_s_per_event": repacked,
        "publish_s": publish,
        "full_repack_s": repack_once,
        "ops_per_s": 1.0 / incremental if incremental else 0.0,
        "speedup": repacked / incremental if incremental else 0.0,
    }


def _best_of(operation, repeats: int = 3) -> tuple[float, object]:
    """Minimum wall-clock of a few runs (robust against scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = operation()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_generation_objectives(
    fleet_size: int = 400, generation: int = 24, seed: int = 5
) -> dict:
    """One ``batch_objectives`` call vs. the per-schedule Python fold."""
    rng = random.Random(seed)
    fleet = population(fleet_size, seed=seed)
    with use_backend("numpy"):
        schedules = [
            build_validated_schedule(
                fleet, [random_profile(offer, rng) for offer in fleet]
            )
            for _ in range(generation)
        ]
    objective = ImbalanceObjective("absolute")

    fold_elapsed, scalar = _best_of(
        lambda: [objective.of_schedule(schedule) for schedule in schedules]
    )

    with use_backend("numpy"):
        batch_elapsed, batched = _best_of(
            lambda: objective.of_generation(schedules)
        )

    assert batched == scalar  # bit-identical, not merely close
    return {
        "name": f"generation_objectives_{fleet_size}x{generation}",
        "fleet": fleet_size,
        "generation": generation,
        "fold_s": fold_elapsed,
        "batch_s": batch_elapsed,
        "ops_per_s": generation / batch_elapsed if batch_elapsed else 0.0,
        "speedup": fold_elapsed / batch_elapsed if batch_elapsed else 0.0,
    }


def bench_records(gate_scale: bool = False) -> list[dict]:
    """Machine-readable records for ``tools/bench_to_json.py``."""
    records = [bench_live_updates(10_000)]
    if gate_scale:
        records.append(bench_live_updates(GATE_SCALE))
    records.append(bench_generation_objectives())
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
def test_live_updates_smoke_at_10k():
    """Correctness smoke at 10k: live maintenance beats re-packing and the
    maintained matrix is bit-identical (asserted inside the run)."""
    record = bench_live_updates(10_000)
    _print_record(record)
    assert record["speedup"] > 1.0


@pytest.mark.slow
@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
def test_incremental_update_gate_at_100k():
    """CI gate (push-only job): ≥10x per-event update vs. re-pack at 100k."""
    record = bench_live_updates(GATE_SCALE)
    _print_record(record)
    assert record["speedup"] >= GATE_UPDATE_SPEEDUP, record


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
def test_generation_objectives_gate():
    """CI gate: ≥3x generation scoring vs. the per-schedule fold, with
    bit-identical floats (asserted inside the run)."""
    record = bench_generation_objectives()
    _print_record(record)
    assert record["speedup"] >= GATE_OBJECTIVE_SPEEDUP, record


if __name__ == "__main__":
    main()
