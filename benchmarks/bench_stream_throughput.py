"""E-STREAM — throughput of the streaming engine vs. naive re-batching.

The ROADMAP's north star is heavy, continuous flex-offer traffic.  The batch
pipeline can only serve that by re-running ``group_by_grid`` →
``aggregate_all`` → ``evaluate_set`` after every event — O(population) work
for an O(1)-sized change.  This benchmark measures events/sec of the
:class:`~repro.stream.StreamingEngine` against that naive re-batching
baseline on populations of 1k / 10k / 100k offers, under a churn workload
(one expiry + one arrival per step, holding the population size constant).

Two engine numbers are reported:

* ``maintain`` — apply-only throughput (the engine's O(1)-per-event claim);
* ``query``    — apply plus a full population report every event (the worst
  case where a consumer wants batch-pipeline outputs after *each* event; the
  report combines cached per-offer values, so it is O(population) floating
  additions, not O(population) measure re-evaluations).

Each scale prints a JSON results block so runs can be scraped and compared;
the acceptance gate asserts the incremental path beats naive re-batching by
at least 10x at the 10k scale even on the conservative ``query`` number.

A second gate covers the trade path's book: on an unchanged 20k narrow
population (the gateway's ``sharded`` shape), a repeated
``engine.aggregates()`` returns each grid cell's kept lot and must be at
least 20x faster than re-batching ``aggregate_all(group_by_grid(live))``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.aggregation import GroupingParameters, aggregate_all, group_by_grid
from repro.core import FlexOffer
from repro.measures import evaluate_set
from repro.stream import OfferArrived, OfferExpired, StreamingEngine

try:
    from bench_sharded_scaling import narrow_population
except ImportError:  # pragma: no cover - loaded by path (bench_to_json)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_sharded_scaling import narrow_population

try:
    from conftest import report
except ImportError:  # pragma: no cover - loaded by path (bench_to_json)

    def report(title: str, lines) -> None:
        """Plain-stdout stand-in when pytest's conftest is not importable."""
        print(f"\n=== {title} ===")
        for line in lines:
            print(f"  {line}")

#: Cheap per-offer measures so the naive baseline stays runnable at 100k.
MEASURES = ["time", "energy", "vector"]
PARAMETERS = GroupingParameters()

#: (population size, churn events timed, naive re-batch events timed)
SCALES = [
    (1_000, 400, 10),
    (10_000, 400, 5),
    (100_000, 400, 2),
]


def synthetic_population(size: int, seed: int = 0) -> list[FlexOffer]:
    """A cheap day-ahead-style population (96 quarter-hour start slots)."""
    rng = random.Random(seed)
    population = []
    for index in range(size):
        earliest = rng.randrange(0, 96)
        time_flex = rng.randrange(0, 8)
        slices = []
        for _ in range(rng.randint(1, 4)):
            low = rng.randint(0, 3)
            slices.append((low, low + rng.randint(0, 3)))
        population.append(
            FlexOffer(earliest, earliest + time_flex, slices, name=f"syn-{index}")
        )
    return population


def run_scale(size: int, churn_events: int, naive_events: int) -> dict[str, float]:
    population = synthetic_population(size, seed=size)
    replacements = synthetic_population(churn_events, seed=size + 1)

    # --- incremental engine -------------------------------------------- #
    engine = StreamingEngine(parameters=PARAMETERS, measures=MEASURES)
    start = time.perf_counter()
    for index, flex_offer in enumerate(population):
        engine.apply(OfferArrived(f"o{index}", flex_offer))
    prefill_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for step in range(churn_events):
        engine.apply(OfferExpired(f"o{step}"))
        engine.apply(OfferArrived(f"n{step}", replacements[step]))
    maintain_seconds = time.perf_counter() - start
    maintain_eps = 2 * churn_events / maintain_seconds

    query_steps = max(10, naive_events * 4)
    start = time.perf_counter()
    for step in range(query_steps):
        engine.apply(OfferExpired(f"n{step}"))
        engine.apply(OfferArrived(f"n{step}", replacements[step]))
        engine.report()
    query_seconds = time.perf_counter() - start
    query_eps = 2 * query_steps / query_seconds

    # --- naive re-batching baseline ------------------------------------ #
    survivors = list(population)
    start = time.perf_counter()
    for step in range(naive_events):
        survivors[step] = replacements[step]  # same churn, batch world-view
        groups = group_by_grid(survivors, PARAMETERS)
        aggregate_all(groups)
        evaluate_set(survivors, MEASURES)
    naive_seconds = time.perf_counter() - start
    naive_eps = naive_events / naive_seconds

    return {
        "population": size,
        "prefill_seconds": round(prefill_seconds, 4),
        "engine_maintain_events_per_sec": round(maintain_eps, 1),
        "engine_query_events_per_sec": round(query_eps, 1),
        "naive_rebatch_events_per_sec": round(naive_eps, 3),
        "speedup_maintain": round(maintain_eps / naive_eps, 1),
        "speedup_query": round(query_eps / naive_eps, 1),
    }


#: Population of the kept-aggregates gate (the gateway's ``sharded`` scale).
LIVE_AGGREGATES_SIZE = 20_000


def _median_seconds(operation, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def live_aggregates(size: int) -> dict[str, float]:
    """A repeated ``engine.aggregates()`` vs. re-batching the same book."""
    engine = StreamingEngine(parameters=PARAMETERS, measures=MEASURES)
    engine.bulk_arrive(
        (f"o{index}", offer)
        for index, offer in enumerate(narrow_population(size, seed=size))
    )
    live = engine.live_offers()
    kept = engine.aggregates()
    assert kept == aggregate_all(group_by_grid(live, PARAMETERS))
    kept_seconds = _median_seconds(engine.aggregates, 9)
    batch_seconds = _median_seconds(
        lambda: aggregate_all(group_by_grid(live, PARAMETERS)), 3
    )
    return {
        "population": size,
        "lots": len(kept),
        "kept_ms": round(kept_seconds * 1e3, 4),
        "rebatch_ms": round(batch_seconds * 1e3, 2),
        "speedup": round(batch_seconds / kept_seconds, 1),
    }


def bench_records(gate_scale: bool = False) -> list[dict]:
    """Machine-readable records for ``tools/bench_to_json.py``."""
    scales = [(10_000, 400, 5)] if gate_scale else [(1_000, 300, 5)]
    records = []
    for size, churn, naive in scales:
        results = run_scale(size, churn, naive)
        records.append(
            {
                "name": f"stream_churn_{size}",
                "scale": size,
                "ops_per_s": results["engine_maintain_events_per_sec"],
                "query_ops_per_s": results["engine_query_events_per_sec"],
                "naive_ops_per_s": results["naive_rebatch_events_per_sec"],
                "speedup": results["speedup_maintain"],
                "speedup_query": results["speedup_query"],
            }
        )
    size = LIVE_AGGREGATES_SIZE if gate_scale else 2_000
    results = live_aggregates(size)
    records.append(
        {
            "name": f"live_aggregates_{size}",
            "scale": size,
            "ops_per_s": round(1e3 / results["kept_ms"], 1),
            "naive_ops_per_s": round(1e3 / results["rebatch_ms"], 3),
            "speedup": results["speedup"],
        }
    )
    return records


@pytest.mark.parametrize(
    "size,churn_events,naive_events", SCALES, ids=lambda value: str(value)
)
def test_stream_throughput(size, churn_events, naive_events):
    results = run_scale(size, churn_events, naive_events)

    report(f"Streaming engine vs naive re-batching ({size} offers)", [
        f"engine maintain : {results['engine_maintain_events_per_sec']:>12.1f} events/sec",
        f"engine query    : {results['engine_query_events_per_sec']:>12.1f} events/sec",
        f"naive re-batch  : {results['naive_rebatch_events_per_sec']:>12.3f} events/sec",
        f"speedup         : {results['speedup_maintain']:.0f}x maintain, "
        f"{results['speedup_query']:.0f}x query",
    ])
    print(json.dumps(results, indent=2))

    # The incremental path must beat re-batching decisively; at the 10k
    # scale the acceptance gate is >= 10x even on the conservative
    # query-every-event number.
    assert results["speedup_maintain"] > 10
    if size >= 10_000:
        assert results["speedup_query"] >= 10


def test_engine_scales_sublinearly_per_event():
    """Per-event maintenance cost must not grow with the population."""
    small = run_scale(1_000, 300, 1)
    large = run_scale(10_000, 300, 1)
    # Allow generous noise: 10x population must cost far less than 10x
    # per-event time (it is ~O(1) amortised).
    assert (
        large["engine_maintain_events_per_sec"]
        > small["engine_maintain_events_per_sec"] / 3
    )


def test_live_aggregates_are_kept_between_reads():
    """An unchanged engine serves its book from the kept per-cell lots."""
    results = live_aggregates(LIVE_AGGREGATES_SIZE)
    report(f"Kept live aggregates vs re-batching ({results['population']} offers)", [
        f"lots            : {results['lots']:>12}",
        f"engine (kept)   : {results['kept_ms']:>12.4f} ms",
        f"re-batch        : {results['rebatch_ms']:>12.2f} ms",
        f"speedup         : {results['speedup']:.0f}x",
    ])
    print(json.dumps(results, indent=2))
    assert results["speedup"] >= 20
