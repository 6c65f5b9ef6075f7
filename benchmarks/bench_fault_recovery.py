"""The price of the fault plane: the fault-free overhead gate.

**Fault-free overhead <= 5%.**  The ``shard.submit`` / ``shard.result``
fault sites sit on the hot fan-out path of every sharded operation, so
their cost when *nothing fails* must be noise: an armed backend (a fault
plan attached whose rules never match; shards are never retried) must
stay within 5% of a bare backend (no plan) on the same workload.

That an injected shard fault raises, returns no partial result and
leaves the next call bit-identical is pinned by
``tests/faults/test_sharded_chaos.py``.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.backend import NUMPY_AVAILABLE, ShardedBackend, get_backend
from repro.faults import SHARD_SUBMIT, FaultPlan, FaultRule
from repro.measures import get_measure
from repro.workloads import neighbourhood_scenario

try:
    from conftest import report
except ImportError:  # pragma: no cover - loaded by path (bench_to_json)

    def report(title: str, lines) -> None:
        """Plain-stdout stand-in when pytest's conftest is not importable."""
        print(f"\n=== {title} ===")
        for line in lines:
            print(f"  {line}")


#: Populations for the overhead measurement (smoke, gate).
SCALES = [2_000, 20_000]

#: Bare/armed call pairs of the overhead measurement.  The two calls of
#: a pair run back to back, in an order flipped on every pair, so host
#: drift hits both sides alike; the gate reads the median per-pair ratio.
PAIRS = 41

#: The overhead gate: armed / bare, fault-free.
MAX_OVERHEAD_RATIO = 1.05

MEASURE = get_measure("product")


def population(size: int) -> list:
    offers = []
    scenario = neighbourhood_scenario(households=64, seed=11)
    while len(offers) < size:
        for offer in scenario.flex_offers:
            offers.append(offer)
            if len(offers) == size:
                break
    return offers


def bare_backend(**kwargs) -> ShardedBackend:
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("min_population", 1)
    return ShardedBackend(faults=None, **kwargs)


def armed_backend(**kwargs) -> ShardedBackend:
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("min_population", 1)
    # A live plan whose rules can never match this workload's sites: the
    # fault plane is fully armed, counters tick, nothing fires.
    plan = FaultPlan([FaultRule(SHARD_SUBMIT, after=10**9)])
    return ShardedBackend(faults=plan, **kwargs)


def seconds(backend, offers) -> float:
    start = time.perf_counter()
    backend.measure_values(MEASURE, offers)
    return time.perf_counter() - start


def paired_seconds(bare, armed, offers, pairs: int = PAIRS):
    """``(bare, armed)`` seconds of ``pairs`` back-to-back call pairs,
    the bare call first on even pairs and second on odd ones."""
    bare.measure_values(MEASURE, offers)  # warm the pools + caches
    armed.measure_values(MEASURE, offers)
    bare_samples, armed_samples = [], []
    for index in range(pairs):
        if index % 2 == 0:
            bare_samples.append(seconds(bare, offers))
            armed_samples.append(seconds(armed, offers))
        else:
            armed_samples.append(seconds(armed, offers))
            bare_samples.append(seconds(bare, offers))
    return bare_samples, armed_samples


def run_overhead(size: int) -> dict:
    offers = population(size)
    bare = bare_backend()
    armed = armed_backend()
    try:
        expected = get_backend("reference").measure_values(MEASURE, offers)
        assert armed.measure_values(MEASURE, offers) == expected
        bare_samples, armed_samples = paired_seconds(bare, armed, offers)
    finally:
        bare.close()
        armed.close()
    ratios = [armed_s / bare_s for bare_s, armed_s in zip(bare_samples, armed_samples)]
    return {
        "population": size,
        "pairs": len(ratios),
        "bare_seconds": round(statistics.median(bare_samples), 5),
        "armed_seconds": round(statistics.median(armed_samples), 5),
        "overhead_ratio": round(statistics.median(ratios), 4),
    }


def bench_records(gate_scale: bool = False) -> list[dict]:
    """Machine-readable records for ``tools/bench_to_json.py``."""
    size = SCALES[1] if gate_scale else SCALES[0]
    overhead = run_overhead(size)
    return [
        {
            "name": f"fault_plane_overhead_{size}",
            "scale": size,
            "bare_seconds": overhead["bare_seconds"],
            "armed_seconds": overhead["armed_seconds"],
            "overhead_ratio": overhead["overhead_ratio"],
        },
    ]


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
@pytest.mark.parametrize("size", SCALES, ids=lambda value: str(value))
def test_fault_free_overhead_gate(size):
    results = run_overhead(size)
    report(f"Fault-plane overhead, fault-free ({size} offers)", [
        f"bare (no plan)         : {results['bare_seconds'] * 1e3:>9.2f} ms",
        f"armed plan, no retries : {results['armed_seconds'] * 1e3:>9.2f} ms",
        f"median per-pair ratio  : {results['overhead_ratio']:.3f} "
        f"({results['pairs']} pairs)",
    ])
    print(json.dumps(results, indent=2))
    # The acceptance gate applies at the larger scale, where per-call cost
    # dominates timer noise; the smoke scale just has to stay sane.
    if size >= SCALES[1]:
        assert results["overhead_ratio"] <= MAX_OVERHEAD_RATIO
    else:
        assert results["overhead_ratio"] <= 1.5
