"""Lifecycle of the incrementally maintained (live) ProfileMatrix.

The tentpole contract of the incremental-matrix PR: after *any* interleaving
of arrivals, evictions, expiries and assignments — including runs that cross
the tombstone-ratio compaction threshold — the engine's live matrix is
bit-identical to a fresh pack of the surviving population.  Also covered:
the matrix mutation primitives themselves (append / tombstone / compact /
snapshot), the compaction threshold, the engine's memoised snapshot, and the
engine's columnar fold against its dictionary path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import stream_flexoffers

from repro.backend import NUMPY_AVAILABLE
from repro.backend.cache import matrix_cache
from repro.core import FlexOffer
from repro.stream import (
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamingEngine,
    Tick,
)

pytestmark = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

MEASURES = ["time", "energy", "product", "vector", "assignments"]

ARRAYS = ("tes", "tls", "cmin", "cmax", "durations", "offsets", "amin", "amax")


@pytest.fixture(autouse=True)
def clean_cache():
    matrix_cache.clear()
    yield
    matrix_cache.clear()


def make_offer(rng: random.Random, index: int) -> FlexOffer:
    earliest = rng.randrange(0, 8)
    slices = [
        (rng.randint(-3, 2), rng.randint(3, 6))
        for _ in range(rng.randint(1, 4))
    ]
    return FlexOffer(earliest, earliest + rng.randrange(0, 4), slices, name=f"o{index}")


def assert_bit_identical(matrix, fresh):
    import numpy as np

    for name in ARRAYS:
        actual, expected = getattr(matrix, name), getattr(fresh, name)
        assert np.array_equal(actual, expected), name
        assert actual.dtype == expected.dtype, name
    assert matrix.offers == fresh.offers
    assert matrix.size == fresh.size and matrix.dead_count == 0


# --------------------------------------------------------------------- #
# Matrix mutation primitives
# --------------------------------------------------------------------- #


def test_append_tombstone_compact_equal_fresh_pack():
    from repro.backend.matrix import ProfileMatrix

    rng = random.Random(0)
    offers = [make_offer(rng, index) for index in range(40)]
    matrix = ProfileMatrix(offers[:10])
    matrix.compact_threshold = 1.0
    matrix.append(offers[10:25])
    matrix.tombstone([0, 3, 11, 24])
    survivors = [
        offer for offer, alive in zip(offers[:25], matrix.alive.tolist()) if alive
    ]
    matrix.append(offers[25:40])
    survivors += offers[25:40]
    matrix.compact()
    assert_bit_identical(matrix, ProfileMatrix(survivors))


def test_tombstone_ratio_triggers_compaction():
    from repro.backend.matrix import ProfileMatrix

    rng = random.Random(1)
    offers = [make_offer(rng, index) for index in range(10)]
    matrix = ProfileMatrix(offers)
    matrix.compact_threshold = 0.3
    assert matrix.tombstone([0]) is None  # 1/10 < 0.3
    assert matrix.tombstone([1]) is None  # 2/10 < 0.3
    kept = matrix.tombstone([2])  # 3/10 >= 0.3 -> compacts
    assert kept is not None and kept.tolist() == list(range(3, 10))
    assert matrix.dead_count == 0 and matrix.size == 7


def test_append_overflow_leaves_matrix_untouched():
    from repro.backend.matrix import ProfileMatrix

    rng = random.Random(2)
    offers = [make_offer(rng, index) for index in range(4)]
    matrix = ProfileMatrix(offers)
    huge = FlexOffer(0, 1, [(0, 1 << 45)], name="huge")
    with pytest.raises(OverflowError):
        matrix.append([huge])
    assert_bit_identical(matrix, ProfileMatrix(offers))


def test_snapshot_is_frozen_and_stable_across_mutations():
    import numpy as np

    from repro.backend.matrix import ProfileMatrix

    rng = random.Random(4)
    offers = [make_offer(rng, index) for index in range(12)]
    matrix = ProfileMatrix(offers)
    matrix.compact_threshold = 0.2
    frozen = matrix.snapshot()
    reference = {name: getattr(frozen, name).copy() for name in ARRAYS}
    matrix.append([make_offer(rng, 100 + index) for index in range(30)])
    matrix.tombstone(range(10))
    for name, expected in reference.items():
        assert np.array_equal(getattr(frozen, name), expected), name
    for mutate in (
        lambda: frozen.append([make_offer(rng, 999)]),
        lambda: frozen.tombstone([0]),
        lambda: frozen.compact(),
    ):
        with pytest.raises(ValueError):
            mutate()


# --------------------------------------------------------------------- #
# The engine's memoised snapshot
# --------------------------------------------------------------------- #


def test_live_matrix_refreshes_after_mutation_even_without_cache():
    """The engine hands out one frozen snapshot per population state: the
    same object until a mutation, a fresh one after it — no cache involved."""
    rng = random.Random(11)
    engine = StreamingEngine(measures=["time", "energy"])
    for index in range(3):
        engine.apply(OfferArrived(f"f{index}", make_offer(rng, index)))
    first = engine.live_matrix()
    assert len(first) == 3
    assert engine.live_matrix() is first  # memoised until mutation
    engine.apply(OfferArrived("f3", make_offer(rng, 3)))
    refreshed = engine.live_matrix()
    assert refreshed is not first and len(refreshed) == engine.size == 4
    assert len(first) == 3  # the handed-out snapshot stays frozen


def test_engine_degrades_on_unpackable_offer_and_rearms_when_empty():
    rng = random.Random(6)
    engine = StreamingEngine(measures=["time", "energy"])
    engine.apply(OfferArrived("ok", make_offer(rng, 0)))
    engine.apply(OfferArrived("huge", FlexOffer(0, 1, [(0, 1 << 45)], name="huge")))
    assert engine.live_matrix() is None  # degraded: dict path only
    report = engine.report()
    assert report.values["energy"] == float(
        sum(offer.cmax - offer.cmin for offer in engine.live_offers())
    )
    engine.apply(OfferExpired("ok"))
    engine.apply(OfferAssigned("huge", start_time=0))
    assert engine.size == 0
    engine.apply(OfferArrived("fresh", make_offer(rng, 1)))
    assert engine.live_matrix() is not None  # re-armed after emptying


def test_tracked_measures_subset_and_validation():
    rng = random.Random(7)
    engine = StreamingEngine(
        measures=MEASURES, window_capacity=4, tracked_measures=["time", "vector"]
    )
    for index in range(5):
        engine.apply(OfferArrived(f"f{index}", make_offer(rng, index)))
    engine.apply(Tick(1))
    summary = engine.snapshot().window_summary
    assert sorted(summary) == ["time", "vector"]
    expected = engine.report().values
    assert summary["time"]["last"] == expected["time"]
    assert summary["vector"]["last"] == expected["vector"]
    from repro.stream import StreamError

    with pytest.raises(StreamError):
        StreamingEngine(
            measures=["time"], window_capacity=4, tracked_measures=["nope"]
        )


# --------------------------------------------------------------------- #
# Hypothesis: any interleaving leaves the live matrix batch-identical
# --------------------------------------------------------------------- #


@pytest.mark.slow
@settings(
    max_examples=50,
    deadline=None,
    # The interleaving loop legitimately drains every generated offer, so
    # the smallest natural example is inherently draw-heavy.
    suppress_health_check=[HealthCheck.large_base_example, HealthCheck.data_too_large],
)
@given(
    data=st.data(),
    threshold=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    offers=st.lists(stream_flexoffers(), min_size=1, max_size=14),
)
def test_live_matrix_matches_fresh_pack_after_any_interleaving(
    data, threshold, offers
):
    """Arrivals / evictions / expiries / assignments / bulk ingestion, in any
    order and across compaction thresholds, leave the live matrix
    bit-identical to a fresh pack of the surviving population, and the
    columnar folds equal the dictionary path."""
    from repro.backend.matrix import ProfileMatrix

    engine = StreamingEngine(measures=MEASURES)
    engine._live.matrix.compact_threshold = threshold
    live_ids: list[str] = []
    pending = list(enumerate(offers))
    clock = 0
    while pending or (live_ids and data.draw(st.booleans(), label="more")):
        choices = ["tick"]
        if pending:
            choices += ["arrive", "bulk"]
        if live_ids:
            choices += ["expire", "assign"]
        action = data.draw(st.sampled_from(choices), label="action")
        if action == "arrive":
            index, offer = pending.pop(0)
            engine.apply(OfferArrived(f"f{index}", offer))
            live_ids.append(f"f{index}")
        elif action == "bulk":
            count = data.draw(
                st.integers(min_value=1, max_value=len(pending)), label="bulk"
            )
            batch = [pending.pop(0) for _ in range(count)]
            engine.bulk_arrive(
                [(f"f{index}", offer) for index, offer in batch]
            )
            live_ids.extend(f"f{index}" for index, _ in batch)
        elif action in ("expire", "assign"):
            victim = live_ids.pop(
                data.draw(
                    st.integers(min_value=0, max_value=len(live_ids) - 1),
                    label="victim",
                )
            )
            if action == "expire":
                engine.apply(OfferExpired(victim))
            else:
                engine.apply(OfferAssigned(victim, start_time=0))
        else:
            clock += 1
            engine.apply(Tick(clock))

    survivors = engine.live_offers()
    matrix = engine.live_matrix()
    assert matrix is not None
    fresh = ProfileMatrix(survivors)
    assert_bit_identical(matrix, fresh)
    # Columnar folds reproduce the dictionary path exactly.
    for measure in engine.measures:
        if engine._unsupported_counts[measure.key]:
            continue
        folded = engine._live.fold(measure.key)
        expected = [
            engine._values[offer_id][measure.key] for offer_id in engine.live_ids()
        ]
        assert folded is None or folded == expected, measure.key
