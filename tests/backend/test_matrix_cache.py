"""Behaviour of the fingerprint-keyed ProfileMatrix cache.

Covers hit/miss accounting on stable vs. mutated populations, LRU and
cell-budget bounds, the disable knob, thread-safety of ``use_backend``
interleavings around the shared cache — and that the streaming engine
keeps its live population out of the cache: every population-mutating
event invalidates the engine's own memoised live matrix, never a cache
entry.
"""

from __future__ import annotations

import threading

import pytest

from repro.backend import NUMPY_AVAILABLE, use_backend
from repro.backend.cache import MatrixCache, matrix_cache
from repro.core import FlexOffer
from repro.measures import evaluate_set
from repro.stream import (
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamingEngine,
    Tick,
)

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

POPULATION = [
    FlexOffer(0, 4, [(1, 3), (0, 2)], name="a"),
    FlexOffer(2, 6, [(2, 5)], 2, 4, name="b"),
    FlexOffer(1, 6, [(0, 1), (1, 1), (0, 3)], name="c"),
    FlexOffer(5, 9, [(3, 3)], name="d"),
]

ENGINE_MEASURES = ["time", "energy", "product", "vector"]


@pytest.fixture(autouse=True)
def clean_cache():
    """Each test observes only its own entries (counters are deltas)."""
    matrix_cache.clear()
    yield
    matrix_cache.clear()


def build_counter():
    """A builder stub counting how many times it actually ran."""
    calls = []

    def builder(offers):
        calls.append(tuple(offers))
        return ("matrix", len(offers))

    return builder, calls


# --------------------------------------------------------------------- #
# Core LRU semantics (no NumPy required)
# --------------------------------------------------------------------- #


def test_hit_on_stable_population_miss_on_mutated():
    cache = MatrixCache(capacity=4)
    builder, calls = build_counter()
    first = cache.get(POPULATION, builder)
    again = cache.get(POPULATION, builder)
    assert first is again and len(calls) == 1
    assert (cache.hits, cache.misses) == (1, 1)
    # Same content, different objects: fingerprints match, still a hit.
    clone = [
        FlexOffer(
            f.earliest_start,
            f.latest_start,
            [(s.amin, s.amax) for s in f.slices],
            f.cmin,
            f.cmax,
            name=f.name,
        )
        for f in POPULATION
    ]
    assert cache.get(clone, builder) is first
    # A mutated population is a different key -> miss.
    cache.get(POPULATION[1:], builder)
    assert len(calls) == 2
    assert cache.stats()["size"] == 2


def test_lru_eviction_and_capacity_bound():
    cache = MatrixCache(capacity=2)
    builder, calls = build_counter()
    cache.get(POPULATION[:1], builder)
    cache.get(POPULATION[:2], builder)
    cache.get(POPULATION[:1], builder)  # refresh entry 1
    cache.get(POPULATION[:3], builder)  # evicts the stale entry 2
    assert cache.evictions == 1
    assert len(cache) == 2
    cache.get(POPULATION[:1], builder)  # survived: a hit
    assert len(calls) == 3
    cache.get(POPULATION[:2], builder)  # evicted: rebuilt
    assert len(calls) == 4


def test_capacity_zero_disables_storage():
    cache = MatrixCache(capacity=0)
    builder, calls = build_counter()
    cache.get(POPULATION, builder)
    cache.get(POPULATION, builder)
    assert len(calls) == 2 and len(cache) == 0
    with pytest.raises(ValueError):
        MatrixCache(capacity=-1)


def test_environment_capacity(monkeypatch):
    from repro.backend.cache import DEFAULT_CAPACITY
    from repro.service import FlexSession

    # The capacity knob sizes a session's cache through its config; a bare
    # MatrixCache (like the process-wide one) keeps the plain default.
    monkeypatch.setenv("REPRO_MATRIX_CACHE", "3")
    with FlexSession(backend="reference") as session:
        assert session.cache.capacity == 3
    assert MatrixCache().capacity == DEFAULT_CAPACITY
    # Malformed values warn once, in the config, and fall back.
    monkeypatch.setenv("REPRO_MATRIX_CACHE", "off")
    with pytest.warns(RuntimeWarning):
        session = FlexSession(backend="reference")
    with session:
        assert session.cache.capacity == DEFAULT_CAPACITY


def test_renamed_population_does_not_alias():
    """Fingerprints ignore names, but the cache must not serve a renamed
    population another population's offer objects (extension points such as
    an overridden ``supports`` see ``matrix.offers``)."""
    cache = MatrixCache(capacity=4)
    builder, calls = build_counter()
    cache.get(POPULATION, builder)
    renamed = [
        FlexOffer(
            f.earliest_start,
            f.latest_start,
            [(s.amin, s.amax) for s in f.slices],
            f.cmin,
            f.cmax,
            name=f"renamed-{index}",
        )
        for index, f in enumerate(POPULATION)
    ]
    cache.get(renamed, builder)
    assert len(calls) == 2  # distinct entry, not a hit on the original


def test_builder_errors_are_not_cached():
    cache = MatrixCache(capacity=4)
    attempts = []

    def failing(offers):
        attempts.append(1)
        raise OverflowError("unpackable")

    for _ in range(2):
        with pytest.raises(OverflowError):
            cache.get(POPULATION, failing)
    assert len(attempts) == 2 and len(cache) == 0


def test_cell_budget_bounds_retained_weight():
    """Retention is bounded in reported weight (packed slices), not just
    entry count — 32 entries of 1M offers each must not pin gigabytes."""
    cache = MatrixCache(capacity=10, cell_budget=5)

    def builder(offers):
        return ("matrix", len(offers))

    def weigher(value):
        return value[1]

    cache.get(POPULATION[:2], builder, weigher)  # weight 2
    cache.get(POPULATION[:3], builder, weigher)  # weight 3 -> total 5
    assert cache.stats()["weight"] == 5 and len(cache) == 2
    cache.get(POPULATION[:1], builder, weigher)  # over budget: evicts LRU
    assert cache.stats()["weight"] == 4 and len(cache) == 2
    assert cache.evictions == 1
    # An entry heavier than the whole budget is simply not retained — and
    # must not evict the entries that do fit.
    oversized = POPULATION + POPULATION[:2]  # weight 6 > 5
    cache.get(oversized, builder, weigher)
    assert cache.stats()["weight"] == 4 and len(cache) == 2
    assert cache.evictions == 1


def test_clear_drops_every_entry():
    cache = MatrixCache(capacity=4)
    builder, calls = build_counter()
    cache.get(POPULATION, builder)
    cache.get(POPULATION[:2], builder)
    assert cache.clear() == 2 and len(cache) == 0
    assert cache.stats()["misses"] == 2  # counters survive
    cache.get(POPULATION, builder)
    assert len(calls) == 3


# --------------------------------------------------------------------- #
# Wiring: the NumPy backend packs through the cache
# --------------------------------------------------------------------- #


@requires_numpy
def test_repeated_evaluate_set_hits_the_cache():
    with use_backend("numpy"):
        before = matrix_cache.stats()
        first = evaluate_set(POPULATION)
        warm = matrix_cache.stats()
        second = evaluate_set(POPULATION)
        after = matrix_cache.stats()
    assert second == first
    assert warm["misses"] == before["misses"] + 1
    assert after["misses"] == warm["misses"]  # second run: no repacking
    assert after["hits"] > warm["hits"]


@requires_numpy
def test_unpackable_population_falls_back_uncached():
    huge = [FlexOffer(0, 1, [(0, 1 << 50)], name="huge")]
    with use_backend("numpy"):
        report = evaluate_set(huge)
    assert report.size == 1
    assert len(matrix_cache) == 0


# --------------------------------------------------------------------- #
# Wiring: StreamingEngine mutations invalidate its own live matrix
# --------------------------------------------------------------------- #


def make_engine(**kwargs):
    engine = StreamingEngine(measures=ENGINE_MEASURES, **kwargs)
    for index, offer in enumerate(POPULATION):
        engine.apply(OfferArrived(f"f{index}", offer))
    return engine


def assert_refreshed_without_the_cache(engine, mutate, refreshed=True):
    """Run ``mutate``; the memoised live matrix must follow the population
    while the process-wide cache sees no traffic at all."""
    before = matrix_cache.stats()
    stale = engine.live_matrix()
    mutate()
    fresh = engine.live_matrix()
    assert (fresh is not stale) is refreshed
    assert fresh.offers == tuple(engine.live_offers())
    assert matrix_cache.stats() == before


@requires_numpy
@pytest.mark.parametrize(
    "event",
    [
        OfferArrived("fresh", FlexOffer(0, 2, [(1, 2)], name="fresh")),
        OfferExpired("f1"),
        OfferAssigned("f1", start_time=2, price=10.0),
    ],
    ids=["arrival", "expiry", "assignment"],
)
def test_population_mutating_events_invalidate(event):
    engine = make_engine()
    assert_refreshed_without_the_cache(engine, lambda: engine.apply(event))


@requires_numpy
def test_auto_expiry_tick_invalidates():
    engine = make_engine(auto_expire=True)
    assert_refreshed_without_the_cache(engine, lambda: engine.apply(Tick(100)))
    assert engine.size == 0  # every latest_start < 100 -> all expired


@requires_numpy
def test_non_mutating_tick_keeps_the_entry():
    engine = make_engine()  # no auto-expiry: a tick leaves the population
    assert_refreshed_without_the_cache(
        engine, lambda: engine.apply(Tick(1)), refreshed=False
    )


@requires_numpy
def test_bulk_arrive_invalidates_once():
    engine = make_engine()
    arrivals = [
        (f"bulk{index}", FlexOffer(index, index + 2, [(1, 2)], name=f"bulk{index}"))
        for index in range(5)
    ]

    def arrive():
        with use_backend("numpy"):
            engine.bulk_arrive(arrivals)

    assert_refreshed_without_the_cache(engine, arrive)
    assert engine.size == len(POPULATION) + 5


# --------------------------------------------------------------------- #
# Thread-safety of use_backend around the shared cache
# --------------------------------------------------------------------- #


@requires_numpy
def test_use_backend_is_thread_safe_around_the_cache():
    """Interleaved backend contexts on many threads: every thread sees its
    own backend selection, and the shared cache never corrupts results."""
    populations = [POPULATION, POPULATION[:3], POPULATION[1:], POPULATION[:2]]
    with use_backend("reference"):
        expected = [evaluate_set(p) for p in populations]
    failures = []
    barrier = threading.Barrier(8)

    def worker(thread_index):
        backend = "numpy" if thread_index % 2 else "reference"
        population = populations[thread_index % len(populations)]
        target = expected[thread_index % len(populations)]
        barrier.wait()
        try:
            for _ in range(25):
                with use_backend(backend):
                    report = evaluate_set(population)
                if report != target:  # pragma: no cover - failure path
                    failures.append((thread_index, report))
        except Exception as error:  # pragma: no cover - failure path
            failures.append((thread_index, error))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    stats = matrix_cache.stats()
    assert stats["size"] <= stats["capacity"]
