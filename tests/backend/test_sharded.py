"""Unit tests of the sharded backend's partition/merge machinery.

The differential conformance suite (``test_conformance.py``) pins the
sharded backend observationally equivalent to the reference on hypothesis
populations; these tests target the sharding mechanics directly — chunking,
shard-order error propagation, the aggregation re-anchor merge, delegation
thresholds and executor knobs — on hand-built populations where the
expected shard layout is known.
"""

from __future__ import annotations

import os
import threading
import typing

import pytest

from repro.backend import (
    ShardedBackend,
    available_backends,
    get_backend,
    use_backend,
)
from repro.backend.sharded import DEFAULT_MIN_POPULATION
from repro.core import FlexOffer, MeasureError
from repro.core.errors import BackendError
from repro.measures import evaluate_set, get_measure
from repro.measures.base import (
    FlexibilityMeasure,
    MeasureCharacteristics,
)
from repro.measures.setwise import resolve_measures
from repro.service import SessionConfig
from repro.service.config import ENV_MIN_POPULATION, ENV_SHARDS

#: A ragged population crossing shard boundaries however it is chunked.
OFFERS = [
    FlexOffer(0, 4, [(1, 3), (0, 2)], name="a"),
    FlexOffer(2, 2, [(2, 5)], 2, 4, name="b"),
    FlexOffer(1, 6, [(0, 1), (1, 1), (0, 3)], name="c"),
    FlexOffer(5, 9, [(3, 3)], name="d"),
    FlexOffer(0, 0, [(1, 2), (2, 2)], 3, 4, name="e"),
    FlexOffer(3, 7, [(0, 4)], name="f"),
    FlexOffer(2, 5, [(1, 1), (0, 2), (2, 3)], name="g"),
]


@pytest.fixture
def sharded():
    """A three-shard thread backend with no delegation threshold."""
    backend = ShardedBackend(shards=3, min_population=1)
    yield backend
    backend.close()


def test_sharded_backend_is_registered_by_default():
    assert "sharded" in available_backends()
    assert get_backend("sharded").name == "sharded"


def test_partition_is_contiguous_and_near_even(sharded):
    chunks = sharded._partition(list(range(7)))
    assert [len(chunk) for chunk in chunks] == [3, 2, 2]
    assert [item for chunk in chunks for item in chunk] == list(range(7))
    # Fewer items than shards: empty chunks are dropped, order preserved.
    assert ShardedBackend(shards=4, min_population=1)._partition([1, 2]) == [[1], [2]]


def test_measure_values_concatenate_in_population_order(sharded):
    measure = get_measure("product")
    expected = [measure.value(flex_offer) for flex_offer in OFFERS]
    assert sharded.measure_values(measure, OFFERS) == expected


def test_evaluate_population_matches_reference(sharded):
    measures = resolve_measures(None)
    expected = get_backend("reference").evaluate_population(measures, OFFERS)
    assert sharded.evaluate_population(measures, OFFERS) == expected


def test_aggregate_merge_reanchors_shards(sharded):
    # Shard 0 holds the globally earliest start; shard 2 extends the horizon.
    expected = get_backend("reference").aggregate_columns(OFFERS)
    assert sharded.aggregate_columns(OFFERS) == expected
    # And with the anchor in a *later* shard, so the merge must shift shard 0.
    reversed_offers = list(reversed(OFFERS))
    expected = get_backend("reference").aggregate_columns(reversed_offers)
    assert sharded.aggregate_columns(reversed_offers) == expected


def test_feasible_profiles_and_feasibility_concatenate(sharded):
    reference = get_backend("reference")
    for target in ("min", "max"):
        assert sharded.feasible_profiles(OFFERS, target) == (
            reference.feasible_profiles(OFFERS, target)
        )
    with pytest.raises(ValueError):
        sharded.feasible_profiles(OFFERS, "median")
    starts = [flex_offer.earliest_start for flex_offer in OFFERS]
    values, _ = reference.feasible_profiles(OFFERS, "min")
    bad_values = list(values)
    bad_values[-1] = tuple(v + 1000 for v in bad_values[-1])  # last shard fails
    assert sharded.assignment_feasibility(OFFERS, starts, values) == [True] * len(
        OFFERS
    )
    expected = reference.assignment_feasibility(OFFERS, starts, bad_values)
    assert sharded.assignment_feasibility(OFFERS, starts, bad_values) == expected
    assert expected[-1] is False


def test_error_surfaces_from_lowest_failing_shard(sharded):
    """The exception position matches the reference scalar loop: the first
    offending offer in population order decides, not executor timing."""

    class Explosive(FlexibilityMeasure):
        key = "sharded-explosive-test"
        label = "Explosive"
        characteristics = MeasureCharacteristics(
            captures_time=True,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=False,
        )

        def value(self, flex_offer):
            if flex_offer.name in ("c", "f"):
                raise MeasureError(f"boom on {flex_offer.name}")
            return 1.0

    with pytest.raises(MeasureError, match="boom on c"):
        sharded.measure_values(Explosive(), OFFERS)


def test_support_error_does_not_preempt_earlier_value_error(sharded):
    """Assembly is measure-major like the reference loop: measure 0's value
    error must surface even when measure 1's ``supports`` raises."""

    class BadValue(FlexibilityMeasure):
        key = "sharded-bad-value-test"
        label = "BadValue"
        characteristics = MeasureCharacteristics(
            captures_time=True,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=False,
        )

        def value(self, flex_offer):
            raise MeasureError("value exploded first")

    class BadSupport(FlexibilityMeasure):
        key = "sharded-bad-support-test"
        label = "BadSupport"
        characteristics = BadValue.characteristics

        def value(self, flex_offer):
            return 0.0

        def supports(self, flex_offer):
            raise RuntimeError("supports exploded")

    with pytest.raises(MeasureError, match="value exploded first"):
        sharded.evaluate_population([BadValue(), BadSupport()], OFFERS)
    with pytest.raises(RuntimeError, match="supports exploded"):
        sharded.evaluate_population([BadSupport(), BadValue()], OFFERS)


def test_skip_false_with_raising_supports_matches_reference(sharded):
    """skip_unsupported=False + an early-shard unsupported verdict + a
    later-shard raising ``supports``: the reference's lazy all() never hits
    the raiser and still returns values — so must the sharded assembly."""

    class Quirky(FlexibilityMeasure):
        key = "sharded-quirky-support-test"
        label = "Quirky"
        characteristics = MeasureCharacteristics(
            captures_time=True,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=False,
        )

        def supports(self, flex_offer):
            if flex_offer.name == "g":  # last shard
                raise RuntimeError("supports exploded late")
            return flex_offer.name != "a"  # first shard: unsupported

        def value(self, flex_offer):
            return 1.0

    measures = [Quirky()]
    expected = get_backend("reference").evaluate_population(
        measures, OFFERS, skip_unsupported=False
    )
    assert sharded.evaluate_population(
        measures, OFFERS, skip_unsupported=False
    ) == expected
    assert expected[0] == {"sharded-quirky-support-test": float(len(OFFERS))}


def test_set_value_override_falls_back_to_full_population(sharded):
    """A non-decomposable set semantics must not be shard-merged."""

    class MaxTime(FlexibilityMeasure):
        key = "sharded-max-time-test"
        label = "MaxTime"
        characteristics = MeasureCharacteristics(
            captures_time=True,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=False,
        )

        def value(self, flex_offer):
            return float(flex_offer.time_flexibility)

        def set_value(self, flex_offers):  # max, not the default sum
            return max((self.value(f) for f in flex_offers), default=0.0)

    values, skipped = sharded.evaluate_population([MaxTime()], OFFERS)
    assert skipped == []
    assert values["sharded-max-time-test"] == max(
        f.time_flexibility for f in OFFERS
    )


def test_mean_measures_combine_over_concatenated_values(sharded):
    """Relative area averages per-offer values: the shard merge must divide
    by the population size once, not average per-shard averages."""
    measure = get_measure("relative_area")
    expected = measure.set_value(OFFERS)
    assert sharded.measure_set_value(measure, OFFERS) == expected


def test_skip_unsupported_merges_support_across_shards(sharded):
    mixed = FlexOffer(0, 1, [(-2, 3)], name="mixed")
    population = OFFERS + [mixed]  # the offending offer sits in the last shard
    reference = get_backend("reference").evaluate_population(
        resolve_measures(None), population
    )
    assert sharded.evaluate_population(resolve_measures(None), population) == (
        reference
    )
    assert "absolute_area" in reference[1]  # sanity: something was skipped


def test_delegation_below_min_population():
    backend = ShardedBackend(shards=3, min_population=DEFAULT_MIN_POPULATION)
    assert backend._delegates(OFFERS)
    measure = get_measure("energy")
    expected = [measure.value(flex_offer) for flex_offer in OFFERS]
    assert backend.measure_values(measure, OFFERS) == expected
    assert ShardedBackend(shards=1, min_population=1)._delegates(OFFERS)


def test_dispatch_through_use_backend(sharded):
    """evaluate_set through the registry-selected sharded backend."""
    from repro.backend import register_backend

    register_backend(ShardedBackend(shards=3, min_population=1))
    try:
        with use_backend("reference"):
            expected = evaluate_set(OFFERS)
        with use_backend("sharded"):
            report = evaluate_set(OFFERS)
        assert report == expected
    finally:
        register_backend(ShardedBackend())


def test_environment_knobs(monkeypatch):
    """The shard knobs reach a session's backend through SessionConfig;
    the backend constructor itself keeps its plain defaults."""
    monkeypatch.setenv(ENV_SHARDS, "5")
    monkeypatch.setenv(ENV_MIN_POPULATION, "17")
    config = SessionConfig(backend="sharded")
    assert config.shards == 5
    assert config.shard_min_population == 17
    backend = ShardedBackend()
    assert backend.shards == (os.cpu_count() or 1)
    assert backend.min_population == DEFAULT_MIN_POPULATION


def test_malformed_environment_warns_and_defaults(monkeypatch):
    """Bad env knobs warn once, in SessionConfig, and fall back; the
    backend constructor never sees them."""
    monkeypatch.setenv(ENV_SHARDS, "four")
    monkeypatch.setenv(ENV_MIN_POPULATION, "-3")
    with pytest.warns(RuntimeWarning) as caught:
        config = SessionConfig(backend="sharded")
    assert len(caught) == 2
    assert config.shards >= 1
    assert config.shard_min_population == DEFAULT_MIN_POPULATION


def test_explicit_arguments_fail_fast():
    with pytest.raises(BackendError):
        ShardedBackend(shards=0)
    with pytest.raises(BackendError):
        ShardedBackend(min_population=-1)
    with pytest.raises(BackendError):
        ShardedBackend(inner="sharded")  # would recurse into itself
    with pytest.raises(BackendError):
        ShardedBackend(inner="nunpy")  # unknown inner fails at construction


def test_the_pool_is_bounded_by_the_host_not_the_shard_count():
    """A tenant may ask for any number of shards; the pool it gets never
    has more workers than the host has cores.  Building the pool starts
    no thread."""
    backend = ShardedBackend(shards=10_000)
    try:
        assert backend._executor()._max_workers <= (os.cpu_count() or 1)
    finally:
        backend.close()


def test_more_shards_than_cores_match_the_reference_on_bounded_threads():
    """Shards beyond the core count queue on the bounded pool: results
    stay bit-identical (merges follow shard order) and the fan-out starts
    at most one thread per core."""
    cores = os.cpu_count() or 1
    population = (OFFERS * 10)[:64]
    measures = resolve_measures(None)
    expected = get_backend("reference").evaluate_population(measures, population)
    backend = ShardedBackend(shards=cores + 2, min_population=1)
    before = threading.active_count()
    try:
        assert backend.evaluate_population(measures, population) == expected
        assert threading.active_count() - before <= cores
    finally:
        backend.close()


def test_close_is_idempotent_and_pool_recreates(sharded):
    measure = get_measure("time")
    first = sharded.measure_values(measure, OFFERS)
    sharded.close()
    sharded.close()
    assert sharded.measure_values(measure, OFFERS) == first


@pytest.mark.parametrize("name", available_backends())
def test_backend_constructor_annotations_resolve(name):
    """Every registered backend's ``__init__`` annotations name importable
    types, so ``typing.get_type_hints`` (and tools built on it) work."""
    typing.get_type_hints(type(get_backend(name)).__init__)
