"""Differential conformance: every backend must match the reference.

The reference backend *is* the semantics (the library's original per-object
code); every other backend is only trustworthy if it is observationally
equivalent.  These hypothesis properties drive random populations — ragged
profile lengths, mixed consumption/production signs, tight total
constraints — through the reference backend and each vectorized/parallel
backend (``numpy``, ``sharded``, ``sharded-remote``) and assert:

* per-offer measure values agree exactly on integer paths and to 1e-9 on
  float paths, for every registered measure in every configuration;
* set values, ``evaluate_set`` reports, start-aligned aggregates, feasible
  extreme profiles, assignment feasibility and bulk support verdicts agree
  likewise;
* when one backend rejects an input (``MeasureError`` family), the other
  rejects it too — with the same exception class;
* the streaming engine's bulk ingestion reproduces per-event ingestion.

The registered ``sharded`` instance is swapped for one with three shards
and no delegation threshold for the duration of this module, so the tiny
hypothesis populations genuinely exercise the shard partition/merge paths
rather than being delegated whole to the inner backend.  ``sharded-remote``
is the backend a config saved by the retired remote shard executor recovers
to (see ``legacy_remote``): three thread shards behind a session's matrix
cache.

Everything here is marked ``slow`` together with the other hypothesis
suites; CI runs it in the dedicated property-tests job.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_remote import register_legacy_remote, unregister_legacy_remote
from strategies import grouping_parameters, populations

from repro.aggregation import aggregate_start_aligned
from repro.backend import (
    NUMPY_AVAILABLE,
    ShardedBackend,
    get_backend,
    register_backend,
    use_backend,
)
from repro.core import (
    MeasureError,
    batch_assignment_feasibility,
    batch_feasible_profiles,
)
from repro.measures import (
    MixedPolicy,
    WeightedFlexibility,
    evaluate_set,
    get_measure,
)
from repro.stream import OfferArrived, StreamingEngine

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available"),
]

#: The backends pinned against the reference in every property below.
VECTOR_BACKENDS = ["numpy", "sharded", "sharded-remote"]

#: Measures whose values are exact integers — backends must agree exactly.
INTEGER_KEYS = {"time", "energy", "product", "assignments", "absolute_area"}


@pytest.fixture(autouse=True, scope="module")
def _sharded_exercises_merge_paths():
    """Make the registered ``sharded`` backend shard even tiny populations,
    and register the backend a saved remote-executor config recovers to."""
    tuned = ShardedBackend(shards=3, min_population=1)
    register_backend(tuned)
    legacy = register_legacy_remote(shards=3)
    yield
    tuned.close()
    unregister_legacy_remote(legacy)
    register_backend(ShardedBackend())


#: Every registered measure in every configuration worth distinguishing.
MEASURE_VARIANTS = [
    ("time", lambda: get_measure("time")),
    ("energy", lambda: get_measure("energy")),
    ("product", lambda: get_measure("product")),
    ("vector-l1", lambda: get_measure("vector", norm="l1")),
    ("vector-l2", lambda: get_measure("vector", norm="l2")),
    ("vector-max", lambda: get_measure("vector", norm="max")),
    ("series-l1", lambda: get_measure("series", norm="l1")),
    ("series-l2", lambda: get_measure("series", norm="l2")),
    ("series-max", lambda: get_measure("series", norm="max")),
    ("assignments", lambda: get_measure("assignments")),
    ("assignments-log", lambda: get_measure("assignments", logarithmic=True)),
    (
        "assignments-constrained",
        lambda: get_measure("assignments", respect_total_constraints=True),
    ),
    ("absolute-forbid", lambda: get_measure("absolute_area")),
    (
        "absolute-paper",
        lambda: get_measure("absolute_area", mixed_policy=MixedPolicy.PAPER_EXAMPLE),
    ),
    (
        "absolute-raw",
        lambda: get_measure("absolute_area", mixed_policy=MixedPolicy.RAW_AREA),
    ),
    ("relative-forbid", lambda: get_measure("relative_area")),
    (
        "relative-paper",
        lambda: get_measure("relative_area", mixed_policy=MixedPolicy.PAPER_EXAMPLE),
    ),
    (
        "weighted",
        lambda: WeightedFlexibility({"time": 1.0, "vector": 2.0, "product": 0.5}),
    ),
]

VARIANT_IDS = [label for label, _ in MEASURE_VARIANTS]
VARIANT_FACTORIES = [factory for _, factory in MEASURE_VARIANTS]


def outcome(callable_):
    """``("ok", value)`` or ``("error", <exact exception class>)`` of a call.

    The exact class matters: callers catch specific ``MeasureError``
    subclasses (e.g. ``UnsupportedFlexOfferError`` to retry with a mixed
    policy), so backends must raise the same subclass on the same input.
    """
    try:
        return "ok", callable_()
    except MeasureError as error:
        return "error", type(error)
    except (OverflowError, ValueError) as error:  # pragma: no cover - debugging aid
        return "error", type(error)


def assert_values_agree(key, reference, vectorized):
    assert len(reference) == len(vectorized)
    for expected, actual in zip(reference, vectorized):
        if key in INTEGER_KEYS:
            assert actual == expected
        else:
            assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9)


# --------------------------------------------------------------------- #
# Per-offer measure values
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@pytest.mark.parametrize("factory", VARIANT_FACTORIES, ids=VARIANT_IDS)
@given(population=populations(max_size=8))
@settings(max_examples=25, deadline=None)
def test_per_offer_values_agree(backend, factory, population):
    measure = factory()
    reference = outcome(
        lambda: get_backend("reference").measure_values(measure, population)
    )
    vectorized = outcome(
        lambda: get_backend(backend).measure_values(measure, population)
    )
    if reference[0] == "ok" and vectorized[0] == "ok":
        assert_values_agree(measure.key, reference[1], vectorized[1])
    else:
        # Error parity includes the exact exception class: callers catch
        # specific MeasureError subclasses (retry-with-mixed-policy flows).
        assert vectorized == reference


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@pytest.mark.parametrize("factory", VARIANT_FACTORIES, ids=VARIANT_IDS)
@given(population=populations(max_size=8))
@settings(max_examples=25, deadline=None)
def test_set_values_agree(backend, factory, population):
    measure = factory()
    with use_backend("reference"):
        reference = outcome(lambda: measure.set_value(population))
    with use_backend(backend):
        vectorized = outcome(lambda: measure.set_value(population))
    if reference[0] == "ok" and vectorized[0] == "ok":
        if measure.key in INTEGER_KEYS:
            assert vectorized[1] == reference[1]
        else:
            assert math.isclose(
                vectorized[1], reference[1], rel_tol=1e-9, abs_tol=1e-9
            )
    else:
        assert vectorized == reference  # same exact exception class


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@given(population=populations(max_size=10))
@settings(max_examples=25, deadline=None)
def test_evaluate_set_reports_agree(backend, population):
    """The full-registry report: identical keys, skips and values."""
    with use_backend("reference"):
        reference = outcome(lambda: evaluate_set(population))
    with use_backend(backend):
        vectorized = outcome(lambda: evaluate_set(population))
    if reference[0] != "ok" or vectorized[0] != "ok":
        assert vectorized == reference  # same exact exception class
        return
    assert vectorized[1].skipped == reference[1].skipped
    assert set(vectorized[1].values) == set(reference[1].values)
    for key, expected in reference[1].values.items():
        actual = vectorized[1].values[key]
        if key in INTEGER_KEYS:
            assert actual == expected
        else:
            assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@pytest.mark.parametrize(
    "factory",
    [lambda: get_measure("relative_area"), lambda: get_measure("series")],
    ids=["relative_area", "series"],
)
@given(population=populations(max_size=10))
@settings(max_examples=25, deadline=None)
def test_measure_support_agrees(backend, factory, population):
    """Bulk applicability verdicts match the scalar ``supports`` loop."""
    measure = factory()
    reference = get_backend("reference").measure_support(measure, population)
    vectorized = get_backend(backend).measure_support(measure, population)
    assert vectorized == reference
    assert reference == [measure.supports(flex_offer) for flex_offer in population]


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@given(members=populations(min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_start_aligned_aggregation_agrees(backend, members):
    """Aggregates are integer structures: equality must be exact (==)."""
    with use_backend("reference"):
        reference = aggregate_start_aligned(members)
    with use_backend(backend):
        vectorized = aggregate_start_aligned(members)
    assert vectorized == reference


# --------------------------------------------------------------------- #
# Assignments
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@pytest.mark.parametrize("target", ["min", "max"])
@given(population=populations(max_size=8))
@settings(max_examples=40, deadline=None)
def test_feasible_profiles_agree(backend, target, population):
    with use_backend("reference"):
        reference = batch_feasible_profiles(population, target)
    with use_backend(backend):
        vectorized = batch_feasible_profiles(population, target)
    assert vectorized == reference


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@given(
    population=populations(min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_assignment_feasibility_agrees(backend, population, data):
    """Candidate assignments around the valid region: same verdict per offer."""
    starts = []
    profiles = []
    for flex_offer in population:
        starts.append(
            data.draw(
                st.integers(
                    min_value=flex_offer.earliest_start - 1,
                    max_value=flex_offer.latest_start + 1,
                )
            )
        )
        profiles.append(
            tuple(
                data.draw(st.integers(min_value=s.amin - 1, max_value=s.amax + 1))
                for s in flex_offer.slices
            )
        )
    with use_backend("reference"):
        reference = batch_assignment_feasibility(population, starts, profiles)
    with use_backend(backend):
        vectorized = batch_assignment_feasibility(population, starts, profiles)
    assert vectorized == reference


# --------------------------------------------------------------------- #
# Streaming bulk ingestion
# --------------------------------------------------------------------- #

ENGINE_MEASURES = [
    "time",
    "energy",
    "product",
    "vector",
    "series",
    "assignments",
    "absolute_area",
    "relative_area",
]


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@given(population=populations(max_size=8), parameters=grouping_parameters())
@settings(max_examples=25, deadline=None)
def test_bulk_arrive_matches_per_event_ingestion(backend, population, parameters):
    """bulk_arrive under a bulk backend ≡ per-event arrivals (reference)."""
    # The relative-area measure supports — but cannot evaluate — offers whose
    # totals pin the energy to exactly zero; both ingestion paths would raise
    # identically, which the set-value properties already cover.  Keep the
    # engine comparison on evaluable populations.
    population = [f for f in population if abs(f.cmin) + abs(f.cmax) > 0]
    arrivals = [(f"f{index}", offer) for index, offer in enumerate(population)]
    with use_backend("reference"):
        per_event = StreamingEngine(parameters=parameters, measures=ENGINE_MEASURES)
        for offer_id, offer in arrivals:
            per_event.apply(OfferArrived(offer_id, offer))
        reference_snapshot = per_event.snapshot()
    with use_backend(backend):
        bulk = StreamingEngine(parameters=parameters, measures=ENGINE_MEASURES)
        bulk.bulk_arrive(arrivals)
        bulk_snapshot = bulk.snapshot()
    assert bulk_snapshot == reference_snapshot


# --------------------------------------------------------------------- #
# Generation objectives (batch_objectives)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@pytest.mark.parametrize("metric", ["absolute", "squared"])
@given(
    population=populations(min_size=0, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
    reference_kind=st.sampled_from(["none", "int", "float", "empty"]),
)
@settings(max_examples=30, deadline=None)
def test_batch_objectives_agree(backend, metric, population, seed, reference_kind):
    """Generation objectives equal the reference fold bit-for-bit.

    Schedules are random valid assignments (the evolutionary scheduler's
    gene shape), references cover the int, float and empty spans; the
    sharded instance partitions the schedules across three shards, so the
    concat merge is exercised too.  Exactness is asserted with ``==`` —
    the contract is bit-identity, not closeness, because scheduler
    selection decisions ride on these floats.
    """
    import random as random_module

    from repro.core import TimeSeries
    from repro.scheduling.stochastic import random_profile

    rng = random_module.Random(seed)
    schedules = [
        [random_profile(flex_offer, rng) for flex_offer in population]
        for _ in range(3)
    ]
    schedules.append([])  # the empty-schedule anchor (load at time 0)
    if reference_kind == "none":
        reference = None
    elif reference_kind == "int":
        reference = TimeSeries(
            rng.randint(0, 6), tuple(rng.randint(-9, 9) for _ in range(6))
        )
    elif reference_kind == "float":
        reference = TimeSeries(
            rng.randint(0, 6),
            tuple(rng.random() * 10 - 5 for _ in range(5)),
        )
    else:
        reference = TimeSeries(rng.randint(0, 6), ())
    expected = get_backend("reference").batch_objectives(
        schedules, reference, metric
    )
    actual = get_backend(backend).batch_objectives(schedules, reference, metric)
    assert actual == expected


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
def test_batch_objectives_metric_error_parity(backend):
    """An unknown metric raises ``ValueError`` up front on every backend."""
    with pytest.raises(ValueError):
        get_backend("reference").batch_objectives([[]], None, "cubic")
    with pytest.raises(ValueError):
        get_backend(backend).batch_objectives([[]], None, "cubic")


@pytest.mark.parametrize("backend", VECTOR_BACKENDS)
@pytest.mark.parametrize(
    "schedule",
    [
        [(0, (True, 2))],  # bool values: the scalar TimeSeries rejects them
        [(0, (1.5, 2))],  # float values
        [(True, (1, 2))],  # bool start
        [(-1, (1, 2))],  # negative start (time domain is natural numbers)
        [(0, (1 << 45, 2))],  # beyond the exactly-packable magnitude
        [(0, (10**30, 2))],  # beyond int64 entirely
    ],
    ids=["bool-value", "float-value", "bool-start", "negative-start", "huge", "unbounded"],
)
def test_batch_objectives_fallback_parity(backend, schedule):
    """Inputs the packed grid cannot hold take the scalar path — same value
    or same exception class as the reference backend, position included."""
    reference_outcome = outcome(
        lambda: get_backend("reference").batch_objectives([schedule, []])
    )
    vector_outcome = outcome(
        lambda: get_backend(backend).batch_objectives([schedule, []])
    )
    assert vector_outcome == reference_outcome
