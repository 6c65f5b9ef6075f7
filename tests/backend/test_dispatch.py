"""Unit tests of the backend dispatch layer and the packed representation.

Fast, deterministic companions to the hypothesis conformance suite: registry
and selection semantics (env var, default, context nesting, error paths),
``ProfileMatrix`` internals against the scalar model, the scalar-fallback
routes of the NumPy backend (int64 overflow, non-integer inputs, measures
without a ``batch_values`` override), and the bulk entry points that ride on
the dispatch API.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.backend import (
    ENV_VAR,
    NUMPY_AVAILABLE,
    ComputeBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)
from repro.core import (
    Assignment,
    BackendError,
    FlexOffer,
    MeasureError,
    batch_assignment_feasibility,
    batch_extreme_assignments,
    batch_feasible_profiles,
)
from repro.measures import evaluate_set, get_measure
from repro.measures.base import FlexibilityMeasure, MeasureCharacteristics
from repro.stream import OfferArrived, StreamingEngine

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

OFFERS = [
    FlexOffer(1, 6, [(1, 3), (2, 4), (0, 5), (0, 3)], name="fig1"),
    FlexOffer(0, 2, [(0, 2)], name="fig3"),
    FlexOffer(0, 2, [(-1, 2), (-4, -1), (-3, 1)], -8, 2, name="fig7-mixed"),
    FlexOffer(3, 3, [(-2, 0), (-3, -1)], name="production"),
    FlexOffer(0, 4, [(1, 1), (2, 2)], 3, 3, name="fig6"),
]

#: An offer whose bounds overflow int64 — exercises every fallback route.
HUGE = FlexOffer(0, 1, [(10**30, 10**30 + 5)], name="huge")


# --------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------- #


def test_reference_backend_is_always_available_and_default():
    assert "reference" in available_backends()
    assert get_backend().name == "reference"
    assert get_backend("reference").name == "reference"


@requires_numpy
def test_numpy_backend_is_registered_when_numpy_exists():
    assert "numpy" in available_backends()
    assert get_backend("numpy").name == "numpy"


def test_unknown_backend_raises_backend_error():
    with pytest.raises(BackendError):
        get_backend("no-such-backend")


def test_environment_variable_sets_the_default(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "reference")
    assert get_backend().name == "reference"
    monkeypatch.setenv(ENV_VAR, "bogus")
    with pytest.raises(BackendError):
        get_backend()


# --------------------------------------------------------------------- #
# Backend isolation (the PR 5 global-state regression fixes, post-shim)
# --------------------------------------------------------------------- #


def test_set_default_backend_shim_is_gone():
    """The v2.0 removal is final: neither the package nor the dispatch
    module exports the mutable-default shim any more."""
    import repro
    import repro.backend
    import repro.backend.dispatch as dispatch

    for module in (repro, repro.backend, dispatch):
        assert not hasattr(module, "set_default_backend")
        assert "set_default_backend" not in getattr(module, "__all__", ())
    assert not hasattr(dispatch, "_thread_default")
    assert not hasattr(dispatch, "_process_default")


def test_use_backend_activation_is_invisible_to_worker_threads():
    """Regression (PR 5): a caller's backend selection must never leak
    into pool worker threads — inside a sharded worker it could resolve
    the sharded backend itself and recurse into its own pool."""
    from concurrent.futures import ThreadPoolExecutor

    with use_backend("sharded"):
        assert get_backend().name == "sharded"
        with ThreadPoolExecutor(max_workers=1) as pool:
            seen_by_worker = pool.submit(lambda: get_backend().name).result()
        assert seen_by_worker == "reference"
    assert get_backend().name == "reference"


def test_threads_can_activate_different_backends_concurrently():
    import threading

    results: dict[str, str] = {}
    barrier = threading.Barrier(2)

    def worker(label: str, backend_name: str) -> None:
        with use_backend(backend_name):
            barrier.wait()  # both activations live at the same time
            results[label] = get_backend().name
            barrier.wait()

    threads = [
        threading.Thread(target=worker, args=("a", "reference")),
        threading.Thread(target=worker, args=("b", "sharded")),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == {"a": "reference", "b": "sharded"}


@requires_numpy
def test_sharded_operation_is_immune_to_foreign_activations():
    """The latent bug scenario end-to-end: a sharded bulk call must keep
    producing correct results while the caller has sharded activated."""
    from repro.backend import ShardedBackend
    from repro.measures import get_measure

    offers = OFFERS * 40
    backend = ShardedBackend(shards=2, min_population=1)
    measure = get_measure("time")
    try:
        with use_backend("sharded"):
            values = backend.measure_values(measure, offers)
        expected = get_backend("reference").measure_values(measure, offers)
        assert values == expected
    finally:
        backend.close()


def test_use_backend_accepts_instances():
    """The session façade's route: an unregistered instance activates."""

    class Tagged(ReferenceBackend):
        name = "tagged-instance-test"

    instance = Tagged()
    assert "tagged-instance-test" not in available_backends()
    with use_backend(instance) as active:
        assert active is instance
        assert get_backend() is instance
        with use_backend("reference"):
            assert get_backend().name == "reference"
        assert get_backend() is instance
    assert get_backend().name == "reference"
    assert get_backend(instance) is instance  # explicit selection too


@requires_numpy
def test_use_backend_nests_and_restores():
    assert get_backend().name == "reference"
    with use_backend("numpy") as outer:
        assert outer.name == "numpy"
        assert get_backend().name == "numpy"
        with use_backend("reference"):
            assert get_backend().name == "reference"
        assert get_backend().name == "numpy"
    assert get_backend().name == "reference"


def test_register_backend_rejects_bad_backends():
    with pytest.raises(BackendError):
        register_backend(object())  # type: ignore[arg-type]

    class Anonymous(ReferenceBackend):
        name = ""

    with pytest.raises(BackendError):
        register_backend(Anonymous())

    class Impostor(ComputeBackend):
        name = "reference"

        def measure_values(self, measure, flex_offers):  # pragma: no cover
            return []

        def evaluate_population(self, measures, flex_offers, skip_unsupported=True):
            return {}, []  # pragma: no cover

        def per_offer_values(self, measures, flex_offers):  # pragma: no cover
            return []

        def aggregate_columns(self, members):  # pragma: no cover
            return 0, [], []

        def feasible_profiles(self, flex_offers, target):  # pragma: no cover
            return [], []

        def assignment_feasibility(self, flex_offers, starts, values):
            return []  # pragma: no cover

    with pytest.raises(BackendError):
        register_backend(Impostor())
    # Re-registering the same class under its own name is idempotent.
    register_backend(ReferenceBackend())
    assert get_backend("reference").name == "reference"


# --------------------------------------------------------------------- #
# Reference backend operations
# --------------------------------------------------------------------- #


def test_reference_evaluate_population_skips_unsupported():
    backend = get_backend("reference")
    measures = [get_measure("time"), get_measure("absolute_area")]
    values, skipped = backend.evaluate_population(measures, OFFERS)
    assert skipped == ["absolute_area"]  # OFFERS contains a mixed offer
    assert values["time"] == sum(f.time_flexibility for f in OFFERS)


def test_reference_per_offer_values_respects_support():
    backend = get_backend("reference")
    measures = [get_measure("time"), get_measure("absolute_area")]
    per_offer = backend.per_offer_values(measures, OFFERS)
    mixed_index = next(i for i, f in enumerate(OFFERS) if f.is_mixed)
    assert "absolute_area" not in per_offer[mixed_index]
    assert all("time" in cached for cached in per_offer)


# --------------------------------------------------------------------- #
# ProfileMatrix internals
# --------------------------------------------------------------------- #


@requires_numpy
def test_profile_matrix_matches_the_scalar_model():
    from repro.backend import ProfileMatrix

    matrix = ProfileMatrix(OFFERS)
    assert matrix.size == len(OFFERS)
    assert matrix.offsets.tolist() == [0, 4, 5, 8, 10, 12]
    assert matrix.durations.tolist() == [f.duration for f in OFFERS]
    assert matrix.profile_min.tolist() == [f.profile_minimum for f in OFFERS]
    assert matrix.profile_max.tolist() == [f.profile_maximum for f in OFFERS]
    assert matrix.time_flexibility.tolist() == [f.time_flexibility for f in OFFERS]
    assert matrix.energy_flexibility.tolist() == [
        f.energy_flexibility for f in OFFERS
    ]
    assert matrix.is_consumption.tolist() == [f.is_consumption for f in OFFERS]
    assert matrix.is_production.tolist() == [f.is_production for f in OFFERS]
    assert matrix.is_mixed.tolist() == [f.is_mixed for f in OFFERS]
    # Packed effective bounds equal the scalar per-offer computation.
    effective = matrix.profiles(matrix.effective_amin), matrix.profiles(
        matrix.effective_amax
    )
    for index, flex_offer in enumerate(OFFERS):
        scalar = flex_offer.effective_slice_bounds()
        assert effective[0][index] == tuple(s.amin for s in scalar)
        assert effective[1][index] == tuple(s.amax for s in scalar)
    # owner/within address every packed position correctly.
    for position, (owner, within) in enumerate(
        zip(matrix.owner.tolist(), matrix.within.tolist())
    ):
        assert matrix.amin[position] == OFFERS[owner].slices[within].amin


@requires_numpy
def test_profile_matrix_take_and_empty():
    from repro.backend import ProfileMatrix

    matrix = ProfileMatrix(OFFERS)
    subset = matrix.take([4, 0])
    assert subset.offers == (OFFERS[4], OFFERS[0])
    assert subset.durations.tolist() == [2, 4]

    empty = ProfileMatrix([])
    assert empty.size == 0
    assert empty.profile_min.tolist() == []
    assert empty.is_mixed.tolist() == []


@requires_numpy
def test_profile_matrix_rejects_int64_overflow():
    from repro.backend import ProfileMatrix

    with pytest.raises(OverflowError):
        ProfileMatrix([HUGE])


@requires_numpy
def test_profile_matrix_rejects_values_whose_sums_could_overflow():
    """Elements fitting int64 is not enough: derived sums must fit too."""
    from repro.backend import ProfileMatrix

    sum_overflow = FlexOffer(0, 0, [(0, 2**62)] * 4, 0, 10)
    with pytest.raises(OverflowError):
        ProfileMatrix([sum_overflow])
    # ... and the backend therefore answers through the reference fallback.
    with use_backend("reference"):
        reference = batch_feasible_profiles([sum_overflow], "max")
    with use_backend("numpy"):
        vectorized = batch_feasible_profiles([sum_overflow], "max")
    assert vectorized == reference == [(0, 0, 0, 10)]


@requires_numpy
@pytest.mark.slow  # the exact reference loop over 8M start shifts takes ~10s
def test_area_measure_exact_on_huge_column_spans():
    """A packable offer whose area leaves int64 (huge width × max values)
    must route through the scalar big-integer loop, not wrap silently."""
    offer = FlexOffer(0, 2**23 + 100, [(2**40, 2**40)])
    measure = get_measure("absolute_area")
    reference = get_backend("reference").measure_values(measure, [offer])
    vectorized = get_backend("numpy").measure_values(measure, [offer])
    assert vectorized == reference
    assert vectorized[0] > 0


# --------------------------------------------------------------------- #
# NumPy backend: fallbacks and edge cases
# --------------------------------------------------------------------- #


@requires_numpy
def test_numpy_backend_empty_population():
    backend = get_backend("numpy")
    measures = [get_measure("time"), get_measure("absolute_area")]
    assert backend.measure_values(get_measure("series"), []) == []
    values, skipped = backend.evaluate_population(measures, [])
    assert skipped == []
    assert values == {"time": 0.0, "absolute_area": 0.0}
    assert backend.per_offer_values(measures, []) == []
    assert backend.feasible_profiles([], "min") == ([], [])
    assert backend.assignment_feasibility([], [], []) == []


@requires_numpy
def test_numpy_backend_falls_back_on_overflowing_integers():
    reference = get_backend("reference")
    vectorized = get_backend("numpy")
    population = OFFERS + [HUGE]
    for measure in (get_measure("energy"), get_measure("series")):
        assert vectorized.measure_values(measure, population) == (
            reference.measure_values(measure, population)
        )
    assert vectorized.evaluate_population(
        [get_measure("time")], population
    ) == reference.evaluate_population([get_measure("time")], population)
    assert vectorized.per_offer_values(
        [get_measure("energy")], population
    ) == reference.per_offer_values([get_measure("energy")], population)
    assert vectorized.aggregate_columns(population) == reference.aggregate_columns(
        population
    )
    for target in ("min", "max"):
        assert vectorized.feasible_profiles(population, target) == (
            reference.feasible_profiles(population, target)
        )
    starts = [f.earliest_start for f in population]
    profiles = [f.maximum_profile() for f in population]
    assert vectorized.assignment_feasibility(population, starts, profiles) == (
        reference.assignment_feasibility(population, starts, profiles)
    )


@requires_numpy
def test_numpy_backend_feasibility_rejects_non_integer_values_like_scalar():
    backend = get_backend("numpy")
    offer = FlexOffer(0, 2, [(0, 2), (1, 3)])
    # bool and float slice values are violations in the scalar checker and
    # must not be silently coerced by the packed arrays.
    assert backend.assignment_feasibility([offer], [0], [(True, 2)]) == [False]
    assert backend.assignment_feasibility([offer], [0], [(1.0, 2)]) == [False]
    assert backend.assignment_feasibility([offer], [True], [(1, 2)]) == [False]
    # A wrong-length profile is infeasible, not an indexing error.
    assert backend.assignment_feasibility([offer], [0], [(1,)]) == [False]
    assert backend.assignment_feasibility([offer], [0], [(1, 2)]) == [True]


@requires_numpy
def test_feasible_profiles_rejects_unknown_target():
    with pytest.raises(ValueError):
        get_backend("numpy").feasible_profiles(OFFERS, "median")
    with pytest.raises(ValueError):
        batch_feasible_profiles(OFFERS, "median")


@requires_numpy
def test_measures_without_batch_override_fall_back_to_scalar_loop():
    class OddDuration(FlexibilityMeasure):
        key = "odd-duration-test"
        label = "Odd"
        characteristics = MeasureCharacteristics(
            captures_time=False,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=True,
        )

        def value(self, flex_offer):
            return float(flex_offer.duration % 2)

    measure = OddDuration()
    vectorized = get_backend("numpy").measure_values(measure, OFFERS)
    assert vectorized == [float(f.duration % 2) for f in OFFERS]


@requires_numpy
def test_backends_honour_supports_overrides():
    """An overridden supports() (public extension point) must drive the
    skip logic on both backends — not the characteristics-derived mask."""

    class Picky(FlexibilityMeasure):
        key = "picky-support-test"
        label = "Picky"
        characteristics = MeasureCharacteristics(
            captures_time=True,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=False,
        )

        def supports(self, flex_offer):
            return flex_offer.duration <= 2

        def value(self, flex_offer):
            if flex_offer.duration > 2:
                raise RuntimeError("evaluated an unsupported offer")
            return float(flex_offer.time_flexibility)

    measure = Picky()
    # OFFERS contains profiles longer than 2 slices -> skipped on both.
    results = {}
    for backend in available_backends():
        with use_backend(backend):
            results[backend] = evaluate_set(OFFERS, [measure])
    assert results["numpy"] == results["reference"]
    assert results["reference"].skipped == ("picky-support-test",)
    # The per-offer bulk path (streaming cache) obeys the override too.
    short = [f for f in OFFERS if f.duration <= 2]
    reference = get_backend("reference").per_offer_values([measure], OFFERS)
    vectorized = get_backend("numpy").per_offer_values([measure], OFFERS)
    assert vectorized == reference
    assert sum("picky-support-test" in cached for cached in vectorized) == len(short)


@requires_numpy
def test_relative_area_error_class_matches_reference_order():
    """The first offending offer (population order) decides the exception
    class, exactly as the reference backend's scalar loop does."""
    from repro.core import UnsupportedFlexOfferError

    mixed = FlexOffer(0, 1, [(-1, 2)])  # denom 3, mixed
    zero_denominator = FlexOffer(0, 1, [(0, 1)], 0, 0)  # consumption, denom 0
    measure = get_measure("relative_area")
    for population, expected in [
        ([mixed, zero_denominator], UnsupportedFlexOfferError),
        ([zero_denominator, mixed], MeasureError),
    ]:
        for backend in available_backends():
            with pytest.raises(expected) as excinfo:
                get_backend(backend).measure_values(measure, population)
            assert type(excinfo.value) is expected, backend


def test_evaluate_set_honours_set_value_overrides():
    """A subclassed set_value (public extension point) must not be bypassed
    by the backends' inlined values-plus-combine fast path."""

    class MaxTime(FlexibilityMeasure):
        key = "max-time-override-test"
        label = "MaxTime"
        characteristics = MeasureCharacteristics(
            captures_time=True,
            captures_energy=False,
            captures_time_and_energy=False,
            captures_size=False,
        )

        def value(self, flex_offer):
            return float(flex_offer.time_flexibility)

        def set_value(self, flex_offers):  # max instead of the default sum
            return max((self.value(f) for f in flex_offers), default=0.0)

    expected = max(f.time_flexibility for f in OFFERS)
    for backend in available_backends():
        with use_backend(backend):
            report = evaluate_set(OFFERS, [MaxTime()])
        assert report.values["max-time-override-test"] == expected


def test_importing_repro_does_not_import_numpy():
    """NumPy loads lazily: plain `import repro` must not pay its cost."""
    import subprocess
    import sys

    code = "import sys, repro; sys.exit(1 if 'numpy' in sys.modules else 0)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**__import__("os").environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parents[2],
    )
    assert result.returncode == 0, "import repro dragged numpy in eagerly"


# --------------------------------------------------------------------- #
# Batch entry points on top of the dispatch API
# --------------------------------------------------------------------- #


def test_batch_extreme_assignments_match_scalar_constructors():
    pairs = batch_extreme_assignments(OFFERS)
    for flex_offer, (minimum, maximum) in zip(OFFERS, pairs):
        assert minimum == Assignment.earliest_minimum(flex_offer)
        assert maximum == Assignment.latest_maximum(flex_offer)


def test_batch_assignment_feasibility_checks_lengths():
    from repro.core import InvalidAssignmentError

    with pytest.raises(InvalidAssignmentError):
        batch_assignment_feasibility(OFFERS, [0], [(1, 2)])


@requires_numpy
def test_evaluate_set_is_backend_invariant_on_paper_offers():
    with use_backend("reference"):
        reference = evaluate_set(OFFERS)
    with use_backend("numpy"):
        vectorized = evaluate_set(OFFERS)
    assert vectorized == reference


@requires_numpy
def test_bulk_arrive_accepts_events_and_pairs():
    arrivals = [OfferArrived(f"e{i}", f) for i, f in enumerate(OFFERS)]
    with use_backend("numpy"):
        from_events = StreamingEngine().bulk_arrive(arrivals)
        from_pairs = StreamingEngine().bulk_arrive(
            (f"e{i}", f) for i, f in enumerate(OFFERS)
        )
    baseline = StreamingEngine()
    for event in arrivals:
        baseline.apply(event)
    assert from_events.snapshot() == baseline.snapshot()
    assert from_pairs.snapshot() == baseline.snapshot()
