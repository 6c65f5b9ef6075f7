"""Chaos tests of the sharded backend's fault sites.

Every test injects faults through a deterministic :class:`FaultPlan` at
``shard.submit`` / ``shard.result``.  Shards are never retried: an
injected failure propagates as the :class:`FaultInjected` it is, the
faulted call returns no partial result, and the next call answers
*bit-identically* to a fault-free run — never a corrupt merge, never a
wedged backend.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.backend import NUMPY_AVAILABLE, ShardedBackend, get_backend
from repro.core import FlexOffer
from repro.faults import SHARD_RESULT, SHARD_SUBMIT, FaultInjected, FaultPlan, FaultRule
from repro.measures import get_measure
from repro.measures.base import FlexibilityMeasure, MeasureCharacteristics
from repro.measures.setwise import resolve_measures

OFFERS = [
    FlexOffer(0, 4, [(1, 3), (0, 2)], name="a"),
    FlexOffer(2, 2, [(2, 5)], 2, 4, name="b"),
    FlexOffer(1, 6, [(0, 1), (1, 1), (0, 3)], name="c"),
    FlexOffer(5, 9, [(3, 3)], name="d"),
    FlexOffer(0, 0, [(1, 2), (2, 2)], 3, 4, name="e"),
    FlexOffer(3, 7, [(0, 4)], name="f"),
    FlexOffer(2, 5, [(1, 1), (0, 2), (2, 3)], name="g"),
]

PRODUCT = get_measure("product")
GOLDEN = get_backend("reference").measure_values(PRODUCT, OFFERS)
MIN_PROFILES = get_backend("reference").feasible_profiles(OFFERS, "min")[0]

#: Every fanned-out operation, as ``name -> call(backend)``.
OPERATIONS = {
    "measure_values": lambda backend: backend.measure_values(PRODUCT, OFFERS),
    "measure_support": lambda backend: backend.measure_support(PRODUCT, OFFERS),
    "evaluate_population": lambda backend: backend.evaluate_population(
        resolve_measures(None), OFFERS
    ),
    "per_offer_values": lambda backend: backend.per_offer_values(
        resolve_measures(None), OFFERS
    ),
    "aggregate_columns": lambda backend: backend.aggregate_columns(OFFERS),
    "feasible_profiles": lambda backend: backend.feasible_profiles(OFFERS, "max"),
    "assignment_feasibility": lambda backend: backend.assignment_feasibility(
        OFFERS, [offer.earliest_start for offer in OFFERS], MIN_PROFILES
    ),
}


def sharded(plan=None, **kwargs) -> ShardedBackend:
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("min_population", 1)
    return ShardedBackend(faults=plan, **kwargs)


class Explosive(FlexibilityMeasure):
    """Rejects offers ``d`` (shard 1 of 3) and ``g`` (shard 2); ``d``
    fails late, so shard 2's error is ready first."""

    key = "chaos-explosive-measure"
    label = "Explosive"
    characteristics = MeasureCharacteristics(
        captures_time=True,
        captures_energy=False,
        captures_time_and_energy=False,
        captures_size=False,
    )

    def value(self, flex_offer: FlexOffer) -> float:
        if flex_offer.name == "d":
            time.sleep(0.05)
        if flex_offer.name in ("d", "g"):
            raise ValueError(f"bad offer {flex_offer.name}")
        return 1.0


class TestRetries:
    """Nothing is retried: a faulted call raises, the next one is whole."""

    @pytest.mark.parametrize("site", [SHARD_SUBMIT, SHARD_RESULT])
    def test_single_fault_heals_to_the_identical_result(self, site):
        plan = FaultPlan([FaultRule(site, after=2, count=1)])
        backend = sharded(plan)
        try:
            with pytest.raises(FaultInjected, match=f"{site} \\(hit 2\\)"):
                backend.measure_values(PRODUCT, OFFERS)
            assert plan.stats()["fired"] == {site: 1}
            assert backend.measure_values(PRODUCT, OFFERS) == GOLDEN
        finally:
            backend.close()

    def test_application_errors_are_never_retried(self):
        backend = sharded(FaultPlan())  # plan present, no rules
        try:
            with pytest.raises(ValueError, match="bad offer d"):
                backend.measure_values(Explosive(), OFFERS)
        finally:
            backend.close()

    def test_small_populations_delegate_below_the_fault_plane(self):
        # _delegates() bypasses the fan-out entirely: an always-raise plan
        # must never fire because the injection sites are never crossed.
        plan = FaultPlan([FaultRule(SHARD_SUBMIT, count=None)])
        backend = ShardedBackend(shards=3, min_population=1000, faults=plan)
        try:
            assert backend.measure_values(PRODUCT, OFFERS) == GOLDEN
            assert plan.stats()["hits"] == {}
        finally:
            backend.close()


class TestEveryOperation:
    @pytest.mark.parametrize("site", [SHARD_SUBMIT, SHARD_RESULT])
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_a_fault_raises_and_the_next_call_is_bit_identical(
        self, operation, site
    ):
        call = OPERATIONS[operation]
        expected = call(get_backend("reference"))
        plan = FaultPlan([FaultRule(site, after=3, count=1)])
        backend = sharded(plan)
        try:
            with pytest.raises(FaultInjected):
                call(backend)
            assert call(backend) == expected
            assert plan.stats()["fired"] == {site: 1}
        finally:
            backend.close()

    def test_an_always_firing_site_never_returns_a_partial_result(self):
        plan = FaultPlan([FaultRule(SHARD_RESULT, count=None)])
        backend = sharded(plan)
        try:
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    backend.measure_values(PRODUCT, OFFERS)
            # Each call stops at its first shard's result.
            assert plan.stats()["fired"] == {SHARD_RESULT: 3}
        finally:
            backend.close()
        assert sharded().measure_values(PRODUCT, OFFERS) == GOLDEN

    def test_a_failed_call_returns_after_every_shard_it_started(self):
        finished = threading.Event()

        class SlowLastShard(Explosive):
            def value(self, flex_offer: FlexOffer) -> float:
                if flex_offer.name == "a":
                    raise ValueError("bad offer a")
                if flex_offer.name == "g":
                    time.sleep(0.05)
                    finished.set()
                return 1.0

        backend = sharded()
        try:
            with pytest.raises(ValueError, match="bad offer a"):
                backend.measure_values(SlowLastShard(), OFFERS)
            assert finished.is_set()
        finally:
            backend.close()

    def test_application_errors_keep_shard_order_across_operations(self):
        backend = sharded()
        try:
            with pytest.raises(ValueError, match="bad offer d"):
                backend.evaluate_population([Explosive()], OFFERS)
            with pytest.raises(ValueError, match="bad offer d"):
                backend.per_offer_values([Explosive()], OFFERS)
        finally:
            backend.close()


class TestKill:
    def test_thread_pools_degrade_kill_to_raise(self):
        plan = FaultPlan([FaultRule(SHARD_SUBMIT, action="kill", after=1, count=1)])
        backend = sharded(plan)
        try:
            with pytest.raises(FaultInjected):
                backend.measure_values(PRODUCT, OFFERS)
            assert backend.measure_values(PRODUCT, OFFERS) == GOLDEN
        finally:
            backend.close()


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
class TestNumpyInner:
    def test_faulted_numpy_fanout_heals_identically(self):
        plan = FaultPlan([FaultRule(SHARD_RESULT, after=1, count=2)])
        backend = sharded(plan, inner="numpy")
        try:
            golden = get_backend("numpy").measure_values(PRODUCT, OFFERS)
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    backend.measure_values(PRODUCT, OFFERS)
            assert backend.measure_values(PRODUCT, OFFERS) == golden
        finally:
            backend.close()
