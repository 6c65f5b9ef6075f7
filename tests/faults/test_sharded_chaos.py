"""Chaos tests of the self-healing sharded executor.

Every test injects faults through a deterministic :class:`FaultPlan` and
asserts the acceptance property of the robustness PR: the caller sees
either a result *bit-identical* to the fault-free run or a typed error —
never a corrupt merge, never a wedged backend.
"""

from __future__ import annotations

import pytest

from repro.backend import NUMPY_AVAILABLE, ShardedBackend, get_backend
from repro.backend import sharded as sharded_module
from repro.core import FlexOffer
from repro.core.errors import BackendError
from repro.faults import SHARD_RESULT, SHARD_SUBMIT, FaultInjected, FaultPlan, FaultRule
from repro.measures import get_measure
from repro.measures.base import FlexibilityMeasure, MeasureCharacteristics

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


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    monkeypatch.setattr(sharded_module, "_RETRY_BACKOFF_S", 0.0)


def sharded(plan=None, **kwargs) -> ShardedBackend:
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("min_population", 1)
    return ShardedBackend(faults=plan, **kwargs)


class TestRetries:
    @pytest.mark.parametrize("site", [SHARD_SUBMIT, SHARD_RESULT])
    def test_single_fault_heals_to_the_identical_result(self, site):
        plan = FaultPlan([FaultRule(site, after=2, count=1)])
        backend = sharded(plan)
        try:
            assert backend.measure_values(PRODUCT, OFFERS) == GOLDEN
            assert backend.resilience_stats()["retried"] == 1
        finally:
            backend.close()

    def test_consecutive_faults_within_the_budget_still_heal(self):
        # Hits count across retries, so a count=2 window makes shard 0
        # fail twice in a row before its third attempt succeeds.
        plan = FaultPlan([FaultRule(SHARD_RESULT, after=1, count=2)])
        backend = sharded(plan)
        try:
            assert backend.measure_values(PRODUCT, OFFERS) == GOLDEN
            assert backend.resilience_stats()["retried"] == 2
        finally:
            backend.close()

    def test_exhausted_budget_is_a_typed_backend_error(self):
        plan = FaultPlan([FaultRule(SHARD_RESULT, count=None)])
        backend = sharded(plan, retries=1)
        try:
            with pytest.raises(BackendError, match="after 2 attempt"):
                backend.measure_values(PRODUCT, OFFERS)
            # The backend is not wedged: with the plan spent elsewhere it
            # keeps serving (rule is open-ended, so use a fresh backend).
        finally:
            backend.close()
        assert sharded().measure_values(PRODUCT, OFFERS) == GOLDEN

    def test_retries_zero_fails_fast(self):
        plan = FaultPlan([FaultRule(SHARD_SUBMIT)])
        backend = sharded(plan, retries=0)
        try:
            with pytest.raises(BackendError, match="after 1 attempt"):
                backend.measure_values(PRODUCT, OFFERS)
        finally:
            backend.close()

    def test_application_errors_are_never_retried(self):
        class Explosive(FlexibilityMeasure):
            key = "chaos-explosive-measure"
            label = "Explosive"
            characteristics = MeasureCharacteristics(
                captures_time=True,
                captures_energy=False,
                captures_time_and_energy=False,
                captures_size=False,
            )

            def value(self, flex_offer: FlexOffer) -> float:
                raise ValueError(f"bad offer {flex_offer.name}")

        backend = sharded(FaultPlan())  # plan present, no rules
        try:
            with pytest.raises(ValueError, match="bad offer a"):
                backend.measure_values(Explosive(), OFFERS)
            assert backend.resilience_stats()["retried"] == 0
        finally:
            backend.close()

    def test_negative_retries_is_rejected(self):
        with pytest.raises(BackendError):
            sharded(retries=-1)

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


class TestKill:
    def test_thread_pools_degrade_kill_to_raise(self):
        plan = FaultPlan([FaultRule(SHARD_SUBMIT, action="kill", after=1, count=1)])
        backend = sharded(plan)
        try:
            assert backend.measure_values(PRODUCT, OFFERS) == GOLDEN
            assert backend.resilience_stats()["retried"] == 1
        finally:
            backend.close()


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
class TestNumpyInner:
    def test_faulted_numpy_fanout_heals_identically(self):
        plan = FaultPlan([FaultRule(SHARD_RESULT, after=1, count=2)])
        backend = sharded(plan, inner="numpy")
        try:
            golden = get_backend("numpy").measure_values(PRODUCT, OFFERS)
            assert backend.measure_values(PRODUCT, OFFERS) == golden
        finally:
            backend.close()
