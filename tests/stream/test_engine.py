"""Tests of the streaming engine: batch equivalence, life-cycle, windows."""

from __future__ import annotations

import pytest

from repro.aggregation import (
    AggregatedFlexOffer,
    GroupingParameters,
    aggregate_all,
    group_by_grid,
)
from repro.core import FlexOffer
from repro.market import FlexibilityPricer, TradingSession
from repro.measures import evaluate_set
from repro.stream import (
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamError,
    StreamingEngine,
    Tick,
    churn_events,
    market_events,
    offer_identifier,
    population_events,
)
from repro.workloads import balancing_scenario, neighbourhood_scenario

MEASURES = ["time", "energy", "product", "vector"]


def assert_batch_equivalent(engine, survivors, parameters, measures=None):
    """The core guarantee: snapshot ≡ batch pipeline on the survivors."""
    snapshot = engine.snapshot()
    assert list(snapshot.live) == list(survivors)
    batch_groups = group_by_grid(survivors, parameters)
    assert [list(group) for group in snapshot.groups] == batch_groups
    assert list(snapshot.aggregates) == aggregate_all(batch_groups)
    assert snapshot.report == evaluate_set(survivors, measures)


class TestBatchEquivalence:
    def test_population_replay_equals_batch(self):
        scenario = neighbourhood_scenario(households=10, seed=7, horizon=32)
        parameters = GroupingParameters()
        engine = StreamingEngine(parameters=parameters).replay(
            population_events(scenario.flex_offers)
        )
        assert_batch_equivalent(engine, list(scenario.flex_offers), parameters)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_replay_equals_batch_on_survivors(self, seed):
        scenario = neighbourhood_scenario(households=12, seed=7, horizon=32)
        parameters = GroupingParameters(2, 2, 3)
        log = churn_events(scenario.flex_offers, survive_fraction=0.5, seed=seed)
        engine = StreamingEngine(parameters=parameters).replay(log)
        expired = {
            event.offer_id for event in log if isinstance(event, OfferExpired)
        }
        survivors = [
            event.flex_offer
            for event in log
            if isinstance(event, OfferArrived) and event.offer_id not in expired
        ]
        assert_batch_equivalent(engine, survivors, parameters)

    def test_mixed_population_skips_measures_like_batch(self):
        # The balancing scenario contains production and mixed flex-offers,
        # so some measures are unsupported — skipped must match batch.
        scenario = balancing_scenario(units=12, seed=11, horizon=32)
        parameters = GroupingParameters()
        engine = StreamingEngine(parameters=parameters).replay(
            population_events(scenario.flex_offers)
        )
        batch = evaluate_set(list(scenario.flex_offers))
        report = engine.report()
        assert report == batch
        # Skipped measures become available again once the offending
        # offers leave the population.
        log = population_events(scenario.flex_offers)
        engine2 = StreamingEngine(parameters=parameters).replay(log)
        unsupported_ids = [
            event.offer_id
            for event in log
            if any(
                not measure.supports(event.flex_offer)
                for measure in engine2.measures
            )
        ]
        for offer_id in unsupported_ids:
            engine2.apply(OfferExpired(offer_id))
        survivors = [
            event.flex_offer
            for event in log
            if event.offer_id not in set(unsupported_ids)
        ]
        assert engine2.report() == evaluate_set(survivors)
        assert engine2.report().skipped == ()

    def test_empty_engine_matches_empty_batch(self):
        engine = StreamingEngine(measures=MEASURES)
        assert engine.report() == evaluate_set([], MEASURES)
        assert engine.snapshot().groups == ()
        assert engine.snapshot().aggregates == ()


class TestLifecycle:
    def offer(self, name, tes=0):
        return FlexOffer(tes, tes + 2, [(1, 3), (0, 2)], name=name)

    def test_assignment_removes_and_accrues_revenue(self):
        engine = StreamingEngine(measures=MEASURES)
        engine.apply(OfferArrived("a", self.offer("a")))
        engine.apply(OfferArrived("b", self.offer("b")))
        engine.apply(OfferAssigned("a", start_time=1, price=42.0))
        assert engine.live_ids() == ["b"]
        assert engine.stats.assigned == 1
        assert engine.stats.revenue == 42.0

    def test_double_removal_rejected(self):
        engine = StreamingEngine(measures=MEASURES)
        engine.apply(OfferArrived("a", self.offer("a")))
        engine.apply(OfferExpired("a"))
        with pytest.raises(StreamError):
            engine.apply(OfferExpired("a"))

    def test_duplicate_arrival_rejected(self):
        engine = StreamingEngine(measures=MEASURES)
        engine.apply(OfferArrived("a", self.offer("a")))
        with pytest.raises(StreamError):
            engine.apply(OfferArrived("a", self.offer("a2")))

    def test_time_must_be_monotonic(self):
        engine = StreamingEngine(measures=MEASURES)
        engine.apply(Tick(5))
        engine.apply(Tick(5))  # equal is fine
        with pytest.raises(StreamError):
            engine.apply(Tick(4))

    def test_auto_expiry_on_tick(self):
        engine = StreamingEngine(measures=MEASURES, auto_expire=True)
        engine.apply(OfferArrived("early", self.offer("early", tes=0)))  # tls=2
        engine.apply(OfferArrived("late", self.offer("late", tes=8)))  # tls=10
        engine.apply(Tick(2))
        assert engine.live_ids() == ["early", "late"]  # tls=2 can still start at 2
        engine.apply(Tick(3))
        assert engine.live_ids() == ["late"]
        assert engine.stats.expired == 1

    def test_auto_expiry_ignores_stale_deadline_of_reused_id(self):
        # Regression: an id reused by a later arrival must not inherit the
        # previous occupant's (earlier) deadline.
        engine = StreamingEngine(measures=MEASURES, auto_expire=True)
        engine.apply(OfferArrived("x", self.offer("x1", tes=0)))  # tls=2
        engine.apply(OfferExpired("x"))
        engine.apply(OfferArrived("x", self.offer("x2", tes=50)))  # tls=52
        engine.apply(Tick(10))
        assert engine.live_ids() == ["x"]
        assert engine.stats.expired == 1  # only the explicit expiry
        engine.apply(Tick(53))
        assert engine.live_ids() == []
        assert engine.stats.expired == 2

    def test_auto_expiry_skips_already_removed(self):
        engine = StreamingEngine(measures=MEASURES, auto_expire=True)
        engine.apply(OfferArrived("a", self.offer("a", tes=0)))
        engine.apply(OfferAssigned("a"))
        engine.apply(Tick(100))  # stale deadline must not raise
        assert engine.stats.expired == 0

    def test_hooks_fire_after_state_change(self):
        seen = []

        def on_assigned(offer_id, flex_offer, event):
            seen.append((offer_id, flex_offer.name, event.price))

        engine = StreamingEngine(measures=MEASURES, on_assigned=on_assigned)
        engine.apply(OfferArrived("a", self.offer("a")))
        engine.apply(OfferAssigned("a", price=7.0))
        assert seen == [("a", "a", 7.0)]

    def test_unknown_event_rejected(self):
        with pytest.raises(StreamError):
            StreamingEngine(measures=MEASURES).apply("not an event")


class TestWindowSampling:
    def test_tick_samples_population_values(self):
        scenario = neighbourhood_scenario(households=6, seed=7, horizon=32)
        engine = StreamingEngine(measures=MEASURES, window_capacity=32)
        for sequence, event in enumerate(population_events(scenario.flex_offers)):
            engine.apply(event)
            engine.apply(Tick(sequence))
        window = engine.tracker.window("time")
        assert len(window) == scenario.size
        # The last sample equals the batch set value of the full population.
        batch = evaluate_set(list(scenario.flex_offers), MEASURES)
        assert window.last == batch.values["time"]
        summary = engine.snapshot().window_summary
        assert summary["time"]["count"] == float(scenario.size)

    def test_no_tracker_without_capacity(self):
        engine = StreamingEngine(measures=MEASURES)
        assert engine.tracker is None
        assert engine.snapshot().window_summary == {}


class TestMarketReplay:
    def test_market_events_assign_accepted_lots(self):
        scenario = neighbourhood_scenario(households=8, seed=7, horizon=32)
        parameters = GroupingParameters()
        groups = group_by_grid(list(scenario.flex_offers), parameters)
        lots = aggregate_all(groups)
        session = TradingSession(
            pricer=FlexibilityPricer(measure="vector"), budget=5000.0
        )
        log = market_events(session, lots)
        engine = StreamingEngine(parameters=parameters).replay(log)
        accepted, rejected = TradingSession(
            pricer=FlexibilityPricer(measure="vector"), budget=5000.0
        ).clear(lots)
        assert engine.stats.assigned == len(accepted)
        assert engine.size == len(rejected)
        assert engine.stats.revenue == pytest.approx(
            sum(bid.total_price for bid in accepted)
        )
        # The still-live lots are exactly the rejected ones.
        live_names = {flex_offer.name for flex_offer in engine.live_offers()}
        assert live_names == {bid.flex_offer.name for bid in rejected}

    def test_market_events_handle_duplicate_lot_objects(self):
        # Regression: the same lot object offered twice must get two distinct
        # offer ids and replay cleanly.
        lot = FlexOffer(0, 2, [(1, 3), (0, 2)], name="dup")
        session = TradingSession(pricer=FlexibilityPricer(measure="time"))
        log = market_events(session, [lot, lot])
        arrivals = [event for event in log if isinstance(event, OfferArrived)]
        assert len({event.offer_id for event in arrivals}) == 2
        engine = StreamingEngine(measures=["time"]).replay(log)
        assert engine.stats.assigned == 2  # unlimited budget buys both
        assert engine.size == 0


class TestIdentifiers:
    def test_offer_identifier_stable_and_position_unique(self):
        flex_offer = FlexOffer(1, 6, [(1, 3)], name="x")
        twin = FlexOffer(1, 6, [(1, 3)], name="x")
        assert offer_identifier(flex_offer, 3) == offer_identifier(twin, 3)
        assert offer_identifier(flex_offer, 3) != offer_identifier(flex_offer, 4)

    def test_fingerprint_ignores_name(self):
        named = FlexOffer(1, 6, [(1, 3)], name="x")
        anonymous = FlexOffer(1, 6, [(1, 3)])
        assert named.fingerprint == anonymous.fingerprint
        different = FlexOffer(1, 7, [(1, 3)])
        assert named.fingerprint != different.fingerprint


class TestInjectableState:
    """The engine's backend and compaction are per instance."""

    def test_engine_backend_spec_routes_bulk_arrive(self):
        pytest.importorskip("numpy")
        from repro.backend.numpy_backend import NumpyBackend

        offers = [FlexOffer(i % 3, i % 3 + 1, [(1, 2), (0, 2)]) for i in range(6)]
        engine = StreamingEngine(
            measures=["time", "vector"], backend=NumpyBackend()
        )
        engine.bulk_arrive((f"o{i}", offer) for i, offer in enumerate(offers))
        baseline = StreamingEngine(measures=["time", "vector"])
        for index, offer in enumerate(offers):
            baseline.apply(OfferArrived(f"o{index}", offer))
        assert engine.snapshot() == baseline.snapshot()

    def test_engine_honours_the_live_matrix_compact_threshold(self):
        pytest.importorskip("numpy")
        engine = StreamingEngine(measures=["time"])
        engine._live.matrix.compact_threshold = 0.0
        for index in range(4):
            engine.apply(OfferArrived(f"o{index}", FlexOffer(0, 2, [(1, 3)])))
        engine.apply(OfferExpired("o1"))
        # Threshold 0 compacts on every tombstone: no dead rows linger.
        assert engine._live.matrix.dead_count == 0


class _Untouchable(dict):
    """A cell's columns or members that must not be walked (size only)."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a kept lot walked its cell's columns or members")

    __iter__ = __getitem__ = get = keys = values = items = _refuse


class TestKeptAggregates:
    """Each whole cell keeps its materialised lot until the cell changes."""

    @staticmethod
    def engine():
        scenario = neighbourhood_scenario(households=10, seed=7, horizon=32)
        return StreamingEngine(measures=MEASURES).replay(
            population_events(scenario.flex_offers)
        )

    @staticmethod
    def count_builds(monkeypatch):
        """Count every FlexOffer and AggregatedFlexOffer constructed."""
        counts = {FlexOffer: 0, AggregatedFlexOffer: 0}
        for cls in counts:
            original = cls.__post_init__

            def counting(self, _cls=cls, _original=original):
                counts[_cls] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        return counts

    def test_unchanged_engine_returns_the_same_lots(self, monkeypatch):
        engine = self.engine()
        first = engine.aggregates()
        counts = self.count_builds(monkeypatch)
        second = engine.aggregates()
        assert len(second) == len(first) > 1
        assert all(again is lot for again, lot in zip(second, first))
        assert counts == {FlexOffer: 0, AggregatedFlexOffer: 0}

    def test_one_arrival_rebuilds_one_cell(self, monkeypatch):
        engine = self.engine()
        first = engine.aggregates()
        # A copy of a live offer lands in that offer's (existing) cell, so
        # no group index shifts.
        engine.apply(OfferArrived("copy", engine.live_offers()[0]))
        counts = self.count_builds(monkeypatch)
        second = engine.aggregates()
        rebuilt = [
            index for index, lot in enumerate(second) if lot is not first[index]
        ]
        assert len(rebuilt) == 1
        assert counts == {FlexOffer: 1, AggregatedFlexOffer: 1}
        monkeypatch.undo()
        assert second == aggregate_all(group_by_grid(engine.live_offers()))

    def test_new_prefix_renames_without_walking_cells(self, monkeypatch):
        engine = self.engine()
        first = engine.aggregates()
        for aggregate in engine._aggregates.values():
            aggregate._columns = _Untouchable(aggregate._columns)
            aggregate._members = _Untouchable(aggregate._members)
        counts = self.count_builds(monkeypatch)
        renamed = engine.aggregates("lot")
        assert counts == {FlexOffer: len(first), AggregatedFlexOffer: len(first)}
        for lot, kept in zip(renamed, first):
            assert lot.members is kept.members
            assert lot.member_offsets is kept.member_offsets
            assert all(
                mine is theirs
                for mine, theirs in zip(lot.flex_offer.slices, kept.flex_offer.slices)
            )
        monkeypatch.undo()
        assert renamed == aggregate_all(group_by_grid(engine.live_offers()), "lot")
