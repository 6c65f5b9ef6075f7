"""Unit tests of the service façade: config, lifecycle, request semantics.

The headline acceptance property — two differently configured sessions
interleaved in one process produce results bit-identical to each running
alone — lives here, together with the deterministic companions of the
hypothesis equivalence suite.
"""

from __future__ import annotations

import random
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.aggregation import GroupingParameters, aggregate_all, group_by_grid
from repro.backend import NUMPY_AVAILABLE, matrix_cache, use_backend
from repro.core import FlexOffer, TimeSeries
from repro.market import FlexibilityPricer, TradingSession
from repro.measures import evaluate_set
from repro.scheduling import (
    EarliestStartScheduler,
    EvolutionaryScheduler,
    HillClimbingScheduler,
    ImbalanceObjective,
)
from repro.service import (
    AggregateRequest,
    EvaluateRequest,
    FlexSession,
    ScheduleRequest,
    ServiceError,
    SessionConfig,
    StreamRequest,
    TradeRequest,
)
from repro.service.session import _SCHEDULERS
from repro.stream import OfferArrived, OfferExpired, StreamingEngine, Tick

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)


def population(size: int, seed: int = 0) -> list[FlexOffer]:
    rng = random.Random(seed)
    offers = []
    for index in range(size):
        earliest = rng.randrange(0, 8)
        slices = [(1, 1 + rng.randint(0, 3))]
        if rng.random() < 0.5:
            slices.append((0, rng.randint(1, 3)))
        offers.append(
            FlexOffer(
                earliest,
                earliest + rng.randint(0, 3),
                slices,
                name=f"offer-{seed}-{index}",
            )
        )
    return offers


# --------------------------------------------------------------------- #
# SessionConfig
# --------------------------------------------------------------------- #


class TestSessionConfig:
    def test_environment_defaults_read_once_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "7")
        monkeypatch.setenv("REPRO_SHARDS", "3")
        config = SessionConfig()
        assert config.backend == "reference"
        assert config.cache_entries == 7
        assert config.shards == 3
        # Mutating the environment later cannot touch an existing config.
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "999")
        assert config.backend == "reference"
        assert config.cache_entries == 7

    def test_explicit_fields_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "7")
        config = SessionConfig(cache_entries=2, cache_cells=100)
        assert config.cache_entries == 2
        assert config.cache_cells == 100

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError):
            SessionConfig(backend="no-such-backend")

    def test_validation_errors(self):
        with pytest.raises(ServiceError):
            SessionConfig(shards=0)
        with pytest.raises(ServiceError):
            SessionConfig(cache_entries=-1)
        with pytest.raises(ServiceError):
            SessionConfig(cache_cells=-1)
        with pytest.raises(ServiceError):
            SessionConfig(window_capacity=-1)
        with pytest.raises(ServiceError):
            SessionConfig(measures="time")  # a bare string is a footgun
        with pytest.raises(ServiceError):
            SessionConfig(shard_min_population=-1)

    def test_measures_normalised_to_tuples(self):
        config = SessionConfig(
            backend="reference", measures=["time", "energy"], tracked_measures=["time"]
        )
        assert config.measures == ("time", "energy")
        assert config.tracked_measures == ("time",)

    def test_round_trips_through_dict(self):
        config = SessionConfig(
            backend="reference",
            cache_entries=3,
            measures=("time", "energy"),
            grouping=GroupingParameters(4, 2, max_group_size=5),
            seed=17,
        )
        clone = SessionConfig.from_dict(config.as_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            SessionConfig.from_dict({"backend": "reference", "bogus": 1})

    def test_malformed_executor_env_degrades_to_thread(self, monkeypatch):
        """The retired ``REPRO_SHARD_EXECUTOR`` is ignored, whatever its
        value: a sharded session runs on threads."""
        for value in ("fiber", "remote"):
            monkeypatch.setenv("REPRO_SHARD_EXECUTOR", value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                config = SessionConfig(backend="sharded", shards=2)
            with FlexSession(config) as session:
                assert isinstance(
                    session._backend._executor(), ThreadPoolExecutor
                )

    def test_retired_process_executor(self):
        """``shard_executor`` is no longer a field; a saved config that
        names the retired ``process`` pool loads and runs on threads."""
        with pytest.raises(TypeError, match="shard_executor"):
            SessionConfig(shard_executor="process")
        payload = SessionConfig(backend="sharded", shards=2).as_dict()
        payload["shard_executor"] = "process"
        config = SessionConfig.from_dict(payload)
        assert config == SessionConfig(backend="sharded", shards=2)
        with FlexSession(config) as session:
            assert isinstance(session._backend._executor(), ThreadPoolExecutor)


class TestRequestValidation:
    def test_request_sequences_normalise_to_tuples(self):
        offers = [FlexOffer(0, 1, [(1, 2)])]
        assert EvaluateRequest(measures=["time"]).measures == ("time",)
        assert AggregateRequest(offers=iter(offers)).offers == tuple(offers)
        assert StreamRequest(events=[Tick(1)]).events == (Tick(1),)

    def test_request_validation_errors(self):
        with pytest.raises(ServiceError):
            EvaluateRequest(offers=5)
        with pytest.raises(ServiceError):
            ScheduleRequest(metric="cubic")
        with pytest.raises(ServiceError):
            StreamRequest(events=(object(),))


# --------------------------------------------------------------------- #
# Session lifecycle
# --------------------------------------------------------------------- #


class TestSessionLifecycle:
    def test_config_or_overrides_not_both(self):
        with pytest.raises(ServiceError):
            FlexSession(SessionConfig(backend="reference"), backend="reference")

    def test_close_is_idempotent_and_blocks_requests(self):
        session = FlexSession(backend="reference")
        session.ingest(population(5))
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(ServiceError):
            session.evaluate()
        with pytest.raises(ServiceError):
            with session.activate():
                pass

    def test_context_manager_closes(self):
        with FlexSession(backend="reference") as session:
            assert not session.closed
        assert session.closed

    def test_close_never_tears_down_a_shared_registered_backend(self):
        """Review regression: closing a session must not close() a backend
        borrowed from the registry — another session may be using it."""
        from repro.backend import ReferenceBackend, register_backend

        class Closeable(ReferenceBackend):
            name = "closeable-shared-test"
            closed_count = 0

            def close(self):
                type(self).closed_count += 1

        register_backend(Closeable())
        first = FlexSession(backend="closeable-shared-test")
        second = FlexSession(backend="closeable-shared-test")
        first.close()
        assert Closeable.closed_count == 0
        assert second.evaluate().report.size == 0  # still serving
        second.close()
        assert Closeable.closed_count == 0

    def test_session_owns_a_private_cache(self):
        session = FlexSession(backend="reference", cache_entries=3)
        assert session.cache is not matrix_cache
        assert session.cache.capacity == 3
        session.close()

    def test_submit_dispatches_by_request_type(self):
        with FlexSession(backend="reference") as session:
            session.ingest(population(6))
            assert session.submit(EvaluateRequest()).stats.kind == "evaluate"
            assert session.submit(AggregateRequest()).stats.kind == "aggregate"
            assert session.submit(ScheduleRequest("earliest")).stats.kind == "schedule"
            assert session.submit(TradeRequest()).stats.kind == "trade"
            assert session.submit(StreamRequest()).stats.kind == "stream"
            with pytest.raises(ServiceError):
                session.submit(object())

    def test_stats_and_provenance_fields(self):
        with FlexSession(backend="reference", cache_entries=2) as session:
            result = session.ingest(population(4))
            assert result.stats.backend == "reference"
            assert result.stats.duration_s >= 0.0
            assert result.live == 4
            summary = session.stats()
            assert summary["requests_served"] == 1
            assert summary["backend"] == "reference"
            assert summary["live"] == 4
            assert summary["cache"]["capacity"] == 2

    def test_repeated_ingest_generates_fresh_ids(self):
        with FlexSession(backend="reference") as session:
            session.ingest(population(3, seed=1))
            session.ingest(population(3, seed=1))  # same offers again
            assert len(session.engine) == 6

    def test_report_and_result_shorthands(self):
        with FlexSession(backend="reference") as session:
            session.ingest(population(5))
            report = session.report()
            served = session.evaluate()
            assert report == served.report
            assert served.values == report.values
            empty_trade = session.aggregate(AggregateRequest(offers=()))
            assert empty_trade.compression == 1.0

    def test_internals_never_route_through_a_deprecation_shim(self):
        """The full request surface stays silent under error-level filters."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with FlexSession(backend="reference") as session:
                session.ingest(population(10))
                session.evaluate()
                session.aggregate()
                session.schedule(
                    ScheduleRequest(
                        "evolutionary",
                        options={"population_size": 4, "generations": 2},
                    )
                )
                session.trade()
                session.tick(1)
                session.snapshot()


# --------------------------------------------------------------------- #
# Request semantics vs. hand-wired calls
# --------------------------------------------------------------------- #


class TestRequestsMatchHandWiring:
    def test_evaluate_matches_evaluate_set(self):
        offers = population(12)
        with FlexSession(backend="reference") as session:
            session.ingest(offers)
            served = session.evaluate(EvaluateRequest(measures=("time", "vector")))
        with use_backend("reference"):
            assert served.report == evaluate_set(offers, ("time", "vector"))

    def test_evaluate_explicit_offers_skip_semantics(self):
        mixed = FlexOffer(0, 2, [(-1, 2), (-4, -1)], name="mixed")
        with FlexSession(backend="reference") as session:
            report = session.evaluate(
                EvaluateRequest(offers=(mixed,), measures=("absolute_area",))
            ).report
            assert report.skipped == ("absolute_area",)
            with pytest.raises(Exception):
                session.evaluate(
                    EvaluateRequest(
                        offers=(mixed,),
                        measures=("absolute_area",),
                        skip_unsupported=False,
                    )
                )

    def test_aggregate_matches_batch_pipeline(self):
        offers = population(20)
        grouping = GroupingParameters(4, 2)
        with FlexSession(backend="reference", grouping=grouping) as session:
            session.ingest(offers)
            live = session.aggregate()
            explicit = session.aggregate(AggregateRequest(offers=tuple(offers)))
        with use_backend("reference"):
            groups = group_by_grid(offers, grouping)
            aggregates = aggregate_all(groups, prefix="aggregate")
        assert live.groups == tuple(tuple(group) for group in groups)
        assert live.aggregates == tuple(aggregates)
        assert explicit.groups == live.groups
        assert explicit.aggregates == live.aggregates
        assert live.compression == pytest.approx(len(offers) / len(aggregates))

    def test_schedule_matches_direct_scheduler_calls(self):
        offers = population(10)
        wind = TimeSeries(0, tuple(range(12)))
        with FlexSession(backend="reference", seed=11) as session:
            session.ingest(offers)
            earliest = session.schedule(ScheduleRequest("earliest"))
            climbing = session.schedule(
                ScheduleRequest(
                    "hill-climbing",
                    reference=wind,
                    options={"iterations": 10, "restarts": 1},
                )
            )
        with use_backend("reference"):
            assert earliest.schedule == EarliestStartScheduler().schedule(offers)
            objective = ImbalanceObjective("absolute", wind)
            expected = HillClimbingScheduler(
                iterations=10, restarts=1, seed=11, objective=objective
            ).schedule(offers, wind)
            assert climbing.schedule == expected
            assert climbing.objective_value == objective.of_schedule(expected)

    def test_schedule_request_seed_option_beats_session_seed(self):
        offers = population(8)
        with FlexSession(backend="reference", seed=1) as session:
            session.ingest(offers)
            explicit = session.schedule(
                ScheduleRequest(
                    "evolutionary",
                    options={"population_size": 4, "generations": 2, "seed": 9},
                )
            )
        with use_backend("reference"):
            expected = EvolutionaryScheduler(
                population_size=4,
                generations=2,
                seed=9,
                objective=ImbalanceObjective("absolute", None),
            ).schedule(offers)
        assert explicit.schedule == expected

    def test_objective_value_scores_the_optimised_objective(self):
        """Review regression: a caller-supplied options['objective'] wins
        inside the scheduler, so the reported value must use it too."""
        offers = population(8)
        wind = TimeSeries(0, tuple([2] * 10))
        custom = ImbalanceObjective("squared", wind)
        with FlexSession(backend="reference") as session:
            session.ingest(offers)
            served = session.schedule(
                ScheduleRequest("greedy", options={"objective": custom})
            )
        assert served.objective_value == custom.of_schedule(served.schedule)
        # An explicit request reference overrides the custom objective's
        # reference inside the scheduler; the score must track that too.
        other = TimeSeries(0, tuple([5] * 10))
        with FlexSession(backend="reference") as session:
            session.ingest(offers)
            served = session.schedule(
                ScheduleRequest(
                    "greedy", reference=other, options={"objective": custom}
                )
            )
        effective = ImbalanceObjective("squared", other)
        assert served.objective_value == effective.of_schedule(served.schedule)

    def test_schedule_unknown_scheduler(self):
        with FlexSession(backend="reference") as session:
            with pytest.raises(ServiceError):
                session.schedule(ScheduleRequest("simulated-annealing"))

    def test_empty_population_schedules_to_empty(self):
        with FlexSession(backend="reference") as session:
            result = session.schedule(ScheduleRequest("earliest"))
            assert len(result.schedule) == 0
            assert result.objective_value == 0.0

    def test_trade_matches_trading_session(self):
        offers = population(15)
        with FlexSession(backend="reference") as session:
            session.ingest(offers)
            served = session.trade(
                TradeRequest(measure="product", energy_price=1.0, budget=500.0)
            )
            lots = session.engine.aggregates()
        with use_backend("reference"):
            market = TradingSession(
                FlexibilityPricer(measure="product", energy_price=1.0),
                budget=500.0,
            )
            accepted, rejected = market.clear(lots)
        assert served.accepted == tuple(accepted)
        assert served.rejected == tuple(rejected)
        assert served.revenue == sum(bid.total_price for bid in accepted)
        assert served.stats.population == len(lots)

    def test_stream_event_mix_matches_engine_replay(self):
        offers = population(6)
        events = [OfferArrived(f"e{i}", offer) for i, offer in enumerate(offers)]
        events += [Tick(2), OfferExpired("e0"), Tick(5)]
        with FlexSession(backend="reference") as session:
            result = session.stream(StreamRequest(events=tuple(events)))
        engine = StreamingEngine()
        for event in events:
            engine.apply(event)
        assert result.applied == len(events)
        assert result.live == len(engine)
        assert result.time == engine.time
        assert result.engine_stats == engine.stats.as_dict()

    def test_bulk_stream_falls_back_on_event_mixes(self):
        offers = population(4)
        mixed = (
            OfferArrived("a", offers[0]),
            Tick(1),
            OfferArrived("b", offers[1]),
        )
        with FlexSession(backend="reference") as session:
            result = session.stream(StreamRequest(events=mixed, bulk=True))
            assert result.live == 2
            assert result.time == 1

    def test_activate_routes_library_calls_through_the_session(self):
        offers = population(6)
        with FlexSession(backend="reference") as session:
            with session.activate() as active:
                assert active is session
                report = evaluate_set(offers, ("time",))
        with use_backend("reference"):
            assert report == evaluate_set(offers, ("time",))


# --------------------------------------------------------------------- #
# objective_value: bit-identical to of_schedule on every backend
# --------------------------------------------------------------------- #

_SCORING_BACKENDS = [
    pytest.param({"backend": "reference"}, id="reference"),
    pytest.param({"backend": "numpy"}, id="numpy", marks=requires_numpy),
    pytest.param(
        {
            "backend": "sharded",
            "shards": 2,
            "shard_min_population": 1,
        },
        id="sharded",
        marks=requires_numpy,
    ),
]

_SCHEDULER_OPTIONS = {
    "hill-climbing": {"iterations": 10, "restarts": 1},
    "evolutionary": {"population_size": 4, "generations": 2},
}


@pytest.mark.parametrize("metric", ["absolute", "squared"])
@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
@pytest.mark.parametrize("backend", _SCORING_BACKENDS)
def test_objective_value_is_bit_identical_to_of_schedule(backend, scheduler, metric):
    """The session scores through the backend's batch objective; the value
    must equal the scalar ``of_schedule`` of the optimised objective bit for
    bit — with and without a request reference, and with a caller-supplied
    options['objective'] wherever the scheduler takes one."""
    offers = population(24, seed=3)
    # Float references make the fold order visible in the low bits.
    wind = TimeSeries(1, tuple(3.1 + 0.37 * step for step in range(11)))
    custom_reference = TimeSeries(0, tuple(4.3 - 0.11 * step for step in range(12)))
    takes_objective = _SCHEDULERS[scheduler][2]
    base = _SCHEDULER_OPTIONS.get(scheduler, {})
    cases = [
        (None, base, ImbalanceObjective(metric, None)),
        (wind, base, ImbalanceObjective(metric, wind)),
    ]
    if takes_objective:
        # The caller's objective wins over the request metric.
        other = "squared" if metric == "absolute" else "absolute"
        custom = ImbalanceObjective(other, custom_reference)
        with_custom = {**base, "objective": custom}
        cases.append((None, with_custom, custom))
        cases.append((wind, with_custom, ImbalanceObjective(other, wind)))
    with FlexSession(SessionConfig(seed=7, **backend)) as session:
        session.ingest(offers)
        for reference, options, objective in cases:
            result = session.schedule(
                ScheduleRequest(
                    scheduler, metric=metric, reference=reference, options=options
                )
            )
            assert len(result.schedule) == len(offers)
            expected = objective.of_schedule(result.schedule)
            assert result.objective_value.hex() == expected.hex()


@pytest.mark.parametrize("metric", ["absolute", "squared"])
@pytest.mark.parametrize("backend", _SCORING_BACKENDS)
def test_empty_schedule_scores_the_reference_imbalance(backend, metric):
    """With nothing scheduled the imbalance is the reference's own:
    |3| + |4| = 7 (absolute) or 9 + 16 = 25 (squared), both for an empty
    live population and for ``offers=()``."""
    reference = TimeSeries(0, (3, 4))
    expected = {"absolute": 7.0, "squared": 25.0}[metric]
    with FlexSession(SessionConfig(**backend)) as session:
        for offers in (None, ()):
            result = session.schedule(
                ScheduleRequest(
                    "earliest", offers=offers, reference=reference, metric=metric
                )
            )
            assert len(result.schedule) == 0
            assert result.objective_value == expected
            objective = ImbalanceObjective(metric, reference)
            assert objective.of_schedule(result.schedule) == expected


# --------------------------------------------------------------------- #
# The acceptance property: interleaved sessions == solo sessions
# --------------------------------------------------------------------- #


def _drive(session: FlexSession, offers, wind):
    """A fixed request mix exercising every request kind."""
    outputs = []
    outputs.append(session.ingest(offers).live)
    outputs.append(session.evaluate().report)
    outputs.append(session.aggregate().aggregates)
    outputs.append(
        session.schedule(
            ScheduleRequest(
                "hill-climbing",
                reference=wind,
                options={"iterations": 8, "restarts": 1},
            )
        ).schedule
    )
    outputs.append(session.trade(TradeRequest(budget=1e6)).accepted)
    session.stream(StreamRequest((Tick(3),)))
    outputs.append(session.evaluate().report)
    return outputs


@requires_numpy
def test_two_sessions_with_different_configs_interleave_bit_identically():
    """ISSUE acceptance: numpy vs. sharded sessions with different cache
    budgets, interleaved request by request, each equal a fresh solo run."""
    offers_a = population(40, seed=1)
    offers_b = population(30, seed=2)
    wind = TimeSeries(0, tuple([3] * 12))
    config_a = SessionConfig(backend="numpy", cache_entries=8, seed=5)
    config_b = SessionConfig(
        backend="sharded",
        shards=2,
        shard_min_population=1,
        cache_entries=2,
        cache_cells=10_000,
        seed=6,
    )

    solo_a = _drive(FlexSession(config_a), offers_a, wind)
    solo_b = _drive(FlexSession(config_b), offers_b, wind)

    session_a = FlexSession(config_a)
    session_b = FlexSession(config_b)
    try:
        interleaved_a = []
        interleaved_b = []
        interleaved_a.append(session_a.ingest(offers_a).live)
        interleaved_b.append(session_b.ingest(offers_b).live)
        interleaved_a.append(session_a.evaluate().report)
        interleaved_b.append(session_b.evaluate().report)
        interleaved_a.append(session_a.aggregate().aggregates)
        interleaved_b.append(session_b.aggregate().aggregates)
        request = ScheduleRequest(
            "hill-climbing", reference=wind, options={"iterations": 8, "restarts": 1}
        )
        interleaved_a.append(session_a.schedule(request).schedule)
        interleaved_b.append(session_b.schedule(request).schedule)
        interleaved_a.append(session_a.trade(TradeRequest(budget=1e6)).accepted)
        interleaved_b.append(session_b.trade(TradeRequest(budget=1e6)).accepted)
        session_a.stream(StreamRequest((Tick(3),)))
        session_b.stream(StreamRequest((Tick(3),)))
        interleaved_a.append(session_a.evaluate().report)
        interleaved_b.append(session_b.evaluate().report)
    finally:
        session_a.close()
        session_b.close()

    assert interleaved_a == solo_a
    assert interleaved_b == solo_b


@requires_numpy
def test_interleaved_sessions_do_not_share_cache_entries():
    offers = population(25, seed=3)
    small = FlexSession(backend="numpy", cache_entries=1, cache_cells=50)
    large = FlexSession(backend="numpy", cache_entries=8)
    try:
        process_wide = matrix_cache.stats()
        small.ingest(offers)
        large.ingest(offers)
        small.evaluate(EvaluateRequest(offers=offers))
        large.evaluate(EvaluateRequest(offers=offers))
        # The large session's budget is untouched by the small session's
        # evictions, and neither session touched the process-wide cache.
        assert small.cache.stats()["size"] <= 1
        assert large.cache.stats()["size"] == 1
        assert large.cache is not small.cache
        assert matrix_cache.stats() == process_wide
    finally:
        small.close()
        large.close()


@requires_numpy
def test_sharded_session_uses_instance_inner_backend():
    config = SessionConfig(
        backend="sharded", shards=2, shard_min_population=1
    )
    offers = population(30, seed=4)
    with FlexSession(config) as session:
        process_wide = matrix_cache.stats()
        served = session.evaluate(EvaluateRequest(offers=offers)).report
        # The session cache (not the global one) holds the packed shards.
        assert session.cache.stats()["misses"] == config.shards
        assert matrix_cache.stats() == process_wide
    with use_backend("reference"):
        assert served == evaluate_set(offers, None)


# --------------------------------------------------------------------- #
# Bulk-stream durability and request timing
# --------------------------------------------------------------------- #


@requires_numpy
def test_failed_bulk_stream_leaves_no_state_the_wal_cannot_recover(tmp_path):
    """A bulk request with a duplicate id is rejected whole: whatever the
    session still serves after the failure is exactly what a fresh session
    recovers from the same persist_dir."""
    from repro.stream import StreamError

    offers = population(3, seed=21)
    config = SessionConfig(backend="numpy", persist_dir=str(tmp_path / "tenant"))
    events = tuple(
        OfferArrived(f"o{index}", offer) for index, offer in enumerate(offers)
    ) + (OfferArrived("o1", offers[0]),)
    session = FlexSession(config)
    try:
        with pytest.raises(StreamError):
            session.stream(StreamRequest(events=events, bulk=True))
        served = len(session.engine)
    finally:
        session.close()
    with FlexSession(config) as recovered:
        assert served == len(recovered.engine)


def test_bulk_arrive_is_all_or_nothing():
    from repro.stream import StreamError

    offers = population(4, seed=22)
    engine = StreamingEngine(measures=["time", "energy"])
    engine.apply(OfferArrived("live", offers[0]))
    before = engine.snapshot()
    for batch in (
        [("a", offers[1]), ("live", offers[2])],  # clashes with the live set
        [("a", offers[1]), ("b", offers[2]), ("a", offers[3])],  # within batch
    ):
        with pytest.raises(StreamError):
            engine.bulk_arrive(batch)
        assert engine.snapshot() == before


@pytest.mark.parametrize("kind", ["evaluate", "schedule"])
def test_request_duration_covers_live_population_reads(kind, monkeypatch):
    import time as time_module

    with FlexSession(backend="reference") as session:
        session.ingest(population(5, seed=23))
        for name in ("report", "live_offers", "live_matrix"):
            original = getattr(session.engine, name)

            def slow(*args, _original=original, **kwargs):
                time_module.sleep(0.05)
                return _original(*args, **kwargs)

            monkeypatch.setattr(session.engine, name, slow)
        if kind == "evaluate":
            stats = session.evaluate().stats
        else:
            stats = session.schedule(ScheduleRequest("earliest")).stats
        assert stats.duration_s >= 0.05


@pytest.mark.parametrize(
    "kind, setup", [("schedule", "ImbalanceObjective"), ("trade", "TradingSession")]
)
def test_request_duration_covers_request_setup(kind, setup, monkeypatch):
    import time as time_module

    from repro.service import session as session_module

    original = getattr(session_module, setup)

    def slow(*args, **kwargs):
        time_module.sleep(0.05)
        return original(*args, **kwargs)

    with FlexSession(backend="reference") as session:
        session.ingest(population(5, seed=23))
        monkeypatch.setattr(session_module, setup, slow)
        if kind == "schedule":
            stats = session.schedule(ScheduleRequest("earliest")).stats
        else:
            stats = session.trade(TradeRequest()).stats
    assert stats.duration_s >= 0.05


# --------------------------------------------------------------------- #
# Live trades over kept lots: bit-identical to the batch book
# --------------------------------------------------------------------- #


def _batch_trade(offers, request: TradeRequest):
    """The trade a fresh batch pipeline clears on the reference backend."""
    with use_backend("reference"):
        market = TradingSession(
            FlexibilityPricer(
                measure=request.measure,
                energy_price=request.energy_price,
                premium_per_unit=request.premium_per_unit,
            ),
            budget=request.budget,
        )
        accepted, rejected = market.clear(aggregate_all(group_by_grid(offers)))
    return tuple(accepted), tuple(rejected), float(
        sum(bid.total_price for bid in accepted)
    )


@pytest.mark.parametrize("backend", _SCORING_BACKENDS)
def test_live_trades_over_kept_lots_equal_the_batch_book(backend, tmp_path):
    """Repeated trades, a trade after an arrival and one after a recovery
    each clear exactly the book the batch pipeline builds from the live
    population."""
    offers = population(40, seed=31)
    request = TradeRequest(measure="product", energy_price=1.0, budget=60.0)
    config = SessionConfig(
        persist_dir=str(tmp_path / "tenant"), persist_fsync=False, **backend
    )

    def assert_batch(session):
        served = session.trade(request)
        accepted, rejected, revenue = _batch_trade(
            session.engine.live_offers(), request
        )
        assert served.accepted == accepted
        assert served.rejected == rejected
        assert served.revenue == revenue
        assert accepted and rejected  # the budget splits the book

    with FlexSession(config) as session:
        session.ingest(offers)
        assert_batch(session)
        assert_batch(session)
        session.stream(
            StreamRequest(events=(OfferArrived("late", population(1, 32)[0]),))
        )
        assert_batch(session)
        session.checkpoint()
    with FlexSession(config) as recovered:
        assert len(recovered.engine) == len(offers) + 1
        assert_batch(recovered)
        assert_batch(recovered)
