"""Hypothesis equivalence: FlexSession requests ≡ hand-wired pipeline calls.

The session is a façade, never a reinterpretation: after *any* interleaving
of stream mutations and read requests, every response payload equals what
the hand-wired ``StreamingEngine`` + batch pipeline + scheduler + market
calls produce on the same state — bit-for-bit, not approximately.  Offers
are consumption, production or mixed, so the area measure is skipped on
some populations; a strict (``skip_unsupported=False``) evaluate must then
raise exactly what ``evaluate_set`` raises.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation import GroupingParameters, aggregate_all, group_by_grid
from repro.backend import NUMPY_AVAILABLE, available_backends, use_backend
from repro.core import FlexOffer
from repro.market import FlexibilityPricer, TradingSession
from repro.measures import evaluate_set
from repro.scheduling import EarliestStartScheduler, HillClimbingScheduler, ImbalanceObjective
from repro.service import (
    EvaluateRequest,
    FlexSession,
    ScheduleRequest,
    SessionConfig,
    StreamRequest,
    TradeRequest,
)
from repro.stream import (
    OfferArrived,
    OfferExpired,
    StreamError,
    StreamingEngine,
    Tick,
)

#: ``absolute_area`` does not support mixed offers, so mixed populations
#: exercise the skipped-measure paths.
MEASURES = ("time", "energy", "product", "vector", "absolute_area")
GROUPING = GroupingParameters(4, 2)
SEED = 13


@st.composite
def flex_offers(draw):
    earliest = draw(st.integers(min_value=0, max_value=6))
    width = draw(st.integers(min_value=0, max_value=3))
    slices = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
            ).map(lambda pair: (min(pair), max(pair))),
            min_size=1,
            max_size=3,
        )
    )
    return FlexOffer(earliest, earliest + width, slices)


#: One step of the interleaving: ("arrive", offers, bulk) | ("reject", offers)
#: | ("expire",) | ("tick",) | ("evaluate",) | ("evaluate-strict",)
#: | ("aggregate",) | ("schedule",) | ("trade",)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("arrive"),
            st.lists(flex_offers(), min_size=1, max_size=4),
            st.booleans(),
        ),
        st.tuples(st.just("reject"), st.lists(flex_offers(), max_size=3)),
        st.tuples(st.just("expire")),
        st.tuples(st.just("tick")),
        st.tuples(st.just("evaluate")),
        st.tuples(st.just("evaluate-strict")),
        st.tuples(st.just("aggregate")),
        st.tuples(st.just("schedule")),
        st.tuples(st.just("trade")),
    ),
    min_size=1,
    max_size=12,
)


def _run_interleaving(backend: str, script, **overrides) -> None:
    config = SessionConfig(
        backend=backend, measures=MEASURES, grouping=GROUPING, seed=SEED, **overrides
    )
    session = FlexSession(config)
    shadow = StreamingEngine(parameters=GROUPING, measures=MEASURES)
    arrivals = 0
    clock = 0
    try:
        for step in script:
            kind = step[0]
            if kind == "arrive":
                batch = [
                    OfferArrived(f"offer-{arrivals + index}", offer)
                    for index, offer in enumerate(step[1])
                ]
                arrivals += len(batch)
                result = session.stream(
                    StreamRequest(events=tuple(batch), bulk=step[2])
                )
                for event in batch:
                    shadow.apply(event)
                assert result.live == len(shadow)
            elif kind == "reject":
                # A bulk batch re-sending a live id is refused whole.
                victims = shadow.live_ids()
                if not victims:
                    continue
                batch = [
                    OfferArrived(f"rejected-{arrivals + index}", offer)
                    for index, offer in enumerate(step[1])
                ] + [OfferArrived(victims[0], shadow.live_offers()[0])]
                with pytest.raises(StreamError):
                    session.stream(StreamRequest(events=tuple(batch), bulk=True))
                assert session.engine.live_ids() == shadow.live_ids()
            elif kind == "expire":
                victims = shadow.live_ids()
                if not victims:
                    continue
                event = OfferExpired(victims[len(victims) // 2])
                session.stream(StreamRequest(events=(event,)))
                shadow.apply(event)
            elif kind == "tick":
                clock += 1
                session.stream(StreamRequest(events=(Tick(clock),)))
                shadow.apply(Tick(clock))
            elif kind == "evaluate":
                served = session.evaluate().report
                with use_backend(backend):
                    expected = evaluate_set(shadow.live_offers(), MEASURES)
                assert served == expected
            elif kind == "evaluate-strict":
                request = EvaluateRequest(skip_unsupported=False)
                with use_backend(backend):
                    try:
                        expected = evaluate_set(shadow.live_offers(), MEASURES, False)
                    except Exception as error:  # noqa: BLE001 - compared below
                        expected = error
                if isinstance(expected, Exception):
                    with pytest.raises(Exception) as raised:
                        session.evaluate(request)
                    assert type(raised.value) is type(expected)
                else:
                    assert session.evaluate(request).report == expected
            elif kind == "aggregate":
                served = session.aggregate()
                with use_backend(backend):
                    groups = group_by_grid(shadow.live_offers(), GROUPING)
                    aggregates = aggregate_all(groups, prefix="aggregate")
                assert served.groups == tuple(tuple(group) for group in groups)
                assert served.aggregates == tuple(aggregates)
            elif kind == "schedule":
                served = session.schedule(
                    ScheduleRequest(
                        "hill-climbing", options={"iterations": 3, "restarts": 1}
                    )
                )
                with use_backend(backend):
                    expected = HillClimbingScheduler(
                        iterations=3,
                        restarts=1,
                        seed=SEED,
                        objective=ImbalanceObjective("absolute", None),
                    ).schedule(shadow.live_offers(), None)
                assert served.schedule == expected
            elif kind == "trade":
                served = session.trade(TradeRequest(budget=1e9))
                with use_backend(backend):
                    lots = aggregate_all(
                        group_by_grid(shadow.live_offers(), GROUPING),
                        prefix="aggregate",
                    )
                    accepted, rejected = TradingSession(
                        FlexibilityPricer(), budget=1e9
                    ).clear(lots)
                assert served.accepted == tuple(accepted)
                assert served.rejected == tuple(rejected)
    finally:
        session.close()


@pytest.mark.slow
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=steps)
def test_session_interleavings_match_hand_wiring_reference(script):
    _run_interleaving("reference", script)


@pytest.mark.slow
@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy backend not available")
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=steps)
def test_session_interleavings_match_hand_wiring_numpy(script):
    _run_interleaving("numpy", script)


def test_fixed_interleaving_smoke_on_every_backend():
    """A deterministic fast-tier companion of the hypothesis properties."""
    script = [
        ("arrive", [FlexOffer(0, 3, [(1, 2)]), FlexOffer(2, 4, [(0, 2), (1, 3)])], True),
        ("evaluate",),
        ("evaluate-strict",),
        ("arrive", [FlexOffer(1, 1, [(2, 2)])], False),
        ("reject", [FlexOffer(0, 2, [(1, 1)])]),
        ("aggregate",),
        ("schedule",),
        ("arrive", [FlexOffer(0, 2, [(-2, 1)]), FlexOffer(1, 2, [(-3, -1)])], True),
        ("evaluate",),
        ("evaluate-strict",),
        ("expire",),
        ("tick",),
        ("trade",),
        ("evaluate",),
    ]
    for backend in available_backends():
        _run_interleaving(backend, script)
    if "sharded" in available_backends():
        # Past the shard threshold, so every bulk call fans out.
        _run_interleaving("sharded", script, shards=2, shard_min_population=1)


def test_earliest_schedule_equivalence_after_churn():
    """Deterministic check with the baseline scheduler (no randomness)."""
    offers = [FlexOffer(i % 4, i % 4 + 2, [(1, 3)]) for i in range(9)]
    with FlexSession(backend="reference", measures=MEASURES) as session:
        session.ingest(offers)
        session.stream(
            StreamRequest(events=(OfferExpired(session.engine.live_ids()[0]),))
        )
        served = session.schedule(ScheduleRequest("earliest")).schedule
        survivors = session.engine.live_offers()
    with use_backend("reference"):
        assert served == EarliestStartScheduler().schedule(survivors)
