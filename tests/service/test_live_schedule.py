"""The live ``earliest`` schedule is served from the engine's packed matrix.

A live ``earliest`` request hands the engine's frozen live
:class:`~repro.backend.matrix.ProfileMatrix` to the scheduler, whose
backend computes the minimal profiles and screens them on those arrays:
nothing is packed again, and on a NumPy-backed session the schedule stays
packed (:meth:`~repro.scheduling.Schedule.packed`) through the objective
and the wire text, building no :class:`~repro.core.Assignment`.  The
schedule, its objective value and its wire text must equal the reference
scheduler's over ``live_offers()`` through arrivals, expiries (tombstoned
and compacted rows), ``auto_expire`` ticks and offers whose ``cmin``
forces top-ups, and a row that fails the screen must still reach the
validating :class:`~repro.core.Assignment` constructor.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import NUMPY_AVAILABLE, use_backend
from repro.core import Assignment, FlexOffer, InvalidAssignmentError, TimeSeries
from repro.io import payload_json, result_envelope, result_to_dict
from repro.scheduling import EarliestStartScheduler, ImbalanceObjective
from repro.service import FlexSession, ScheduleRequest, StreamRequest
from repro.stream import OfferArrived, OfferExpired

requires_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs NumPy")

MEASURES = ("time", "energy")

BACKENDS = {"reference": {"backend": "reference"}}
if NUMPY_AVAILABLE:
    BACKENDS["numpy"] = {"backend": "numpy"}
    BACKENDS["sharded"] = {
        "backend": "sharded",
        "shards": 2,
        "shard_min_population": 1,
    }


@st.composite
def topped_up_offers(draw):
    """Small offers whose ``cmin`` usually exceeds the slice minima, so the
    minimal profile needs top-ups (sometimes across several slices)."""
    earliest = draw(st.integers(min_value=0, max_value=6))
    slices = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-2, max_value=3),
                st.integers(min_value=0, max_value=3),
            ).map(lambda pair: (pair[0], pair[0] + pair[1])),
            min_size=1,
            max_size=3,
        )
    )
    profile_min = sum(low for low, _ in slices)
    profile_max = sum(high for _, high in slices)
    cmin = draw(st.integers(min_value=profile_min, max_value=profile_max))
    cmax = draw(st.integers(min_value=cmin, max_value=profile_max))
    latest = earliest + draw(st.integers(min_value=0, max_value=3))
    return FlexOffer(earliest, latest, slices, cmin, cmax)


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("arrive"),
            st.lists(topped_up_offers(), min_size=1, max_size=5),
            st.booleans(),
        ),
        st.tuples(st.just("expire"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("tick"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("schedule")),
    ),
    min_size=1,
    max_size=14,
)


#: References whose float columns make the objective's fold order matter.
references = st.one_of(
    st.none(),
    st.builds(
        TimeSeries,
        st.integers(min_value=0, max_value=8),
        st.lists(
            st.one_of(
                st.integers(min_value=-4, max_value=4),
                st.sampled_from([0.1, 0.7, 2.5, 1e16, -1e16, 3e17]),
            ),
            min_size=1,
            max_size=8,
        ).map(tuple),
    ),
)


def expected_schedule(session):
    with use_backend("reference"):
        return EarliestStartScheduler().schedule(session.engine.live_offers())


def expected_objective(schedule, metric="absolute", reference=None):
    """The reference objective value, as a live schedule reports it (an
    empty schedule reports the reference's own imbalance)."""
    with use_backend("reference"):
        return ImbalanceObjective(metric, reference).of_schedule(schedule)


def assert_served_like_the_reference(served, expected, metric, reference):
    """Schedule, objective bits and wire text of a live earliest result."""
    assert served.schedule == expected
    value = expected_objective(expected, metric, reference)
    assert served.objective_value.hex() == float(value).hex()
    assert payload_json(result_envelope(served)) == json.dumps(
        result_to_dict(served), allow_nan=False
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan=steps,
    threshold=st.sampled_from([0.0, 0.25, 1.0]),
    auto_expire=st.booleans(),
    metric=st.sampled_from(["absolute", "squared"]),
    reference=references,
)
def test_live_earliest_schedule_equals_the_reference_scheduler(
    plan, threshold, auto_expire, metric, reference
):
    request = ScheduleRequest("earliest", metric=metric, reference=reference)
    for config in BACKENDS.values():
        with FlexSession(
            measures=MEASURES, auto_expire=auto_expire, **config
        ) as session:
            if session.engine._live is not None:
                # 1.0 keeps tombstoned rows until the snapshot compacts.
                session.engine._live.matrix.compact_threshold = threshold
            arrivals = 0
            clock = 0
            for step in plan + [("schedule",)]:
                kind = step[0]
                if kind == "arrive":
                    batch = tuple(
                        OfferArrived(f"offer-{arrivals + index}", offer)
                        for index, offer in enumerate(step[1])
                    )
                    arrivals += len(batch)
                    session.stream(StreamRequest(events=batch, bulk=step[2]))
                elif kind == "expire":
                    live = session.engine.live_ids()
                    if live:
                        victim = live[step[1] % len(live)]
                        session.stream(
                            StreamRequest(events=(OfferExpired(victim),))
                        )
                elif kind == "tick":
                    clock += step[1]
                    session.tick(clock)
                else:
                    assert_served_like_the_reference(
                        session.schedule(request),
                        expected_schedule(session),
                        metric,
                        reference,
                    )


@pytest.fixture
def sweeps(monkeypatch):
    """Counts :meth:`ProfileMatrix._sweep` calls: one per packing."""
    from repro.backend.matrix import ProfileMatrix

    calls = []
    sweep = ProfileMatrix._sweep

    def counted(offers):
        calls.append(len(offers))
        return sweep(offers)

    monkeypatch.setattr(ProfileMatrix, "_sweep", staticmethod(counted))
    return calls


def population(size):
    return [
        FlexOffer(index % 7, index % 7 + 2, [(1, 3), (0, 2)], 2, 4)
        for index in range(size)
    ]


@requires_numpy
@pytest.mark.parametrize(
    "config",
    [
        {"backend": "numpy"},
        {"backend": "sharded", "shards": 2, "shard_min_population": 1},
    ],
    ids=["numpy", "sharded"],
)
def test_a_live_schedule_packs_nothing(config, sweeps, monkeypatch):
    from repro.backend.sharded import ShardedBackend

    shard_tasks = []
    submit = ShardedBackend._submit_shard

    def counted_submit(self, worker, args):
        shard_tasks.append(worker)
        return submit(self, worker, args)

    monkeypatch.setattr(ShardedBackend, "_submit_shard", counted_submit)
    with FlexSession(measures=MEASURES, **config) as session:
        session.ingest(population(50))
        sweeps.clear()
        shard_tasks.clear()
        served = session.schedule(ScheduleRequest("earliest"))
        assert sweeps == []
        assert shard_tasks == []
        assert served.schedule == expected_schedule(session)


@pytest.fixture
def constructions(monkeypatch):
    """Counts :class:`Assignment` constructions, trusted or validated."""
    calls = []
    trusted = Assignment.trusted.__func__
    post_init = Assignment.__post_init__

    def counted_trusted(cls, flex_offer, start_time, values):
        calls.append(flex_offer)
        return trusted(cls, flex_offer, start_time, values)

    def counted_post_init(self):
        calls.append(self.flex_offer)
        post_init(self)

    monkeypatch.setattr(Assignment, "trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Assignment, "__post_init__", counted_post_init)
    return calls


#: A reference whose objective fold gives another float in another order:
#: 1e16 swallows each small deviation added after it, not their sum.
FOLD_SENSITIVE = TimeSeries(0, (1e16, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3))


@requires_numpy
@pytest.mark.parametrize(
    "config",
    [
        {"backend": "numpy"},
        {"backend": "sharded", "shards": 2, "shard_min_population": 1},
    ],
    ids=["numpy", "sharded"],
)
def test_a_live_schedule_builds_no_assignment(config, constructions):
    with FlexSession(measures=MEASURES, **config) as session:
        session.ingest(population(50))
        constructions.clear()
        served = session.schedule(
            ScheduleRequest("earliest", reference=FOLD_SENSITIVE)
        )
        text = payload_json(result_envelope(served))
        assert constructions == []
        schedule = served.schedule
        assert schedule.columns is not None
        assert len(schedule) == 50
        assert schedule.flex_offers == tuple(session.engine.live_offers())
        assert constructions == []

        first = schedule.assignments
        assert len(constructions) == 50
        assert schedule.assignments is first
        assert len(constructions) == 50

        expected = expected_schedule(session)
        assert expected.columns is None
        assert schedule == expected and expected == schedule
        assert hash(schedule) == hash(expected)
        assert list(schedule) == list(expected)
        assert text == json.dumps(result_to_dict(served), allow_nan=False)

        value = expected_objective(expected, reference=FOLD_SENSITIVE)
        deviations = [
            abs(deviation)
            for deviation in (expected.total_load() - FOLD_SENSITIVE).values
        ]
        # The fold runs in time order; out of order it gives another float.
        assert float(sum(deviations)) == value
        assert float(sum(reversed(deviations))) != value
        assert served.objective_value.hex() == value.hex()


@requires_numpy
@pytest.mark.parametrize("backend", ["numpy", "sharded"])
def test_an_explicit_offer_schedule_packs_once(backend, sweeps):
    offers = tuple(population(50))
    with FlexSession(measures=MEASURES, backend=backend) as session:
        sweeps.clear()
        served = session.schedule(ScheduleRequest("earliest", offers=offers))
        assert sweeps == [len(offers)]
    with use_backend("reference"):
        assert served.schedule == EarliestStartScheduler().schedule(offers)


def unreachable_offer():
    """A valid offer whose ``cmin`` is then raised past every profile
    total: no assignment exists, so its minimal profile fails the screen."""
    offer = FlexOffer(1, 3, [(1, 2), (0, 1)], 1, 3)
    object.__setattr__(offer, "total_energy_min", 4)
    object.__setattr__(offer, "total_energy_max", 4)
    return offer


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_row_failing_the_screen_still_raises(name):
    offers = tuple(population(5)) + (unreachable_offer(),)
    with FlexSession(measures=MEASURES, **BACKENDS[name]) as session:
        request = ScheduleRequest("earliest", offers=offers)
        with pytest.raises(InvalidAssignmentError, match="total energy 3"):
            session.schedule(request)



@requires_numpy
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_packed_row_failing_the_screen_still_raises(name):
    from repro.backend.matrix import ProfileMatrix

    matrix = ProfileMatrix(population(5) + [unreachable_offer()])
    with FlexSession(measures=MEASURES, **BACKENDS[name]) as session:
        with session.activate(), pytest.raises(
            InvalidAssignmentError, match="total energy 3"
        ):
            EarliestStartScheduler().schedule(matrix)
