"""Property-based tests of the streaming engine's batch equivalence.

The load-bearing invariant of :mod:`repro.stream`: after an *arbitrary*
legal interleaving of arrivals and expiries, the engine's groups, aggregates
and set-wise measure report equal the batch ``group_by_grid`` →
``aggregate_all`` → ``evaluate_set`` pipeline applied to the surviving
offers in arrival order.  Hypothesis drives random small flex-offers through
random event interleavings (including pathological ones like
arrive–expire–rearrive churn) so the incremental bookkeeping — sparse column
sums, lazy extreme repair, cached measure values, unsupported counts — is
exercised across removal orders no hand-written test would pick.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import grouping_parameters, interleavings, stream_flexoffers

from repro.aggregation import aggregate_all, aggregate_start_aligned, group_by_grid
from repro.measures import evaluate_set
from repro.stream import (
    IncrementalAggregate,
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamingEngine,
    Tick,
)

MEASURES = ["time", "energy", "product", "vector", "assignments"]

# Strategies are shared with the core-property and backend-conformance
# suites; see tests/strategies.py.
pytestmark = pytest.mark.slow


@settings(max_examples=60, deadline=None)
@given(interleavings(), grouping_parameters())
def test_streaming_state_equals_batch_pipeline(interleaving, parameters):
    """Engine after any interleaving ≡ batch pipeline on the survivors."""
    events, survivors = interleaving
    engine = StreamingEngine(parameters=parameters, measures=MEASURES)
    engine.replay(events)

    assert engine.live_offers() == survivors

    snapshot = engine.snapshot()
    batch_groups = group_by_grid(survivors, parameters)
    assert [list(group) for group in snapshot.groups] == batch_groups
    assert list(snapshot.aggregates) == aggregate_all(batch_groups)
    assert snapshot.report == evaluate_set(survivors, MEASURES)


PREFIXES = ("aggregate", "lot", "bid")


@settings(max_examples=80, deadline=None)
@given(grouping_parameters(), st.data())
def test_kept_lots_never_go_stale(parameters, data):
    """Live aggregates ≡ batch after every step, kept lots read in between.

    Single and bulk arrivals, expiries, assignments and (auto-expiring)
    ticks interleave at random.  After every step the aggregates are read
    under each prefix in a random order, so the next step finds each
    cell's kept lot under the name it is read with first or under another:
    lots are both reused and renamed.  A lot that outlives a change to its
    cell shows up as a difference from the batch pipeline on the survivors.
    """
    engine = StreamingEngine(
        parameters=parameters, measures=MEASURES, auto_expire=True
    )
    live: dict[str, object] = {}
    time = 0
    fresh = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=14))):
        kinds = ["arrive", "bulk", "tick"] + (["expire", "assign"] if live else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "arrive":
            offer_id, fresh = f"f{fresh}", fresh + 1
            live[offer_id] = data.draw(stream_flexoffers())
            engine.apply(OfferArrived(offer_id, live[offer_id]))
        elif kind == "bulk":
            batch = []
            for offer in data.draw(st.lists(stream_flexoffers(), max_size=4)):
                offer_id, fresh = f"f{fresh}", fresh + 1
                live[offer_id] = offer
                batch.append(OfferArrived(offer_id, offer))
            engine.bulk_arrive(batch)
        elif kind == "tick":
            time += data.draw(st.integers(min_value=0, max_value=2))
            engine.apply(Tick(time))
            live = {
                offer_id: offer
                for offer_id, offer in live.items()
                if offer.latest_start >= time
            }
        else:
            offer_id = data.draw(st.sampled_from(sorted(live)))
            del live[offer_id]
            event = OfferExpired if kind == "expire" else OfferAssigned
            engine.apply(event(offer_id))
        assert engine.live_offers() == list(live.values())
        batch_groups = group_by_grid(list(live.values()), parameters)
        order = data.draw(st.permutations(PREFIXES))
        for prefix in (*order, order[0]):
            assert engine.aggregates(prefix) == aggregate_all(batch_groups, prefix)


@settings(max_examples=60, deadline=None)
@given(interleavings(min_offers=2, max_offers=6))
def test_rearrival_after_expiry_is_clean(interleaving):
    """Expiring everything and re-adding it reproduces a fresh batch state."""
    events, survivors = interleaving
    engine = StreamingEngine(measures=MEASURES)
    engine.replay(events)
    for offer_id in list(engine.live_ids()):
        engine.apply(OfferExpired(offer_id))
    assert engine.size == 0
    for index, flex_offer in enumerate(survivors):
        engine.apply(OfferArrived(f"again{index}", flex_offer))
    assert engine.report() == evaluate_set(survivors, MEASURES)
    assert [list(g) for g in engine.snapshot().groups] == group_by_grid(
        survivors, engine.parameters
    )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(stream_flexoffers(), min_size=1, max_size=6),
    st.data(),
)
def test_incremental_aggregate_matches_batch_under_random_removals(offers, data):
    """IncrementalAggregate ≡ aggregate_start_aligned at every removal step."""
    aggregate = IncrementalAggregate()
    live = {}
    for index, flex_offer in enumerate(offers):
        offer_id = f"f{index}"
        aggregate.add(offer_id, flex_offer)
        live[offer_id] = flex_offer
    while len(live) > 1:
        victim = data.draw(st.sampled_from(sorted(live)))
        aggregate.remove(victim)
        del live[victim]
        assert aggregate.aggregated() == aggregate_start_aligned(list(live.values()))
