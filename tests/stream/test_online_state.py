"""Tests of the incremental state: the grid index and the aggregate."""

from __future__ import annotations

import pytest

from repro.aggregation import (
    GroupingParameters,
    aggregate_start_aligned,
    group_by_grid,
)
from repro.core import FlexOffer
from repro.stream import IncrementalAggregate, OnlineGridIndex, StreamError


def offer(tes: int, tls: int, slices, name: str) -> FlexOffer:
    return FlexOffer(tes, tls, slices, name=name)


OFFERS = {
    "a": offer(0, 2, [(1, 3), (0, 2)], "a"),
    "b": offer(1, 3, [(2, 4)], "b"),
    "c": offer(4, 9, [(0, 5), (1, 2)], "c"),
    "d": offer(5, 10, [(1, 1)], "d"),
}


class TestOnlineGridIndex:
    def test_insert_and_lookup(self):
        index = OnlineGridIndex()
        cell = index.insert("a", OFFERS["a"])
        assert "a" in index
        assert index.get("a") is OFFERS["a"]
        assert index.cell_of("a") == cell
        assert len(index) == 1

    def test_duplicate_insert_rejected(self):
        index = OnlineGridIndex()
        index.insert("a", OFFERS["a"])
        with pytest.raises(StreamError):
            index.insert("a", OFFERS["b"])

    def test_evict_drops_empty_cells(self):
        index = OnlineGridIndex()
        index.insert("a", OFFERS["a"])
        cell, flex_offer = index.evict("a")
        assert flex_offer is OFFERS["a"]
        assert index.cell_count == 0
        assert "a" not in index

    def test_evict_unknown_rejected(self):
        with pytest.raises(StreamError):
            OnlineGridIndex().evict("ghost")

    @pytest.mark.parametrize(
        "parameters",
        [GroupingParameters(), GroupingParameters(3, 1, 0), GroupingParameters(2, 2, 1)],
    )
    def test_groups_match_batch_grouping(self, parameters):
        index = OnlineGridIndex(parameters)
        for offer_id, flex_offer in OFFERS.items():
            index.insert(offer_id, flex_offer)
        survivors = list(OFFERS.values())
        assert index.groups() == group_by_grid(survivors, parameters)

    def test_groups_match_batch_after_evictions(self):
        parameters = GroupingParameters(2, 2, 2)
        index = OnlineGridIndex(parameters)
        for offer_id, flex_offer in OFFERS.items():
            index.insert(offer_id, flex_offer)
        index.evict("b")
        survivors = [OFFERS[key] for key in ("a", "c", "d")]
        assert index.groups() == group_by_grid(survivors, parameters)

    def test_iteration_is_arrival_order(self):
        index = OnlineGridIndex()
        for offer_id in ("c", "a", "d"):
            index.insert(offer_id, OFFERS[offer_id])
        index.evict("a")
        index.insert("b", OFFERS["b"])
        assert list(index) == ["c", "d", "b"]


class TestIncrementalAggregate:
    def test_matches_batch_on_growing_membership(self):
        aggregate = IncrementalAggregate()
        members = []
        for offer_id in ("a", "b", "c"):
            aggregate.add(offer_id, OFFERS[offer_id])
            members.append(OFFERS[offer_id])
            assert aggregate.aggregated() == aggregate_start_aligned(members)
            assert aggregate.flex_offer() == aggregate_start_aligned(members).flex_offer

    def test_matches_batch_after_removal(self):
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b", "c", "d"):
            aggregate.add(offer_id, OFFERS[offer_id])
        aggregate.remove("b")
        survivors = [OFFERS[key] for key in ("a", "c", "d")]
        assert aggregate.aggregated() == aggregate_start_aligned(survivors)

    def test_removing_extreme_member_triggers_lazy_rebuild(self):
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b", "c"):
            aggregate.add(offer_id, OFFERS[offer_id])
        assert aggregate.rebuilds == 0
        # "a" attains min tes; removing it dirties the running extremes.
        aggregate.remove("a")
        assert aggregate.rebuilds == 0  # repair is lazy
        survivors = [OFFERS["b"], OFFERS["c"]]
        assert aggregate.aggregated() == aggregate_start_aligned(survivors)
        assert aggregate.rebuilds == 1
        # Querying again does not rebuild a clean state a second time.
        assert aggregate.anchor == OFFERS["b"].earliest_start
        assert aggregate.rebuilds == 1

    def test_removing_non_extreme_member_avoids_rebuild(self):
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b", "d"):
            aggregate.add(offer_id, OFFERS[offer_id])
        # tes=2 (min is 0), tf=3 (min is 2), end=4 (max is 6): no extreme.
        interior = offer(2, 5, [(1, 2), (1, 2)], "interior")
        aggregate.add("i", interior)
        aggregate.remove("i")
        assert aggregate.rebuilds == 0
        aggregate.flex_offer()
        assert aggregate.rebuilds == 0

    def test_running_totals(self):
        aggregate = IncrementalAggregate()
        aggregate.add("a", OFFERS["a"])
        aggregate.add("b", OFFERS["b"])
        assert aggregate.total_energy_min == OFFERS["a"].cmin + OFFERS["b"].cmin
        assert aggregate.total_energy_max == OFFERS["a"].cmax + OFFERS["b"].cmax
        assert aggregate.size == 2
        assert aggregate.member_ids() == ["a", "b"]

    def test_empty_aggregate_guards(self):
        aggregate = IncrementalAggregate()
        with pytest.raises(Exception):
            aggregate.flex_offer()
        with pytest.raises(Exception):
            aggregate.anchor
        aggregate.add("a", OFFERS["a"])
        aggregate.remove("a")
        assert aggregate.size == 0
        with pytest.raises(Exception):
            aggregate.aggregated()

    def test_duplicate_and_unknown_membership_rejected(self):
        aggregate = IncrementalAggregate()
        aggregate.add("a", OFFERS["a"])
        with pytest.raises(StreamError):
            aggregate.add("a", OFFERS["b"])
        with pytest.raises(StreamError):
            aggregate.remove("ghost")

    def test_drain_and_refill_stays_consistent(self):
        aggregate = IncrementalAggregate()
        for round_index in range(3):
            for offer_id, flex_offer in OFFERS.items():
                aggregate.add(offer_id, flex_offer)
            assert aggregate.aggregated() == aggregate_start_aligned(
                list(OFFERS.values())
            )
            for offer_id in OFFERS:
                aggregate.remove(offer_id)
            assert len(aggregate) == 0

    def test_rebuilds_counts_one_repair_per_dirty_interval(self):
        # Several extreme removals between queries share one lazy rebuild:
        # the counter tracks repairs, not removals.
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b", "c", "d"):
            aggregate.add(offer_id, OFFERS[offer_id])
        aggregate.remove("a")  # attained min tes
        aggregate.remove("d")  # attained max end
        assert aggregate.rebuilds == 0
        assert aggregate.anchor == OFFERS["b"].earliest_start
        assert aggregate.rebuilds == 1
        assert aggregate.time_flexibility == min(
            OFFERS["b"].time_flexibility, OFFERS["c"].time_flexibility
        )
        assert aggregate.rebuilds == 1  # clean again: no second repair

    def test_rebuilds_remove_then_query_interleavings(self):
        # remove → query → remove → query: each dirtying removal that is
        # followed by a query costs exactly one rebuild, and the
        # materialised aggregate matches the batch path at every step.
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b", "c", "d"):
            aggregate.add(offer_id, OFFERS[offer_id])
        aggregate.remove("a")
        assert aggregate.aggregated() == aggregate_start_aligned(
            [OFFERS[key] for key in ("b", "c", "d")]
        )
        assert aggregate.rebuilds == 1
        aggregate.remove("d")
        assert aggregate.aggregated() == aggregate_start_aligned(
            [OFFERS[key] for key in ("b", "c")]
        )
        assert aggregate.rebuilds == 2

    def test_rebuilds_reset_is_not_implied_by_drain(self):
        # Draining resets the extremes and the dirty flag but keeps the
        # observability counter: it records lifetime repairs.
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b"):
            aggregate.add(offer_id, OFFERS[offer_id])
        aggregate.remove("a")
        aggregate.flex_offer()
        assert aggregate.rebuilds == 1
        aggregate.remove("b")
        assert len(aggregate) == 0
        aggregate.add("c", OFFERS["c"])
        assert aggregate.anchor == OFFERS["c"].earliest_start
        assert aggregate.rebuilds == 1  # fresh extremes needed no repair

    def test_adding_after_dirty_removal_still_repairs_lazily(self):
        # An add while dirty must not resurrect the cheap monotone update
        # on a stale extreme: the next query still repairs from scratch.
        aggregate = IncrementalAggregate()
        for offer_id in ("a", "b", "c"):
            aggregate.add(offer_id, OFFERS[offer_id])
        aggregate.remove("a")  # dirties min tes
        aggregate.add("d", OFFERS["d"])
        assert aggregate.rebuilds == 0
        survivors = [OFFERS[key] for key in ("b", "c", "d")]
        assert aggregate.aggregated() == aggregate_start_aligned(survivors)
        assert aggregate.rebuilds == 1


class TestColumnStore:
    """The sparse column sums behind IncrementalAggregate."""

    def batch_equal(self, aggregate, members):
        assert aggregate.aggregated() == aggregate_start_aligned(members)

    def test_huge_bounds_sum_exactly(self):
        # Bounds past 2^31 and past int64 stay exact Python-int sums.
        big = offer(0, 2, [(0, 1 << 33)], "big")
        huge = offer(1, 3, [(1 << 70, (1 << 70) + 5), (-(1 << 70), 0)], "huge")
        aggregate = IncrementalAggregate()
        aggregate.add("a", OFFERS["a"])
        aggregate.add("big", big)
        aggregate.add("huge", huge)
        self.batch_equal(aggregate, [OFFERS["a"], big, huge])
        aggregate.remove("a")
        self.batch_equal(aggregate, [big, huge])
        aggregate.remove("huge")
        self.batch_equal(aggregate, [big])

    def test_far_span_sums_exactly(self):
        far = offer(1 << 21, (1 << 21) + 2, [(1, 2)], "far")
        aggregate = IncrementalAggregate()
        aggregate.add("a", OFFERS["a"])
        aggregate.add("far", far)
        self.batch_equal(aggregate, [OFFERS["a"], far])
        aggregate.remove("far")
        self.batch_equal(aggregate, [OFFERS["a"]])

    def test_span_growth_in_both_directions(self):
        # Members extending the covered span left and right, interleaved
        # with removals, stay batch-identical throughout.
        members = {
            "mid": offer(100, 102, [(1, 2), (2, 3)], "mid"),
            "left": offer(40, 44, [(0, 1)], "left"),
            "right": offer(180, 185, [(2, 2), (1, 4)], "right"),
            "lefter": offer(5, 6, [(3, 3)], "lefter"),
        }
        aggregate = IncrementalAggregate()
        added = []
        for offer_id, flex_offer in members.items():
            aggregate.add(offer_id, flex_offer)
            added.append(flex_offer)
            self.batch_equal(aggregate, added)
        aggregate.remove("left")
        self.batch_equal(
            aggregate, [members[key] for key in ("mid", "right", "lefter")]
        )

    def test_overlapping_members_sum_exactly(self):
        overlapping = [
            offer(0, 4, [(1, 2), (2, 3), (3, 4)], "x"),
            offer(1, 5, [(5, 6), (6, 7)], "y"),
            offer(2, 6, [(0, 9)], "z"),
        ]
        aggregate = IncrementalAggregate()
        for index, flex_offer in enumerate(overlapping):
            aggregate.add(f"o{index}", flex_offer)
        self.batch_equal(aggregate, overlapping)
        aggregate.remove("o1")
        self.batch_equal(aggregate, [overlapping[0], overlapping[2]])
