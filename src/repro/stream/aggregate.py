"""Incrementally maintained start-aligned aggregates.

The batch :func:`repro.aggregation.aggregate_start_aligned` rebuilds the
whole aligned profile from scratch on every call.  For a streaming group
that gains and loses one member at a time this is wasteful: almost all of
the aggregate's state is a collection of *sums* (per-column energy ranges,
total constraints) and *extremes* (anchor ``min tes``, common ``min tf``,
horizon ``max (tes + duration)``), and sums are trivially maintainable under
both add and remove.

:class:`IncrementalAggregate` therefore keeps

* a sparse column store ``{absolute time: [Σ amin, Σ amax, cover count]}``
  over the members' *effective* slice bounds (the same bounds the batch
  path sums), updated in O(duration) per membership change.  Its entries
  are plain Python ints, so the sums are exact for any bound magnitude;
* running totals of ``cmin``/``cmax`` (O(1) per change);
* running extremes for ``min tes``, ``min tf`` and ``max end``.  Adding a
  member can only tighten these monotonically (O(1)); removing the member
  that *attains* an extreme invalidates it, which is recorded with a dirty
  flag and repaired lazily — an O(group size) rebuild that only happens when
  the aggregate is next queried, not per event.

Materialising the aggregate (:meth:`flex_offer` / :meth:`aggregated`)
produces bit-for-bit the same :class:`~repro.aggregation.AggregatedFlexOffer`
the batch path builds for the same members in the same order: all sums are
integer arithmetic, so no floating-point drift can creep in.
"""

from __future__ import annotations

from typing import Optional

from ..aggregation.base import AggregatedFlexOffer
from ..core.errors import AggregationError
from ..core.flexoffer import FlexOffer
from ..core.slices import EnergySlice
from .events import StreamError

__all__ = ["IncrementalAggregate"]


class IncrementalAggregate:
    """A start-aligned aggregate maintained under member add/remove."""

    def __init__(self) -> None:
        self._members: dict[str, FlexOffer] = {}
        #: Absolute time -> [Σ amin, Σ amax, cover] over covered columns.
        self._columns: dict[int, list[int]] = {}
        self._total_min = 0
        self._total_max = 0
        self._min_tes: Optional[int] = None
        self._min_tf: Optional[int] = None
        self._max_end: Optional[int] = None
        self._extremes_dirty = False
        #: Number of lazy extreme rebuilds performed (observability hook).
        self.rebuilds = 0

    # ------------------------------------------------------------------ #
    # Membership maintenance
    # ------------------------------------------------------------------ #
    def add(self, offer_id: str, flex_offer: FlexOffer) -> None:
        """Add a member in O(duration)."""
        if offer_id in self._members:
            raise StreamError(f"offer {offer_id!r} is already aggregated")
        self._members[offer_id] = flex_offer
        columns = self._columns
        for time, bound in enumerate(
            flex_offer.effective_slice_bounds(), flex_offer.earliest_start
        ):
            column = columns.get(time)
            if column is None:
                columns[time] = [bound.amin, bound.amax, 1]
            else:
                column[0] += bound.amin
                column[1] += bound.amax
                column[2] += 1
        self._total_min += flex_offer.cmin
        self._total_max += flex_offer.cmax
        if not self._extremes_dirty:
            # Adding can only move the extremes monotonically.
            tes = flex_offer.earliest_start
            if self._min_tes is None or tes < self._min_tes:
                self._min_tes = tes
            tf = flex_offer.time_flexibility
            if self._min_tf is None or tf < self._min_tf:
                self._min_tf = tf
            end = flex_offer.earliest_end
            if self._max_end is None or end > self._max_end:
                self._max_end = end

    def remove(self, offer_id: str) -> FlexOffer:
        """Remove a member in O(duration); may mark the extremes dirty."""
        try:
            flex_offer = self._members.pop(offer_id)
        except KeyError:
            raise StreamError(f"offer {offer_id!r} is not aggregated here") from None
        columns = self._columns
        for time, bound in enumerate(
            flex_offer.effective_slice_bounds(), flex_offer.earliest_start
        ):
            column = columns[time]
            if column[2] == 1:
                del columns[time]
            else:
                column[0] -= bound.amin
                column[1] -= bound.amax
                column[2] -= 1
        self._total_min -= flex_offer.cmin
        self._total_max -= flex_offer.cmax
        if not self._members:
            self._min_tes = self._min_tf = self._max_end = None
            self._extremes_dirty = False
        elif not self._extremes_dirty and (
            flex_offer.earliest_start == self._min_tes
            or flex_offer.time_flexibility == self._min_tf
            or flex_offer.earliest_end == self._max_end
        ):
            # The departing member attained a running extreme: the cheap
            # monotone update is no longer sound, repair lazily on demand.
            self._extremes_dirty = True
        return flex_offer

    def _refresh_extremes(self) -> None:
        if not self._extremes_dirty:
            return
        members = self._members.values()
        self._min_tes = min(member.earliest_start for member in members)
        self._min_tf = min(member.time_flexibility for member in members)
        self._max_end = max(member.earliest_end for member in members)
        self._extremes_dirty = False
        self.rebuilds += 1

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of member flex-offers."""
        return len(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, offer_id: str) -> bool:
        return offer_id in self._members

    def member_ids(self) -> list[str]:
        """Member ids in arrival order."""
        return list(self._members)

    def members(self) -> list[FlexOffer]:
        """Member flex-offers in arrival order."""
        return list(self._members.values())

    @property
    def anchor(self) -> int:
        """The aggregate's earliest start (``min tes`` over members)."""
        if not self._members:
            raise AggregationError("an empty aggregate has no anchor")
        self._refresh_extremes()
        return self._min_tes  # type: ignore[return-value]

    @property
    def time_flexibility(self) -> int:
        """The aggregate's time flexibility (``min tf`` over members)."""
        if not self._members:
            raise AggregationError("an empty aggregate has no time flexibility")
        self._refresh_extremes()
        return self._min_tf  # type: ignore[return-value]

    @property
    def total_energy_min(self) -> int:
        """Running sum of the members' ``cmin``."""
        return self._total_min

    @property
    def total_energy_max(self) -> int:
        """Running sum of the members' ``cmax``."""
        return self._total_max

    # ------------------------------------------------------------------ #
    # Materialisation (batch-identical)
    # ------------------------------------------------------------------ #
    def flex_offer(self, name: Optional[str] = None) -> FlexOffer:
        """The aggregate as a plain flex-offer.

        Equal (``==``) to the flex-offer inside
        ``aggregate_start_aligned(self.members(), name=name)``.
        """
        if not self._members:
            raise AggregationError("cannot materialise an empty aggregate")
        self._refresh_extremes()
        anchor: int = self._min_tes  # type: ignore[assignment]
        horizon: int = self._max_end  # type: ignore[assignment]
        slices = []
        for time in range(anchor, horizon):
            column = self._columns.get(time)
            if column is None:
                slices.append(EnergySlice(0, 0))
            else:
                slices.append(EnergySlice(column[0], column[1]))
        label = name or "agg(" + ",".join(
            member.name or f"member{index}"
            for index, member in enumerate(self._members.values())
        ) + ")"
        return FlexOffer(
            anchor,
            anchor + self._min_tf,  # type: ignore[operator]
            tuple(slices),
            self._total_min,
            self._total_max,
            label,
        )

    def aggregated(self, name: Optional[str] = None) -> AggregatedFlexOffer:
        """The aggregate plus disaggregation bookkeeping.

        Equal (``==``) to ``aggregate_start_aligned(self.members(), name)``.
        """
        flex_offer = self.flex_offer(name)
        members = tuple(self._members.values())
        anchor = flex_offer.earliest_start
        offsets = tuple(member.earliest_start - anchor for member in members)
        return AggregatedFlexOffer(flex_offer, members, offsets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IncrementalAggregate({len(self._members)} members)"
