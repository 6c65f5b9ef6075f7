"""The streaming flexibility engine.

:class:`StreamingEngine` is the event-driven counterpart of the batch
pipeline ``group_by_grid`` → ``aggregate_start_aligned`` → ``evaluate_set``.
It consumes the event model of :mod:`repro.stream.events` and maintains,
incrementally,

* the live population (arrival order preserved),
* the grid grouping (:class:`~repro.stream.grouping.OnlineGridIndex`),
* one :class:`~repro.stream.aggregate.IncrementalAggregate` per grid cell,
* the per-offer values of every configured flexibility measure (computed
  once on arrival, never recomputed),
* a live packed :class:`~repro.backend.matrix.ProfileMatrix` of the
  surviving population plus per-measure value columns
  (:class:`~repro.stream.live.LivePopulation`) — maintained in O(Δ) per
  event through append/tombstone/compact instead of being re-packed from
  scratch, and
* optionally a :class:`~repro.stream.window.WindowTracker` sampling the
  population-level set values of the tracked measures on every
  :class:`~repro.stream.events.Tick`, fed from the packed value columns.

The contract that makes the engine trustworthy is *batch equivalence*: after
any event stream, :meth:`StreamingEngine.snapshot` returns exactly the
groups, aggregates and :class:`~repro.measures.FlexibilitySetReport` that
the batch pipeline produces on the surviving offers in arrival order.  All
incremental state is integer sums / cached floats combined in the same order
the batch path would combine them, so the equality is exact, not
approximate.

The engine is the only owner of that packed state.  :meth:`report` folds
the value columns directly and :meth:`live_matrix` hands out a frozen
snapshot of the matrix; nothing is published into, or rediscovered
through, the fingerprint-keyed :data:`~repro.backend.cache.matrix_cache`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

from ..aggregation.alignment import aggregate_start_aligned
from ..aggregation.base import AggregatedFlexOffer
from ..aggregation.grouping import GroupingParameters
from ..backend.dispatch import DEFAULT_COMPACT_THRESHOLD, get_backend
from ..core.flexoffer import FlexOffer
from ..measures.base import FlexibilityMeasure
from ..measures.setwise import FlexibilitySetReport, MeasureSpec, resolve_measures
from .aggregate import IncrementalAggregate
from .events import (
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamError,
    StreamEvent,
    Tick,
)
from .grouping import CellKey, OnlineGridIndex
from .window import WindowTracker

__all__ = [
    "EngineStats",
    "EngineSnapshot",
    "StreamingEngine",
]

#: Hook signature: ``hook(offer_id, flex_offer, event)``.
EngineHook = Callable[[str, FlexOffer, StreamEvent], None]


@dataclass
class EngineStats:
    """Running counters of everything the engine has processed."""

    events: int = 0
    arrived: int = 0
    expired: int = 0
    assigned: int = 0
    ticks: int = 0
    #: Sum of the ``price`` fields of the assignments that carried one.
    revenue: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """A serialisable copy of the counters."""
        return {
            "events": self.events,
            "arrived": self.arrived,
            "expired": self.expired,
            "assigned": self.assigned,
            "ticks": self.ticks,
            "revenue": self.revenue,
        }


@dataclass(frozen=True)
class EngineSnapshot:
    """A consistent view of the engine's state after some prefix of events.

    The fields are exactly the structures the batch pipeline produces — and
    that :mod:`repro.analysis.comparison` and the examples already consume —
    so a snapshot can be dropped into any existing batch analysis:

    * ``live`` ≡ the surviving flex-offers in arrival order (the input the
      batch pipeline would be run on),
    * ``groups`` ≡ ``group_by_grid(live, parameters)``,
    * ``aggregates`` ≡ ``aggregate_all(groups)``,
    * ``report`` ≡ ``evaluate_set(live, measures)``.
    """

    #: Stream time of the last processed :class:`Tick` (``None`` before one).
    time: Optional[int]
    #: Surviving flex-offers in arrival order.
    live: tuple[FlexOffer, ...]
    #: The grid grouping of the live population.
    groups: tuple[tuple[FlexOffer, ...], ...]
    #: One aggregate per group, named ``aggregate-<index>``.
    aggregates: tuple[AggregatedFlexOffer, ...]
    #: Set-wise flexibility of the live population under every measure.
    report: FlexibilitySetReport
    #: Event counters at snapshot time.
    stats: EngineStats
    #: Per-measure sliding-window statistics (empty without a tracker).
    window_summary: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of live flex-offers."""
        return len(self.live)


class StreamingEngine:
    """Event-driven maintenance of grouping, aggregation and measures.

    Parameters
    ----------
    parameters:
        Grid tolerances, shared verbatim with the batch ``group_by_grid``.
    measures:
        Measure keys / instances to maintain (defaults to every registered
        measure, like ``evaluate_set``).
    window_capacity:
        When positive, a :class:`WindowTracker` samples the population-level
        value of every configured measure on each :class:`Tick`, retaining
        this many samples per measure.
    tracked_measures:
        Optional subset of the configured measure keys the tracker should
        sample (defaults to all of them).  Tick-time sampling computes set
        values for the tracked measures only — fed from the live packed
        value columns, never from a full report rebuild.
    auto_expire:
        When ``True``, a :class:`Tick` at time ``t`` expires every live
        offer whose latest start precedes ``t`` (its start window has
        lapsed and it can no longer be scheduled).
    on_arrived, on_assigned, on_expired:
        Optional hooks called *after* the engine's own state change, with
        ``(offer_id, flex_offer, event)`` — the integration points for a
        scheduler re-planning on churn or a market session observing fills.
    backend:
        Backend selection (registered name or instance) for the engine's
        own bulk calls (:meth:`bulk_arrive`); ``None`` resolves the active
        backend per call, exactly as before.  Its
        :meth:`~repro.backend.dispatch.ComputeBackend.measure_window` hook
        also picks the tracker's sliding-window kernel: reference engines
        keep the scalar :class:`~repro.stream.window.MeasureWindow`, the
        NumPy and sharded tiers get the array
        :class:`~repro.stream.windowkernels.ArrayMeasureWindow`.  Both
        kernels are conformance-pinned to each other, so the choice never
        changes a statistic, only its cost.
    compact_threshold:
        Tombstone ratio at which the live matrix auto-compacts.
    """

    def __init__(
        self,
        parameters: GroupingParameters = GroupingParameters(),
        measures: Optional[Iterable[MeasureSpec]] = None,
        window_capacity: int = 0,
        auto_expire: bool = False,
        on_arrived: Optional[EngineHook] = None,
        on_assigned: Optional[EngineHook] = None,
        on_expired: Optional[EngineHook] = None,
        tracked_measures: Optional[Iterable[str]] = None,
        backend=None,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    ) -> None:
        self.parameters = parameters
        self._backend_spec = backend
        self._compact_threshold = compact_threshold
        self.measures: list[FlexibilityMeasure] = resolve_measures(measures)
        self.auto_expire = auto_expire
        self.on_arrived = on_arrived
        self.on_assigned = on_assigned
        self.on_expired = on_expired
        self.stats = EngineStats()
        self.time: Optional[int] = None
        measure_keys = [measure.key for measure in self.measures]
        if tracked_measures is None:
            tracked = measure_keys
        else:
            tracked = list(tracked_measures)
            unknown = sorted(set(tracked) - set(measure_keys))
            if unknown:
                raise StreamError(
                    f"tracked measures {unknown} are not configured; "
                    f"configured: {sorted(measure_keys)}"
                )
        self.tracker: Optional[WindowTracker] = (
            WindowTracker(
                tracked,
                window_capacity,
                window_factory=get_backend(backend).measure_window,
            )
            if window_capacity
            else None
        )
        #: The window kernel the backend picked (``None`` without a tracker).
        self.window_kernel: Optional[str] = (
            self.tracker.kernel if self.tracker is not None else None
        )
        self._index = OnlineGridIndex(parameters)
        self._aggregates: dict[CellKey, IncrementalAggregate] = {}
        #: offer id -> cached per-measure values (supported measures only).
        self._values: dict[str, dict[str, float]] = {}
        #: offer id -> measure keys that do not support the offer.
        self._unsupported: dict[str, tuple[str, ...]] = {}
        #: measure key -> number of live offers the measure does not support.
        self._unsupported_counts: dict[str, int] = {
            measure.key: 0 for measure in self.measures
        }
        #: (latest_start, offer_id) min-heap driving auto-expiry; entries for
        #: offers that already left are invalidated lazily.
        self._deadlines: list[tuple[int, str]] = []
        #: Incrementally maintained packed state (matrix + value columns);
        #: ``None`` without NumPy or after an unpackable offer arrived, in
        #: which case every read path falls back to the per-offer dicts.
        self._live = self._new_live()
        #: The memoised frozen snapshot :meth:`live_matrix` hands out;
        #: dropped on every population mutation.
        self._frozen = None

    def _new_live(self):
        """A fresh columnar live state, or ``None`` when NumPy is absent."""
        try:
            from .live import LivePopulation
        except ImportError:  # pragma: no cover - exercised only without numpy
            return None
        return LivePopulation(
            [measure.key for measure in self.measures],
            compact_threshold=self._compact_threshold,
        )

    # ------------------------------------------------------------------ #
    # Event consumption
    # ------------------------------------------------------------------ #
    def apply(self, event: StreamEvent) -> None:
        """Apply one event to the engine's state."""
        if isinstance(event, OfferArrived):
            self._apply_arrival(event)
        elif isinstance(event, OfferExpired):
            self._apply_expiry(event)
        elif isinstance(event, OfferAssigned):
            self._apply_assignment(event)
        elif isinstance(event, Tick):
            self._apply_tick(event)
        else:
            raise StreamError(f"unknown event type: {event!r}")
        self.stats.events += 1

    def replay(self, events: Iterable[StreamEvent]) -> "StreamingEngine":
        """Apply a whole event stream in order; returns ``self`` for chaining."""
        for event in events:
            self.apply(event)
        return self

    def bulk_arrive(
        self,
        arrivals: Iterable[Union[OfferArrived, tuple[str, FlexOffer]]],
    ) -> "StreamingEngine":
        """Ingest many arrivals at once, batching the measure evaluation.

        Per-offer measure values — the only O(measures × profile) work of an
        arrival — are computed for the whole batch through the active
        compute backend (one vectorized pass under the NumPy backend) before
        the offers are inserted one by one, so the resulting engine state is
        exactly what the same arrivals applied individually would produce.
        The batch is all-or-nothing: an id that is already live, or repeats
        within the batch, raises :class:`StreamError` before anything is
        evaluated or mutated.  Accepts :class:`OfferArrived` events or
        ``(offer_id, flex_offer)`` pairs; returns ``self`` for chaining.
        """
        events = [
            arrival
            if isinstance(arrival, OfferArrived)
            else OfferArrived(arrival[0], arrival[1])
            for arrival in arrivals
        ]
        seen: set[str] = set()
        for event in events:
            if event.offer_id in self._index or event.offer_id in seen:
                raise StreamError(
                    f"offer {event.offer_id!r} is already in the index"
                )
            seen.add(event.offer_id)
        batched = get_backend(self._backend_spec).per_offer_values(
            self.measures, [event.flex_offer for event in events]
        )
        for event, cached in zip(events, batched):
            self._apply_arrival(event, cached=cached)
            self.stats.events += 1
        return self

    # ------------------------------------------------------------------ #
    # State export / restore (the persistence layer's engine hooks)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """A JSON-ready dictionary of the engine's full mutable state.

        The inverse of :meth:`restore_state` — the body of a
        :mod:`repro.persist` snapshot.  It carries the live offers in
        arrival order *with their cached per-measure values*, so a restore
        skips the O(measures × profile) arrival evaluation entirely (the
        cost that dominates a full replay), plus the event counters, the
        stream clock and the window tracker's retained samples.
        Configuration (grouping, measures, window capacity, auto-expiry) is
        deliberately **not** included: a restored engine must be built with
        the same parameters, which the service layer guarantees by
        persisting its :class:`~repro.service.SessionConfig` alongside.
        """
        from ..io.serialization import flexoffer_to_dict, float_to_wire

        live = [
            {
                "id": offer_id,
                "offer": flexoffer_to_dict(self._index.get(offer_id)),
                "values": {
                    key: float_to_wire(value)
                    for key, value in self._values[offer_id].items()
                },
            }
            for offer_id in self._index
        ]
        windows = {}
        if self.tracker is not None:
            windows = {
                key: [
                    [time, float_to_wire(value)]
                    for time, value in self.tracker.window(key).samples()
                ]
                for key in self.tracker.measure_keys
            }
        return {
            "time": self.time,
            "stats": {
                key: float_to_wire(value)
                for key, value in self.stats.as_dict().items()
            },
            "live": live,
            "windows": windows,
        }

    def restore_state(self, payload: dict) -> "StreamingEngine":
        """Load :meth:`export_state` output into this (pristine) engine.

        The live offers re-enter through the ordinary arrival path with
        their persisted measure values — rebuilding the grid index, the
        incremental aggregates, the live matrix, the value columns and the
        auto-expiry deadlines without re-evaluating a single measure — and
        the counters, the clock and the window samples are then restored
        verbatim.  Hooks do not fire for restored arrivals (they already
        fired in the process that exported the state).  Raises
        :class:`StreamError` when the engine has already processed events
        or the payload names measures this engine is not configured with
        (config drift between export and restore must be loud, never a
        silently different report).
        """
        from ..io.serialization import flexoffer_from_dict, float_from_wire

        if self.stats.events or len(self._index):
            raise StreamError(
                "restore_state needs a pristine engine "
                f"(this one has processed {self.stats.events} events)"
            )
        configured = {measure.key for measure in self.measures}
        arrival_hook = self.on_arrived
        self.on_arrived = None
        try:
            for entry in payload.get("live", ()):
                values = {
                    key: float_from_wire(value)
                    for key, value in entry["values"].items()
                }
                unknown = sorted(set(values) - configured)
                if unknown:
                    raise StreamError(
                        f"persisted values for unconfigured measures {unknown}; "
                        f"configured: {sorted(configured)}"
                    )
                self._apply_arrival(
                    OfferArrived(
                        entry["id"], flexoffer_from_dict(entry["offer"])
                    ),
                    cached=values,
                )
        finally:
            self.on_arrived = arrival_hook
        self.stats = EngineStats(
            **{
                key: float_from_wire(value)
                for key, value in payload["stats"].items()
            }
        )
        self.time = payload["time"]
        windows = payload.get("windows") or {}
        if windows and self.tracker is None:
            raise StreamError(
                "persisted window samples but no tracker is configured"
            )
        if self.tracker is not None:
            unknown = sorted(set(windows) - set(self.tracker.measure_keys))
            if unknown:
                raise StreamError(
                    f"persisted windows for untracked measures {unknown}"
                )
            for key, samples in windows.items():
                window = self.tracker.window(key)
                for sample_time, value in samples:
                    window.record(sample_time, float_from_wire(value))
        return self

    def _apply_arrival(
        self,
        event: OfferArrived,
        cached: Optional[dict[str, float]] = None,
    ) -> None:
        flex_offer = event.flex_offer
        cell = self._index.insert(event.offer_id, flex_offer)
        self._frozen = None
        aggregate = self._aggregates.get(cell)
        if aggregate is None:
            aggregate = self._aggregates[cell] = IncrementalAggregate()
        aggregate.add(event.offer_id, flex_offer)
        if cached is None:
            cached = {
                measure.key: measure.value(flex_offer)
                for measure in self.measures
                if measure.supports(flex_offer)
            }
        unsupported = tuple(
            measure.key for measure in self.measures if measure.key not in cached
        )
        for key in unsupported:
            self._unsupported_counts[key] += 1
        self._values[event.offer_id] = cached
        self._unsupported[event.offer_id] = unsupported
        if self._live is not None:
            try:
                self._live.append(event.offer_id, flex_offer, cached)
            except OverflowError:
                # Unpackable magnitudes: drop the columnar fast path and
                # serve everything from the per-offer dicts from here on.
                self._live = None
        if self.auto_expire:
            heapq.heappush(
                self._deadlines, (flex_offer.latest_start, event.offer_id)
            )
        self.stats.arrived += 1
        if self.on_arrived is not None:
            self.on_arrived(event.offer_id, flex_offer, event)

    def _evict(self, offer_id: str) -> FlexOffer:
        """Shared removal path of expiry and assignment."""
        cell, flex_offer = self._index.evict(offer_id)
        self._frozen = None
        aggregate = self._aggregates[cell]
        aggregate.remove(offer_id)
        if not len(aggregate):
            del self._aggregates[cell]
        del self._values[offer_id]
        for key in self._unsupported.pop(offer_id):
            self._unsupported_counts[key] -= 1
        if self._live is not None:
            self._live.remove(offer_id)
        elif not len(self._index):
            # The population emptied while degraded: re-arm the packed
            # fast path for whatever arrives next.
            self._live = self._new_live()
        return flex_offer

    def _apply_expiry(self, event: OfferExpired) -> None:
        flex_offer = self._evict(event.offer_id)
        self.stats.expired += 1
        if self.on_expired is not None:
            self.on_expired(event.offer_id, flex_offer, event)

    def _apply_assignment(self, event: OfferAssigned) -> None:
        flex_offer = self._evict(event.offer_id)
        self.stats.assigned += 1
        if event.price is not None:
            self.stats.revenue += event.price
        if self.on_assigned is not None:
            self.on_assigned(event.offer_id, flex_offer, event)

    def _apply_tick(self, event: Tick) -> None:
        if self.time is not None and event.time < self.time:
            raise StreamError(
                f"time must be non-decreasing: tick {event.time} after {self.time}"
            )
        self.time = event.time
        self.stats.ticks += 1
        if self.auto_expire:
            self._expire_lapsed(event)
        if self.tracker is not None:
            self.tracker.sample(event.time, self._sample_values())

    def _expire_lapsed(self, event: Tick) -> None:
        """Expire every live offer whose start window lapsed before ``event.time``."""
        while self._deadlines and self._deadlines[0][0] < event.time:
            deadline, offer_id = heapq.heappop(self._deadlines)
            if offer_id not in self._index:
                continue  # already assigned or explicitly expired
            if self._index.get(offer_id).latest_start != deadline:
                continue  # stale entry: the id was reused by a later arrival
            flex_offer = self._evict(offer_id)
            self.stats.expired += 1
            if self.on_expired is not None:
                self.on_expired(offer_id, flex_offer, event)

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of live flex-offers."""
        return len(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, offer_id: str) -> bool:
        return offer_id in self._index

    def live_ids(self) -> list[str]:
        """Ids of the live offers, in arrival order."""
        return list(self._index)

    def live_offers(self) -> list[FlexOffer]:
        """The surviving flex-offers in arrival order.

        This is exactly the population the batch pipeline would be run on —
        the equivalence tests feed it straight into ``group_by_grid`` /
        ``evaluate_set``.
        """
        return [self._index.get(offer_id) for offer_id in self._index]

    def groups(self) -> list[list[FlexOffer]]:
        """The grid grouping of the live population (``group_by_grid`` shape).

        The same groups :meth:`snapshot` reports, exposed directly so
        callers (the service façade's aggregate requests) need not pay for
        a full snapshot's report.
        """
        return [list(group) for group in self._index.groups()]

    def _measure_values_list(self, measure: FlexibilityMeasure) -> list:
        """Per-offer values of one (fully supported) measure, arrival order.

        The fast path gathers the measure's packed value column from the
        live state — no per-offer dictionary lookups; the fallback (NumPy
        missing, an unpackable offer, or a column whose float64 image could
        diverge from the Python values) rebuilds the list from the arrival
        caches.  Both produce the same values in the same order, so the
        downstream ``combine_values`` result is identical either way.
        """
        if self._live is not None:
            folded = self._live.fold(measure.key)
            if folded is not None:
                return folded
        return [
            self._values[offer_id][measure.key] for offer_id in self._index
        ]

    def _combined_values(
        self, keys: Optional[set] = None
    ) -> tuple[dict[str, float], list[str]]:
        """``(values, skipped)`` of the live population, batch-identical.

        Per-offer values were cached on arrival; only the O(population)
        combination step runs here, in arrival order, so the result equals
        ``evaluate_set(self.live_offers(), self.measures)`` exactly.  All
        eligible measures fold in **one bulk pass** over the packed value
        columns (:meth:`~repro.stream.live.LivePopulation.combined_values`
        — one alive-mask gather, one ``cumsum`` per column); measures the
        bulk pass cannot serve exactly fall back to the per-measure scalar
        fold, so the floats never depend on which path ran.  ``keys``
        restricts the computation to a subset of the configured measures
        (tick sampling computes the tracked measures only).
        """
        values: dict[str, float] = {}
        skipped: list[str] = []
        pending: list[FlexibilityMeasure] = []
        for measure in self.measures:
            if keys is not None and measure.key not in keys:
                continue
            if self._unsupported_counts[measure.key]:
                skipped.append(measure.key)
                continue
            pending.append(measure)
        bulk = self._live.combined_values(pending) if self._live else {}
        for measure in pending:
            if measure.key in bulk:
                values[measure.key] = bulk[measure.key]
            else:
                values[measure.key] = measure.combine_values(
                    self._measure_values_list(measure)
                )
        return values, skipped

    def _population_values(self) -> tuple[dict[str, float], list[str]]:
        """``(values, skipped)`` for the full report (every measure)."""
        return self._combined_values()

    def _sample_values(self) -> dict[str, float]:
        """Set values of the *tracked* measures only (tick sampling).

        Computes just what the tracker retains, straight from the packed
        value columns — never the full report dictionary.  Measures that do
        not support the whole population are omitted, exactly as the
        tracker would have skipped them out of a report.
        """
        assert self.tracker is not None
        values, _ = self._combined_values(set(self.tracker.measure_keys))
        return values

    def report(self) -> FlexibilitySetReport:
        """Set-wise flexibility of the live population under every measure."""
        values, skipped = self._population_values()
        return FlexibilitySetReport(self.size, values, tuple(skipped))

    def live_matrix(self):
        """The packed matrix of the live population, as a frozen snapshot.

        Returns the incrementally maintained
        :class:`~repro.backend.matrix.ProfileMatrix` compacted and frozen —
        bit-identical to a fresh pack of :meth:`live_offers` — memoised
        until the next population mutation.  Returns ``None`` when the
        packed fast path is unavailable (NumPy missing or an unpackable
        offer arrived).
        """
        if self._live is None:
            return None
        if self._frozen is None:
            self._frozen = self._live.population_matrix().snapshot()
        return self._frozen

    def aggregates(self, prefix: str = "aggregate") -> list[AggregatedFlexOffer]:
        """One aggregate per live group, equal to the batch ``aggregate_all``.

        Groups that cover a whole grid cell are materialised from their
        incrementally maintained :class:`IncrementalAggregate`; chunks of an
        oversized cell are aggregated through the batch path (chunk
        boundaries shift on every eviction, so there is no incremental
        state worth keeping for them).  The chunking itself lives solely in
        :meth:`OnlineGridIndex.group_items`, shared with :meth:`snapshot`.
        """
        aggregates: list[AggregatedFlexOffer] = []
        for index, items in enumerate(self._index.group_items()):
            first_id = items[0][0]
            cell_aggregate = self._aggregates[self._index.cell_of(first_id)]
            if len(items) == len(cell_aggregate):
                aggregates.append(cell_aggregate.aggregated(name=f"{prefix}-{index}"))
            else:
                aggregates.append(
                    aggregate_start_aligned(
                        [flex_offer for _, flex_offer in items],
                        name=f"{prefix}-{index}",
                    )
                )
        return aggregates

    def snapshot(self, prefix: str = "aggregate") -> EngineSnapshot:
        """A consistent batch-equivalent view of the current state."""
        groups = tuple(tuple(group) for group in self._index.groups())
        return EngineSnapshot(
            time=self.time,
            live=tuple(self.live_offers()),
            groups=groups,
            aggregates=tuple(self.aggregates(prefix)),
            report=self.report(),
            stats=EngineStats(**self.stats.as_dict()),
            window_summary=self.tracker.summary() if self.tracker else {},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingEngine({self.size} live, {self._index.cell_count} cells, "
            f"{self.stats.events} events)"
        )
