"""``repro.stream`` — the streaming flexibility engine.

The rest of the library is batch-oriented: ``group_by_grid`` partitions a
static population, ``aggregate_start_aligned`` builds each aggregate from
scratch, and ``evaluate_set`` re-evaluates every measure on every call.
Real flex-offer traffic is a *stream* — offers arrive from prosumer devices,
lapse unused, or get committed by schedulers and market clearings — and
recomputing the batch pipeline per event costs O(population) work for an
O(1)-sized change.  This subsystem maintains the same state incrementally:

``events``
    The typed event model (:class:`OfferArrived`, :class:`OfferExpired`,
    :class:`OfferAssigned`, :class:`Tick`) and the append-only
    :class:`EventLog` with monotonic sequence numbers.
``grouping``
    :class:`OnlineGridIndex` — the live population bucketed on the same
    ``(tes, tf)`` grid the batch grouping uses, O(1) per insert/evict.
``aggregate``
    :class:`IncrementalAggregate` — a start-aligned aggregate maintained
    under member add/remove via sparse column sums and lazily repaired
    running extremes.
``window``
    :class:`RingBuffer`, :class:`MeasureWindow`, :class:`WindowTracker` —
    sliding-window statistics (total / mean / min / max / percentile) of
    population level measure values sampled on every tick; the sliding
    extremes are O(1) amortised through monotonic deques, on every host.
``engine``
    :class:`StreamingEngine` — the orchestrator consuming events and
    exposing batch-equivalent snapshots (:class:`EngineSnapshot`).
``replay``
    Adapters turning existing populations, scenarios and market sessions
    into event streams (:func:`population_events`, :func:`churn_events`,
    :func:`market_events`).

The load-bearing invariant, enforced by the unit and property tests: after
*any* event stream, ``engine.snapshot()`` equals the batch
``group_by_grid`` → ``aggregate_all`` → ``evaluate_set`` pipeline applied to
the surviving offers in arrival order.  The streaming path is a cache of the
batch path, never a reinterpretation of it.

>>> from repro.stream import StreamingEngine, population_events
>>> from repro.workloads import neighbourhood_scenario
>>> scenario = neighbourhood_scenario(households=4, seed=7, horizon=32)
>>> engine = StreamingEngine().replay(population_events(scenario.flex_offers))
>>> snapshot = engine.snapshot()
>>> snapshot.size == scenario.size
True
"""

from .aggregate import IncrementalAggregate
from .engine import EngineSnapshot, EngineStats, StreamingEngine
from .events import (
    EventLog,
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamError,
    StreamEvent,
    Tick,
)
from .grouping import OnlineGridIndex
from .replay import (
    churn_events,
    market_events,
    offer_identifier,
    population_events,
)
from .window import MeasureWindow, RingBuffer, WindowTracker


__all__ = [
    # events
    "StreamError",
    "StreamEvent",
    "OfferArrived",
    "OfferExpired",
    "OfferAssigned",
    "Tick",
    "EventLog",
    # incremental state
    "OnlineGridIndex",
    "IncrementalAggregate",
    # windows
    "RingBuffer",
    "MeasureWindow",
    "WindowTracker",
    # engine
    "StreamingEngine",
    "EngineSnapshot",
    "EngineStats",
    # replay adapters
    "offer_identifier",
    "population_events",
    "churn_events",
    "market_events",
]
