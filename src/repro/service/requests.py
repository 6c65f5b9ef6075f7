"""Typed request objects of the service API.

Each request names one unit of work a :class:`~repro.service.FlexSession`
can serve — measure evaluation, aggregation, scheduling, market clearing,
stream ingestion — as a frozen value object, so requests can be logged,
serialised over :mod:`repro.io` and replayed byte-for-byte.  A request
never carries session state: the session supplies the live population, the
backend and the cache; the request only says *what* to do with them.

``offers``/``lots`` left at ``None`` mean "the session's live population"
— the common service shape, where the population streamed in through
:class:`StreamRequest` and every later request reuses the live packed
matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional, Union

from ..aggregation.base import AggregatedFlexOffer
from ..core.flexoffer import FlexOffer
from ..core.timeseries import TimeSeries
from ..stream.events import StreamEvent
from .config import ServiceError

__all__ = [
    "EvaluateRequest",
    "AggregateRequest",
    "ScheduleRequest",
    "TradeRequest",
    "StreamRequest",
    "Request",
]


def _offers_tuple(value, name: str):
    """Normalise an optional offer iterable to a tuple (or ``None``)."""
    if value is None or isinstance(value, tuple):
        return value
    if isinstance(value, Iterable):
        return tuple(value)
    raise ServiceError(f"{name} must be an iterable of flex-offers, got {value!r}")


@dataclass(frozen=True)
class EvaluateRequest:
    """Evaluate set-wise flexibility measures.

    Parameters
    ----------
    measures:
        Measure keys to evaluate; ``None`` uses the session's configured
        measures.
    offers:
        Explicit population; ``None`` evaluates the session's live
        population (from the engine's maintained report).
    skip_unsupported:
        Exactly :func:`repro.measures.evaluate_set`'s semantics.
    """

    measures: Optional[tuple[str, ...]] = None
    offers: Optional[tuple[FlexOffer, ...]] = None
    skip_unsupported: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "offers", _offers_tuple(self.offers, "offers"))
        if self.measures is not None and not isinstance(self.measures, tuple):
            object.__setattr__(self, "measures", tuple(self.measures))


@dataclass(frozen=True)
class AggregateRequest:
    """Group and aggregate a population on the session's grouping grid.

    ``offers=None`` aggregates the live population through the engine's
    incrementally maintained aggregates; an explicit population runs the
    batch pipeline under the session backend.
    """

    offers: Optional[tuple[FlexOffer, ...]] = None
    prefix: str = "aggregate"

    def __post_init__(self) -> None:
        object.__setattr__(self, "offers", _offers_tuple(self.offers, "offers"))


@dataclass(frozen=True)
class ScheduleRequest:
    """Schedule a population with one of the library's schedulers.

    Parameters
    ----------
    scheduler:
        ``"earliest"``, ``"greedy"``, ``"hill-climbing"`` or
        ``"evolutionary"``.
    offers:
        Explicit population; ``None`` schedules the live population.
    reference:
        Supply profile to track (overrides the objective's own reference).
    metric:
        Imbalance metric, ``"absolute"`` or ``"squared"``.
    options:
        Extra keyword arguments for the scheduler's constructor
        (``iterations=...``, ``population_size=...``, ...).  Seeded
        schedulers default their ``seed`` to the session's configured seed
        unless one is given here.
    """

    scheduler: str = "greedy"
    offers: Optional[tuple[FlexOffer, ...]] = None
    reference: Optional[TimeSeries] = None
    metric: str = "absolute"
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "offers", _offers_tuple(self.offers, "offers"))
        if self.metric not in ("absolute", "squared"):
            raise ServiceError(f"unknown imbalance metric {self.metric!r}")
        if not isinstance(self.options, MappingProxyType):
            object.__setattr__(
                self, "options", MappingProxyType(dict(self.options))
            )


@dataclass(frozen=True)
class TradeRequest:
    """Price and clear a book of lots in one market session.

    ``lots=None`` offers the session's live aggregates (the Aggregator
    shape: aggregate the book, then sell the lots).  Pricing parameters
    mirror :class:`repro.market.FlexibilityPricer`.
    """

    lots: Optional[tuple[Union[FlexOffer, AggregatedFlexOffer], ...]] = None
    measure: str = "vector"
    energy_price: float = 30.0
    premium_per_unit: float = 2.0
    budget: float = float("inf")

    def __post_init__(self) -> None:
        object.__setattr__(self, "lots", _offers_tuple(self.lots, "lots"))


@dataclass(frozen=True)
class StreamRequest:
    """Apply a batch of stream events to the session's engine.

    With ``bulk=True`` and an all-arrival batch, the arrivals are ingested
    through :meth:`~repro.stream.StreamingEngine.bulk_arrive` (one
    vectorized measure pass, all-or-nothing, and one WAL record on a
    durable session); any other event mix is applied in order, one event
    at a time — identical final state either way.
    """

    events: tuple[StreamEvent, ...] = ()
    bulk: bool = False

    def __post_init__(self) -> None:
        events = self.events
        if not isinstance(events, tuple):
            events = tuple(events)
            object.__setattr__(self, "events", events)
        for event in events:
            if not isinstance(event, StreamEvent):
                raise ServiceError(f"not a stream event: {event!r}")


#: Any request the session can serve (the :meth:`FlexSession.submit` union).
Request = Union[
    EvaluateRequest, AggregateRequest, ScheduleRequest, TradeRequest, StreamRequest
]
