"""Typed, frozen response objects of the service API.

Every :class:`~repro.service.FlexSession` request returns a ``*Result``
carrying the domain payload plus a :class:`RequestStats` block — wall-clock
duration, the backend that served the request, and the session cache's
hit/miss delta — so a service operator can read provenance and cost off
every response instead of instrumenting the internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..aggregation.base import AggregatedFlexOffer
from ..core.flexoffer import FlexOffer
from ..market.trading import Bid
from ..measures.setwise import FlexibilitySetReport
from ..scheduling.base import Schedule

__all__ = [
    "RequestStats",
    "EvaluateResult",
    "AggregateResult",
    "ScheduleResult",
    "TradeResult",
    "StreamResult",
]


@dataclass(frozen=True)
class RequestStats:
    """Provenance and cost of one served request.

    Attributes
    ----------
    kind:
        Request kind (``evaluate`` / ``aggregate`` / ``schedule`` /
        ``trade`` / ``stream``).
    backend:
        Name of the compute backend that served the request.
    duration_s:
        Wall-clock seconds spent inside the session serving it, including
        its set-up (the scheduler, objective or market it builds) and its
        reads of the live population.
    population:
        Number of flex-offers the request operated on.
    cache_hits, cache_misses:
        The session matrix cache's hit/miss delta during the request — a
        repeated explicit population shows up as hits here, a cold one as
        misses; a live-population evaluate is answered by the engine and
        shows neither.
    """

    kind: str
    backend: str
    duration_s: float
    population: int
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class EvaluateResult:
    """Response of an :class:`~repro.service.EvaluateRequest`."""

    report: FlexibilitySetReport
    stats: RequestStats

    @property
    def values(self) -> dict[str, float]:
        """``{measure_key: set_value}`` shorthand into the report."""
        return self.report.values


@dataclass(frozen=True)
class AggregateResult:
    """Response of an :class:`~repro.service.AggregateRequest`."""

    groups: tuple[tuple[FlexOffer, ...], ...]
    aggregates: tuple[AggregatedFlexOffer, ...]
    stats: RequestStats

    @property
    def compression(self) -> float:
        """Members per aggregate (1.0 when nothing aggregated)."""
        if not self.aggregates:
            return 1.0
        members = sum(aggregate.size for aggregate in self.aggregates)
        return members / len(self.aggregates)


@dataclass(frozen=True)
class ScheduleResult:
    """Response of a :class:`~repro.service.ScheduleRequest`."""

    schedule: Schedule
    objective_value: float
    scheduler: str
    stats: RequestStats


@dataclass(frozen=True)
class TradeResult:
    """Response of a :class:`~repro.service.TradeRequest`."""

    accepted: tuple[Bid, ...]
    rejected: tuple[Bid, ...]
    revenue: float
    stats: RequestStats


@dataclass(frozen=True)
class StreamResult:
    """Response of a :class:`~repro.service.StreamRequest`."""

    applied: int
    live: int
    time: Optional[int]
    stats: RequestStats
    engine_stats: dict[str, float] = field(default_factory=dict)
