"""JSON (de)serialisation of flex-offers, assignments and schedules.

Flex-offers are exchanged between prosumers, Aggregators and BRPs (Scenario 2
of the paper), so the library needs a stable wire format.  The format is
deliberately plain JSON — a dictionary per flex-offer with the paper's field
names — so that other tools can produce and consume it without this library.

PR 5 extends the format to the service layer: stream events, every
:mod:`repro.service` request and every ``*Result`` round-trip through
tagged dictionaries (``{"kind": ..., ...}``), so a remote client can POST
a request body at a :class:`~repro.service.FlexSession` host and log the
typed responses.

Numeric fields are *strict JSON*: non-finite floats are encoded as the
string sentinels ``"inf"`` / ``"-inf"`` / ``"nan"``
(:func:`float_to_wire` / :func:`float_from_wire`), and every dump in this
module passes ``allow_nan=False`` — the payloads double as the write-ahead
log records of :mod:`repro.persist`, so an unparseable document would not
just break a client, it would break recovery.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from typing import Any

from ..aggregation.base import AggregatedFlexOffer
from ..core.assignment import Assignment
from ..core.errors import SerializationError
from ..core.flexoffer import FlexOffer
from ..core.timeseries import TimeSeries
from ..scheduling.base import Schedule
from ..stream.events import (
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamError,
    Tick,
)

__all__ = [
    "float_to_wire",
    "float_from_wire",
    "wire_safe",
    "flexoffer_to_dict",
    "flexoffer_from_dict",
    "flexoffers_to_json",
    "flexoffers_from_json",
    "assignment_to_dict",
    "assignment_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "timeseries_to_dict",
    "timeseries_from_dict",
    "event_to_dict",
    "event_from_dict",
    "request_to_dict",
    "request_from_dict",
    "result_to_dict",
    "result_from_dict",
    "result_envelope",
    "payload_json",
    "error_to_dict",
    "error_from_dict",
]


def float_to_wire(value: Any) -> Any:
    """Encode one numeric field for the wire.

    Finite numbers (and non-floats) pass through untouched — an ``int``
    stays an ``int``, so exactness bookkeeping survives a round trip.
    Non-finite floats become the string sentinels ``"inf"`` / ``"-inf"`` /
    ``"nan"`` (the spelling :class:`float` itself parses), mirroring the
    budget convention the trade request has always used: ``json.dumps``
    with ``allow_nan=True`` would emit ``Infinity``/``NaN``, which is not
    JSON and which strict parsers (and any non-Python gateway client)
    reject.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def float_from_wire(value: Any) -> Any:
    """Decode one numeric field: the inverse of :func:`float_to_wire`.

    Sentinel strings parse back into non-finite floats; numbers pass
    through unchanged (an ``int`` stays an ``int``).  Raises
    :class:`SerializationError` on a non-numeric string.
    """
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError as error:
            raise SerializationError(
                f"not a numeric wire value: {value!r}"
            ) from error
    return value


def wire_safe(payload: Any) -> Any:
    """A deep copy of ``payload`` with non-finite floats sentinel-encoded.

    The safety net for free-form JSON documents (gateway health blocks,
    session stats) that embed library-computed floats: every ``float`` at
    any nesting depth goes through :func:`float_to_wire`, so the result
    always survives ``json.dumps(..., allow_nan=False)``.  Typed payloads
    built by the ``*_to_dict`` serialisers already encode their numeric
    fields and do not need this pass: the gateway's ``Response.encode``
    serialises every payload directly and falls back to this copy only
    when strict encoding refuses a non-finite float (see
    :func:`payload_json`).
    """
    if isinstance(payload, float):
        return float_to_wire(payload)
    if isinstance(payload, dict):
        return {key: wire_safe(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [wire_safe(item) for item in payload]
    return payload


def flexoffer_to_dict(flex_offer: FlexOffer) -> dict[str, Any]:
    """A JSON-ready dictionary for one flex-offer."""
    return {
        "name": flex_offer.name,
        "earliest_start": flex_offer.earliest_start,
        "latest_start": flex_offer.latest_start,
        "slices": [[s.amin, s.amax] for s in flex_offer.slices],
        "total_energy_min": flex_offer.cmin,
        "total_energy_max": flex_offer.cmax,
    }


def _flexoffer_json(flex_offer: FlexOffer) -> str:
    """``json.dumps(flexoffer_to_dict(flex_offer))``, computed once per offer.

    Cached on the frozen instance, the way :attr:`FlexOffer.fingerprint`
    is: the offer never changes, so neither does its text.  The cache is a
    ``str``, which the cyclic garbage collector does not track.
    """
    text = flex_offer.__dict__.get("_wire_json")
    if text is None:
        text = json.dumps(flexoffer_to_dict(flex_offer), allow_nan=False)
        object.__setattr__(flex_offer, "_wire_json", text)
    return text


def _flexoffer_texts(flex_offers: Iterable[FlexOffer]) -> list[str]:
    """:func:`_flexoffer_json` of every offer, with the cache read inline
    (the call per offer is most of the cost on a cached population)."""
    return [
        flex_offer.__dict__.get("_wire_json") or _flexoffer_json(flex_offer)
        for flex_offer in flex_offers
    ]


def flexoffer_from_dict(payload: dict[str, Any]) -> FlexOffer:
    """Rebuild a flex-offer from its dictionary form.

    Raises :class:`SerializationError` with the offending field on malformed
    input.
    """
    try:
        return FlexOffer(
            payload["earliest_start"],
            payload["latest_start"],
            [tuple(item) for item in payload["slices"]],
            payload.get("total_energy_min"),
            payload.get("total_energy_max"),
            payload.get("name"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed flex-offer payload: {error}") from error


def flexoffers_to_json(flex_offers: Iterable[FlexOffer], indent: int = 2) -> str:
    """Serialise many flex-offers into a JSON array string."""
    return json.dumps(
        [flexoffer_to_dict(f) for f in flex_offers],
        indent=indent,
        allow_nan=False,
    )


def flexoffers_from_json(text: str) -> list[FlexOffer]:
    """Parse a JSON array of flex-offers."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    if not isinstance(payload, list):
        raise SerializationError("expected a JSON array of flex-offers")
    return [flexoffer_from_dict(item) for item in payload]


def timeseries_to_dict(series: TimeSeries) -> dict[str, Any]:
    """A JSON-ready dictionary for a time series."""
    return {
        "start": series.start,
        "values": [float_to_wire(value) for value in series.values],
    }


def timeseries_from_dict(payload: dict[str, Any]) -> TimeSeries:
    """Rebuild a time series from its dictionary form."""
    try:
        return TimeSeries(
            payload["start"],
            tuple(float_from_wire(value) for value in payload["values"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed time-series payload: {error}") from error


def assignment_to_dict(assignment: Assignment) -> dict[str, Any]:
    """A JSON-ready dictionary for one assignment (embeds its flex-offer)."""
    return {
        "flex_offer": flexoffer_to_dict(assignment.flex_offer),
        "start_time": assignment.start_time,
        "values": [float_to_wire(value) for value in assignment.values],
    }


def assignment_from_dict(payload: dict[str, Any]) -> Assignment:
    """Rebuild an assignment (and its flex-offer) from its dictionary form."""
    try:
        flex_offer = flexoffer_from_dict(payload["flex_offer"])
        return Assignment(
            flex_offer,
            payload["start_time"],
            tuple(float_from_wire(value) for value in payload["values"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed assignment payload: {error}") from error


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """A JSON-ready dictionary for a schedule."""
    return {"assignments": [assignment_to_dict(a) for a in schedule.assignments]}


def schedule_from_dict(payload: dict[str, Any]) -> Schedule:
    """Rebuild a schedule from its dictionary form."""
    try:
        assignments = tuple(
            assignment_from_dict(item) for item in payload["assignments"]
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed schedule payload: {error}") from error
    return Schedule(assignments)


# --------------------------------------------------------------------- #
# Stream events
# --------------------------------------------------------------------- #


def event_to_dict(event) -> dict[str, Any]:
    """A JSON-ready, kind-tagged dictionary for one stream event."""
    if isinstance(event, OfferArrived):
        return {
            "kind": "arrived",
            "offer_id": event.offer_id,
            "flex_offer": flexoffer_to_dict(event.flex_offer),
        }
    if isinstance(event, OfferExpired):
        return {"kind": "expired", "offer_id": event.offer_id}
    if isinstance(event, OfferAssigned):
        return {
            "kind": "assigned",
            "offer_id": event.offer_id,
            "start_time": event.start_time,
            "price": float_to_wire(event.price),
        }
    if isinstance(event, Tick):
        return {"kind": "tick", "time": event.time}
    raise SerializationError(f"not a serialisable stream event: {event!r}")


def event_from_dict(payload: dict[str, Any]):
    """Rebuild a stream event from its kind-tagged dictionary form."""
    try:
        kind = payload["kind"]
        if kind == "arrived":
            return OfferArrived(
                payload["offer_id"], flexoffer_from_dict(payload["flex_offer"])
            )
        if kind == "expired":
            return OfferExpired(payload["offer_id"])
        if kind == "assigned":
            return OfferAssigned(
                payload["offer_id"],
                start_time=payload.get("start_time"),
                price=float_from_wire(payload.get("price")),
            )
        if kind == "tick":
            return Tick(payload["time"])
    except (KeyError, TypeError, ValueError, StreamError) as error:
        raise SerializationError(f"malformed event payload: {error}") from error
    raise SerializationError(f"unknown event kind {payload.get('kind')!r}")


# --------------------------------------------------------------------- #
# Service requests
# --------------------------------------------------------------------- #


def _lot_to_dict(lot) -> dict[str, Any]:
    """One tradable lot: a plain flex-offer or an aggregate with members."""
    if isinstance(lot, AggregatedFlexOffer):
        return {
            "flex_offer": flexoffer_to_dict(lot.flex_offer),
            "members": [flexoffer_to_dict(member) for member in lot.members],
            "member_offsets": list(lot.member_offsets),
        }
    return flexoffer_to_dict(lot)


def _lot_from_dict(payload: dict[str, Any]):
    if "members" in payload:
        try:
            return AggregatedFlexOffer(
                flexoffer_from_dict(payload["flex_offer"]),
                tuple(flexoffer_from_dict(item) for item in payload["members"]),
                tuple(int(offset) for offset in payload["member_offsets"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"malformed aggregate payload: {error}"
            ) from error
    return flexoffer_from_dict(payload)


def _optional_offers(offers) -> Any:
    return (
        None
        if offers is None
        else [flexoffer_to_dict(flex_offer) for flex_offer in offers]
    )


def request_to_dict(request) -> dict[str, Any]:
    """A JSON-ready, kind-tagged dictionary for any service request.

    ``ScheduleRequest.options`` must hold JSON-compatible values (the
    scheduler constructor knobs all are); an ``objective`` option —
    an in-process object — is rejected.
    """
    from ..service.requests import (
        AggregateRequest,
        EvaluateRequest,
        ScheduleRequest,
        StreamRequest,
        TradeRequest,
    )

    if isinstance(request, EvaluateRequest):
        return {
            "kind": "evaluate",
            "measures": None if request.measures is None else list(request.measures),
            "offers": _optional_offers(request.offers),
            "skip_unsupported": request.skip_unsupported,
        }
    if isinstance(request, AggregateRequest):
        return {
            "kind": "aggregate",
            "offers": _optional_offers(request.offers),
            "prefix": request.prefix,
        }
    if isinstance(request, ScheduleRequest):
        options = dict(request.options)
        if "objective" in options:
            raise SerializationError(
                "an in-process objective option cannot be serialised; "
                "use the request's metric/reference fields"
            )
        return {
            "kind": "schedule",
            "scheduler": request.scheduler,
            "offers": _optional_offers(request.offers),
            "reference": (
                None
                if request.reference is None
                else timeseries_to_dict(request.reference)
            ),
            "metric": request.metric,
            "options": options,
        }
    if isinstance(request, TradeRequest):
        return {
            "kind": "trade",
            "lots": (
                None
                if request.lots is None
                else [_lot_to_dict(lot) for lot in request.lots]
            ),
            "measure": request.measure,
            "energy_price": float_to_wire(request.energy_price),
            "premium_per_unit": float_to_wire(request.premium_per_unit),
            "budget": float_to_wire(request.budget),
        }
    if isinstance(request, StreamRequest):
        return {
            "kind": "stream",
            "events": [event_to_dict(event) for event in request.events],
            "bulk": request.bulk,
        }
    raise SerializationError(f"not a serialisable service request: {request!r}")


def request_from_dict(payload: dict[str, Any]):
    """Rebuild a service request from :func:`request_to_dict` output."""
    from ..service.requests import (
        AggregateRequest,
        EvaluateRequest,
        ScheduleRequest,
        StreamRequest,
        TradeRequest,
    )

    def offers(key: str):
        value = payload.get(key)
        if value is None:
            return None
        return tuple(flexoffer_from_dict(item) for item in value)

    try:
        kind = payload["kind"]
        if kind == "evaluate":
            measures = payload.get("measures")
            return EvaluateRequest(
                measures=None if measures is None else tuple(measures),
                offers=offers("offers"),
                skip_unsupported=payload.get("skip_unsupported", True),
            )
        if kind == "aggregate":
            return AggregateRequest(
                offers=offers("offers"), prefix=payload.get("prefix", "aggregate")
            )
        if kind == "schedule":
            reference = payload.get("reference")
            return ScheduleRequest(
                scheduler=payload.get("scheduler", "greedy"),
                offers=offers("offers"),
                reference=(
                    None if reference is None else timeseries_from_dict(reference)
                ),
                metric=payload.get("metric", "absolute"),
                options=payload.get("options", {}),
            )
        if kind == "trade":
            lots = payload.get("lots")
            budget = payload.get("budget", "inf")
            return TradeRequest(
                lots=(
                    None
                    if lots is None
                    else tuple(_lot_from_dict(item) for item in lots)
                ),
                measure=payload.get("measure", "vector"),
                energy_price=float_from_wire(payload.get("energy_price", 30.0)),
                premium_per_unit=float_from_wire(
                    payload.get("premium_per_unit", 2.0)
                ),
                budget=float(float_from_wire(budget)),
            )
        if kind == "stream":
            return StreamRequest(
                events=tuple(
                    event_from_dict(item) for item in payload.get("events", ())
                ),
                bulk=payload.get("bulk", False),
            )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed request payload: {error}") from error
    raise SerializationError(f"unknown request kind {payload.get('kind')!r}")


# --------------------------------------------------------------------- #
# Service results
# --------------------------------------------------------------------- #


def _stats_to_dict(stats) -> dict[str, Any]:
    return {
        "kind": stats.kind,
        "backend": stats.backend,
        "duration_s": stats.duration_s,
        "population": stats.population,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


def _stats_from_dict(payload: dict[str, Any]):
    from ..service.results import RequestStats

    return RequestStats(
        kind=payload["kind"],
        backend=payload["backend"],
        duration_s=float(payload["duration_s"]),
        population=int(payload["population"]),
        cache_hits=int(payload.get("cache_hits", 0)),
        cache_misses=int(payload.get("cache_misses", 0)),
    )


def _bid_to_dict(bid) -> dict[str, Any]:
    return {
        "flex_offer": flexoffer_to_dict(bid.flex_offer),
        "energy_price": float_to_wire(bid.energy_price),
        "flexibility_premium": float_to_wire(bid.flexibility_premium),
    }


def _bid_from_dict(payload: dict[str, Any]):
    from ..market.trading import Bid

    return Bid(
        flexoffer_from_dict(payload["flex_offer"]),
        energy_price=float(float_from_wire(payload["energy_price"])),
        flexibility_premium=float(
            float_from_wire(payload["flexibility_premium"])
        ),
    )


def _schedule_result_to_dict(result, schedule: dict[str, Any]) -> dict[str, Any]:
    return {
        "kind": "schedule",
        "schedule": schedule,
        "objective_value": float_to_wire(result.objective_value),
        "scheduler": result.scheduler,
        "stats": _stats_to_dict(result.stats),
    }


def result_to_dict(result) -> dict[str, Any]:
    """A JSON-ready, kind-tagged dictionary for any service result.

    The tag mirrors the originating request kind (``result["kind"]`` ==
    ``result.stats.kind``), so a response log interleaving every request
    type stays self-describing.
    """
    from ..service.results import (
        AggregateResult,
        EvaluateResult,
        ScheduleResult,
        StreamResult,
        TradeResult,
    )

    if isinstance(result, EvaluateResult):
        return {
            "kind": "evaluate",
            "report": {
                "size": result.report.size,
                "values": {
                    key: float_to_wire(value)
                    for key, value in result.report.values.items()
                },
                "skipped": list(result.report.skipped),
            },
            "stats": _stats_to_dict(result.stats),
        }
    if isinstance(result, AggregateResult):
        return {
            "kind": "aggregate",
            "groups": [
                [flexoffer_to_dict(flex_offer) for flex_offer in group]
                for group in result.groups
            ],
            "aggregates": [_lot_to_dict(aggregate) for aggregate in result.aggregates],
            "stats": _stats_to_dict(result.stats),
        }
    if isinstance(result, ScheduleResult):
        return _schedule_result_to_dict(result, schedule_to_dict(result.schedule))
    if isinstance(result, TradeResult):
        return {
            "kind": "trade",
            "accepted": [_bid_to_dict(bid) for bid in result.accepted],
            "rejected": [_bid_to_dict(bid) for bid in result.rejected],
            "revenue": float_to_wire(result.revenue),
            "stats": _stats_to_dict(result.stats),
        }
    if isinstance(result, StreamResult):
        return {
            "kind": "stream",
            "applied": result.applied,
            "live": result.live,
            "time": result.time,
            "engine_stats": {
                key: float_to_wire(value)
                for key, value in result.engine_stats.items()
            },
            "stats": _stats_to_dict(result.stats),
        }
    raise SerializationError(f"not a serialisable service result: {result!r}")


class ScheduleEnvelope(dict):
    """A schedule result's :func:`result_to_dict` document with an empty
    ``"assignments"`` array, plus the schedule itself.

    :func:`payload_json` writes the schedule's assignments into the array
    as text, so the document never holds a dictionary tree per assignment.
    """

    __slots__ = ("schedule",)

    def __init__(self, document: dict[str, Any], schedule: Schedule) -> None:
        super().__init__(document)
        self.schedule = schedule


#: How every :class:`ScheduleEnvelope` text starts, up to the point where
#: its assignments go.
_ASSIGNMENTS_AT = '{"kind": "schedule", "schedule": {"assignments": ['


def result_envelope(result) -> dict[str, Any]:
    """:func:`result_to_dict` without a schedule's per-assignment tree.

    Every result kind but a schedule gets exactly :func:`result_to_dict`.
    A schedule gets a :class:`ScheduleEnvelope`, whose
    :func:`payload_json` text equals the JSON of :func:`result_to_dict`.
    This is the gateway's submit payload.
    """
    from ..service.results import ScheduleResult

    if isinstance(result, ScheduleResult):
        return ScheduleEnvelope(
            _schedule_result_to_dict(result, {"assignments": []}),
            result.schedule,
        )
    return result_to_dict(result)


def _assignments_json(schedule: Schedule) -> str:
    """The items of the JSON array of :func:`assignment_to_dict` over the
    schedule's assignments, each written from its offer's cached text.

    A :meth:`Schedule.packed` schedule is written from its ``int64``
    columns, without building its assignments.  Otherwise int start times
    and values print exactly as ``json`` prints them, and any other value
    sends the whole array through :func:`assignment_to_dict`.
    """
    columns = schedule.columns
    if columns is not None:
        starts, values, offsets = columns
        flat = values.tolist()
        bounds = offsets.tolist()
        return ", ".join(
            [
                f'{{"flex_offer": {text}, '
                f'"start_time": {start}, '
                f'"values": {flat[low:high]}}}'
                for text, start, low, high in zip(
                    _flexoffer_texts(schedule.flex_offers),
                    starts.tolist(),
                    bounds,
                    bounds[1:],
                )
            ]
        )
    assignments = schedule.assignments
    types = {type(assignment.start_time) for assignment in assignments}
    types.update(
        type(value) for assignment in assignments for value in assignment.values
    )
    if not types <= {int}:
        return ", ".join(
            json.dumps(assignment_to_dict(assignment), allow_nan=False)
            for assignment in assignments
        )
    texts = _flexoffer_texts(assignment.flex_offer for assignment in assignments)
    return ", ".join(
        [
            f'{{"flex_offer": {text}, '
            f'"start_time": {assignment.start_time}, '
            f'"values": {list(assignment.values)}}}'
            for text, assignment in zip(texts, assignments)
        ]
    )


def payload_json(payload: dict[str, Any]) -> str:
    """Strict JSON text of a gateway payload.

    The payload is serialised with ``allow_nan=False`` directly; only when
    that refuses a non-finite float is it re-encoded through
    :func:`wire_safe`, so the text always equals that of
    ``wire_safe(payload)``.  A :class:`ScheduleEnvelope`'s assignments are
    spliced into its array, each written from its offer's cached text, so
    the result equals the text of the full :func:`result_to_dict` tree.
    """
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        text = json.dumps(wire_safe(payload), allow_nan=False)
    if not isinstance(payload, ScheduleEnvelope):
        return text
    cut = len(_ASSIGNMENTS_AT)
    if text[:cut] != _ASSIGNMENTS_AT:
        raise SerializationError("not a schedule envelope document")
    return "".join(
        (text[:cut], _assignments_json(payload.schedule), text[cut:])
    )


def result_from_dict(payload: dict[str, Any]):
    """Rebuild a service result from :func:`result_to_dict` output."""
    from ..measures.setwise import FlexibilitySetReport
    from ..service.results import (
        AggregateResult,
        EvaluateResult,
        ScheduleResult,
        StreamResult,
        TradeResult,
    )

    try:
        kind = payload["kind"]
        stats = _stats_from_dict(payload["stats"])
        if kind == "evaluate":
            report = payload["report"]
            return EvaluateResult(
                report=FlexibilitySetReport(
                    int(report["size"]),
                    {
                        key: float_from_wire(value)
                        for key, value in report["values"].items()
                    },
                    tuple(report["skipped"]),
                ),
                stats=stats,
            )
        if kind == "aggregate":
            return AggregateResult(
                groups=tuple(
                    tuple(flexoffer_from_dict(item) for item in group)
                    for group in payload["groups"]
                ),
                aggregates=tuple(
                    _lot_from_dict(item) for item in payload["aggregates"]
                ),
                stats=stats,
            )
        if kind == "schedule":
            return ScheduleResult(
                schedule=schedule_from_dict(payload["schedule"]),
                objective_value=float(float_from_wire(payload["objective_value"])),
                scheduler=payload["scheduler"],
                stats=stats,
            )
        if kind == "trade":
            return TradeResult(
                accepted=tuple(_bid_from_dict(item) for item in payload["accepted"]),
                rejected=tuple(_bid_from_dict(item) for item in payload["rejected"]),
                revenue=float(float_from_wire(payload["revenue"])),
                stats=stats,
            )
        if kind == "stream":
            return StreamResult(
                applied=int(payload["applied"]),
                live=int(payload["live"]),
                time=payload["time"],
                stats=stats,
                engine_stats={
                    key: float_from_wire(value)
                    for key, value in payload.get("engine_stats", {}).items()
                },
            )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed result payload: {error}") from error
    raise SerializationError(f"unknown result kind {payload.get('kind')!r}")


# --------------------------------------------------------------------- #
# Gateway errors
# --------------------------------------------------------------------- #


def error_to_dict(error) -> dict[str, Any]:
    """A JSON-ready, kind-tagged dictionary for one gateway error.

    The body every non-2xx :mod:`repro.server` response carries:
    ``kind`` is always ``"error"``, ``error`` is the stable
    machine-readable code, ``status`` the HTTP status, ``detail`` the
    human-readable message and ``retry_after`` (seconds, only on
    backpressure rejections) the client's retry hint.
    """
    from ..server.limits import GatewayError

    if not isinstance(error, GatewayError):
        raise SerializationError(f"not a serialisable gateway error: {error!r}")
    payload: dict[str, Any] = {
        "kind": "error",
        "error": error.code,
        "status": error.status,
        "detail": error.detail,
    }
    if error.retry_after is not None:
        payload["retry_after"] = error.retry_after
    return payload


def error_from_dict(payload: dict[str, Any]):
    """Rebuild a typed gateway error from :func:`error_to_dict` output.

    The returned exception's class is resolved from the wire ``error``
    code, so ``raise error_from_dict(body)`` on the client side surfaces
    the same typed error the server raised.  A code this client does not
    know rebuilds as a plain :class:`~repro.server.GatewayError` that
    keeps the wire's ``status`` and ``code``.
    """
    from ..server.limits import GatewayError, error_class_for_code

    if not isinstance(payload, dict) or payload.get("kind") != "error":
        raise SerializationError(f"not an error payload: {payload!r}")
    try:
        error_class = error_class_for_code(payload["error"])
        error = error_class(
            str(payload["detail"]),
            retry_after=payload.get("retry_after"),
        )
        if error_class is GatewayError:
            error.status = int(payload["status"])
            error.code = str(payload["error"])
    except (KeyError, TypeError, ValueError) as error_:
        raise SerializationError(
            f"malformed error payload: {error_}"
        ) from error_
    return error
