"""Response encoding: direct strict JSON, ``wire_safe`` only as the fallback.

``Response.encode`` serialises a payload with ``json.dumps(...,
allow_nan=False)`` and re-encodes ``wire_safe(payload)`` only when that
refuses a non-finite float.  The bytes must equal encoding the
``wire_safe`` copy unconditionally, for every JSON-like payload.

The gateway's submit payload is :func:`repro.io.result_envelope`, which
leaves a schedule's assignments for the encoder to write as text from
each offer's cached wire text: its bytes must equal encoding the fully
materialised ``result_to_dict`` tree, and it must not hold a
per-assignment container tree alive.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import small_flexoffers

from repro.backend import NUMPY_AVAILABLE
from repro.core import FlexOffer, TimeSeries
from repro.io import (
    flexoffer_to_dict,
    request_to_dict,
    result_envelope,
    result_to_dict,
    wire_safe,
)
from repro.server import Gateway, GatewayConfig, Response
from repro.server.app import _REASONS
from repro.service import (
    AggregateRequest,
    EvaluateRequest,
    FlexSession,
    ScheduleRequest,
    SessionConfig,
    StreamRequest,
    TradeRequest,
)
from repro.stream import Tick, population_events

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less installs
    np = None


def always_wire_safe_encode(response: Response, close: bool) -> bytes:
    """The encoding that deep-copies every payload through ``wire_safe``."""
    body = json.dumps(wire_safe(response.payload), allow_nan=False).encode("utf-8")
    lines = [
        f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'Unknown')}",
        "content-type: application/json",
        f"content-length: {len(body)}",
        "connection: " + ("close" if close else "keep-alive"),
    ]
    if response.retry_after is not None:
        lines.append(f"retry-after: {response.retry_after:g}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


_floats = st.floats(allow_nan=True, allow_infinity=True)
_leaves = [st.none(), st.booleans(), st.integers(), st.text(max_size=8), _floats]
if np is not None:
    _leaves.append(_floats.map(np.float64))

json_like = st.recursive(
    st.one_of(*_leaves),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(
    payload=st.dictionaries(st.text(max_size=6), json_like, max_size=5),
    status=st.sampled_from(sorted(_REASONS) + [599]),
    retry_after=st.none() | st.floats(min_value=0, max_value=1e6),
    close=st.booleans(),
)
def test_encode_is_byte_identical_to_the_wire_safe_copy(
    payload, status, retry_after, close
):
    response = Response(status, payload, retry_after)
    assert response.encode(close) == always_wire_safe_encode(response, close)


def test_health_payload_non_finite_floats_leave_as_sentinels():
    async def run():
        gateway = Gateway(
            GatewayConfig(session_defaults=SessionConfig(backend="reference"))
        )
        try:
            stats = gateway.stats
            gateway.stats = lambda: {
                **stats(),
                "window": {"p99_ms": float("inf"), "mean_ms": float("nan")},
                "floor": float("-inf"),
            }
            return await gateway.handle("GET", "/healthz")
        finally:
            gateway.close()

    response = asyncio.run(run())
    raw = response.encode()
    head, body = raw.split(b"\r\n\r\n", 1)
    assert f"content-length: {len(body)}".encode() in head
    decoded = json.loads(body, parse_constant=pytest.fail)
    assert decoded["kind"] == "health"
    assert decoded["window"] == {"p99_ms": "inf", "mean_ms": "nan"}
    assert decoded["floor"] == "-inf"
    # The payload itself is not rewritten by the fallback.
    assert response.payload["floor"] == float("-inf")


def test_circular_payload_still_fails_loudly():
    payload: dict = {"kind": "health"}
    payload["self"] = payload
    with pytest.raises(RecursionError):
        Response(200, payload).encode()


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "health", "stray": object()},
        {"kind": "health", "floor": float("-inf"), "stray": object()},
    ],
    ids=["direct", "wire-safe-fallback"],
)
def test_payload_holding_an_unrelated_object_still_raises_type_error(payload):
    with pytest.raises(TypeError, match="not JSON serializable"):
        Response(200, payload).encode()


# --------------------------------------------------------------------- #
# Submit bodies: the envelope encodes like the materialised result tree
# --------------------------------------------------------------------- #

BACKENDS = {"reference": {"backend": "reference"}}
if NUMPY_AVAILABLE:
    BACKENDS["numpy"] = {"backend": "numpy"}
    BACKENDS["sharded"] = {
        "backend": "sharded",
        "shards": 2,
        "shard_min_population": 1,
    }

_names = st.none() | st.text(max_size=6) | st.sampled_from(["ölpumpe", "充電器"])


@st.composite
def named_offers(draw, names=_names):
    # The live engine computes every measure on arrival, and the relative
    # area measure is undefined for an offer with no energy at all.
    offer = draw(small_flexoffers().filter(lambda o: abs(o.cmin) + abs(o.cmax)))
    return FlexOffer(
        offer.earliest_start,
        offer.latest_start,
        [(s.amin, s.amax) for s in offer.slices],
        offer.cmin,
        offer.cmax,
        draw(names),
    )


def every_request_kind(offers):
    """One request of each kind over the live population, plus evaluate
    and schedule over explicit offers when there are any."""
    wind = TimeSeries(0, (2,) * 10)
    requests = [
        StreamRequest(events=tuple(population_events(offers)), bulk=True),
        EvaluateRequest(),
        AggregateRequest(),
        TradeRequest(budget=1e9),
        StreamRequest(events=(Tick(3),)),
        ScheduleRequest("earliest"),
        ScheduleRequest("greedy", reference=wind),
    ]
    if offers:
        requests += [
            EvaluateRequest(
                measures=("time", "energy", "vector", "absolute_area"),
                offers=tuple(offers),
            ),
            ScheduleRequest("earliest", offers=tuple(offers[:3])),
        ]
    return requests


class RecordingGateway(Gateway):
    """A gateway that keeps every result it served, for comparison."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.results = []

    async def _hand_off(self, entry, function, *args, **options):
        result = await super()._hand_off(entry, function, *args, **options)
        self.results.append(result)
        return result


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(offers=st.lists(named_offers(), max_size=8))
def test_submit_bodies_are_byte_identical_to_the_result_tree(offers):
    async def run():
        gateway = RecordingGateway(GatewayConfig())
        try:
            served = []
            for name, config in BACKENDS.items():
                created = await gateway.handle(
                    "PUT", f"/sessions/{name}", json.dumps(config).encode()
                )
                assert created.status == 201
                for request in every_request_kind(offers):
                    body = json.dumps(request_to_dict(request)).encode()
                    response = await gateway.handle(
                        "POST", f"/sessions/{name}/requests", body
                    )
                    assert response.status == 200, response.payload
                    served.append((response, gateway.results[-1]))
            return served
        finally:
            gateway.close()

    served = asyncio.run(run())
    assert len(served) == len(BACKENDS) * len(every_request_kind(offers))
    for response, result in served:
        for close in (False, True):
            expected = Response(200, result_to_dict(result)).encode(close)
            assert response.encode(close) == expected


def test_submit_payload_of_a_large_schedule_keeps_few_tracked_objects():
    """The envelope holds the schedule's own assignments, not a
    dictionary tree of ~5 containers per assignment."""
    rng = random.Random(7)
    offers = []
    for index in range(2000):
        earliest = rng.randrange(8)
        offers.append(
            FlexOffer(
                earliest,
                earliest + rng.randrange(3),
                [(1, 1 + rng.randrange(3)), (0, 2)],
                name=f"offer-{index}",
            )
        )
    with FlexSession(SessionConfig(backend="reference")) as session:
        session.submit(
            StreamRequest(events=tuple(population_events(offers)), bulk=True)
        )
        result = session.submit(ScheduleRequest("earliest"))
    assert len(result.schedule) == len(offers)

    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        payload = result_envelope(result)
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert held < 50
    assert Response(200, payload).encode() == Response(
        200, result_to_dict(result)
    ).encode()


#: Names that JSON must escape: quotes, backslashes, control characters
#: and text outside the Basic Multilingual Plane (surrogate pairs).
_escaped_names = st.none() | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\there\nnew\x00\x1f", "⚡🔋", "𝔣𝔬"]
) | st.text(
    alphabet=st.sampled_from(['"', "\\", "\x07", "\n", "é", "😀", "a"]),
    max_size=6,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(offers=st.lists(named_offers(_escaped_names), min_size=1, max_size=6))
def test_schedule_bodies_with_escaped_names_are_byte_identical(offers):
    """A schedule's assignments are written from each offer's cached wire
    text; names with JSON escapes must come out exactly as the encoder
    writes them inside the full result tree."""
    requests = [
        StreamRequest(events=tuple(population_events(offers)), bulk=True),
        ScheduleRequest("earliest"),
        ScheduleRequest("greedy", reference=TimeSeries(0, (2,) * 10)),
        ScheduleRequest("earliest", offers=tuple(offers)),
    ]
    for config in BACKENDS.values():
        with FlexSession(SessionConfig(**config)) as session:
            for request in requests:
                result = session.submit(request)
                expected = Response(200, result_to_dict(result)).encode()
                assert Response(200, result_envelope(result)).encode() == expected


def test_the_cached_wire_text_is_an_untracked_str():
    offers = [
        FlexOffer(1, 3, [(1, 2), (0, 1)], name=f"offer-{index}")
        for index in range(3)
    ]
    with FlexSession(SessionConfig(backend="reference")) as session:
        session.ingest(offers)
        result = session.submit(ScheduleRequest("earliest"))
    Response(200, result_envelope(result)).encode()
    for offer in offers:
        text = offer.__dict__["_wire_json"]
        assert type(text) is str
        assert not gc.is_tracked(text)
        assert json.loads(text) == flexoffer_to_dict(offer)
