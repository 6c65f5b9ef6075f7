"""Response encoding: direct strict JSON, ``wire_safe`` only as the fallback.

``Response.encode`` serialises a payload with ``json.dumps(...,
allow_nan=False)`` and re-encodes ``wire_safe(payload)`` only when that
refuses a non-finite float.  The bytes must equal encoding the
``wire_safe`` copy unconditionally, for every JSON-like payload.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import wire_safe
from repro.server import Gateway, GatewayConfig, Response
from repro.server.app import _REASONS
from repro.service import SessionConfig

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
