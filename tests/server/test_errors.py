"""Error-path parity: every failure is a structured, io-round-trippable body.

The ISSUE satellite: malformed JSON, unknown sessions and oversized
payloads (plus the rest of the error taxonomy) return kind-tagged error
bodies that rebuild into the same typed exception through
:func:`repro.io.error_from_dict`.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core import SerializationError
from repro.io import error_from_dict, error_to_dict
from repro.server import (
    BadRequestError,
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    InternalError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    RegistryFullError,
    SaturatedError,
    SessionExistsError,
    UnknownSessionError,
)
from repro.service import EvaluateRequest, SessionConfig

REFERENCE = {"backend": "reference"}


def scenario(coro_factory, **config_overrides):
    async def runner():
        gateway = Gateway(
            GatewayConfig(
                session_defaults=SessionConfig(backend="reference"),
                **config_overrides,
            )
        )
        try:
            client = GatewayClient.in_process(gateway)
            result = await coro_factory(gateway, client)
            await client.close()
            return result
        finally:
            gateway.close()

    return asyncio.run(runner())


def assert_error_body(response, status: int, code: str) -> None:
    """The response carries a structured, round-trippable error body."""
    assert response.status == status
    body = response.payload
    assert body["kind"] == "error"
    assert body["error"] == code
    assert body["status"] == status
    assert body["detail"]
    rebuilt = error_from_dict(body)
    assert isinstance(rebuilt, GatewayError)
    assert rebuilt.status == status
    assert rebuilt.code == code
    assert error_to_dict(rebuilt) == body


def test_malformed_json_is_a_structured_400():
    raw = b"{not json"

    async def run(gateway, client):
        client._writer.write(
            (
                "POST /sessions/t/requests HTTP/1.1\r\n"
                f"content-length: {len(raw)}\r\n\r\n"
            ).encode()
            + raw
        )
        await client._writer.drain()
        return await client._read_response()

    response = scenario(run)
    assert_error_body(response, 400, "bad-request")
    assert "JSON" in response.payload["detail"]


def test_a_chunked_request_gets_one_400_and_the_connection_closes():
    """A body framed by ``transfer-encoding`` is refused once, before it is
    routed; its chunks are never parsed as a next request."""
    chunk = json.dumps({"kind": "evaluate"})

    async def run(gateway, client):
        await client.create_session("t", REFERENCE)
        client._writer.write(
            (
                "POST /sessions/t/requests HTTP/1.1\r\n"
                "transfer-encoding: chunked\r\n\r\n"
                f"{len(chunk):x}\r\n{chunk}\r\n0\r\n\r\n"
            ).encode()
        )
        await client._writer.drain()
        response = await client._read_response()
        rest = await client._reader.read()
        return response, rest, gateway.registry.entry("t").served

    response, rest, served = scenario(run)
    assert_error_body(response, 400, "bad-request")
    assert "transfer-encoding" in response.payload["detail"]
    assert response.headers["connection"] == "close"
    assert rest == b""
    assert served == 0


def test_non_object_request_body_is_a_400():
    async def run(gateway, client):
        return await client.request("POST", "/sessions/t/requests", [1, 2, 3])

    assert_error_body(scenario(run), 400, "bad-request")


def test_unknown_request_kind_is_a_400():
    async def run(gateway, client):
        await client.create_session("t", REFERENCE)
        return await client.request(
            "POST", "/sessions/t/requests", {"kind": "divide"}
        )

    assert_error_body(scenario(run), 400, "bad-request")


def test_unknown_scheduler_is_a_400():
    async def run(gateway, client):
        await client.create_session("t", REFERENCE)
        return await client.request(
            "POST",
            "/sessions/t/requests",
            {"kind": "schedule", "scheduler": "oracle"},
        )

    assert_error_body(scenario(run), 400, "bad-request")


def test_unknown_session_is_a_structured_404():
    async def run(gateway, client):
        return await client.submit("ghost", EvaluateRequest())

    assert_error_body(scenario(run), 404, "unknown-session")


def test_unknown_route_is_a_404_and_bad_method_a_405():
    async def run(gateway, client):
        missing = await client.request("GET", "/nope")
        deeper = await client.request("GET", "/sessions/t/requests/extra")
        method = await client.request("PATCH", "/sessions/t")
        submit_get = await client.request("GET", "/sessions/t/requests")
        return missing, deeper, method, submit_get

    missing, deeper, method, submit_get = scenario(run)
    assert_error_body(missing, 404, "not-found")
    assert_error_body(deeper, 404, "not-found")
    assert_error_body(method, 405, "method-not-allowed")
    assert_error_body(submit_get, 405, "method-not-allowed")


def test_duplicate_session_is_a_structured_409():
    async def run(gateway, client):
        await client.create_session("twin", REFERENCE)
        return await client.create_session("twin", REFERENCE)

    assert_error_body(scenario(run), 409, "session-exists")


def test_bad_session_config_is_a_400():
    async def run(gateway, client):
        return await client.create_session("t", {"backend": "warp-drive"})

    assert_error_body(scenario(run), 400, "bad-request")


@pytest.mark.parametrize(
    "body",
    [
        {"checkpoint_events": "5"},
        {"shards": "2"},
        {"window_capacity": "3"},
        {"checkpoint_age_s": "5"},
        {"grouping": {"bogus": 1}},
        {"grouping": {"earliest_start_tolerance": "a"}},
        {"grouping": 5},
        {"shards": 2.5},
        {"shards": True},
        {"auto_expire": "no"},
        {"persist_fsync": 1},
        {"seed": "x"},
        {"checkpoint_age_s": float("nan")},
        {"checkpoint_age_s": float("inf")},
    ],
    ids=repr,
)
def test_malformed_session_config_is_a_400(body):
    """A wrongly typed config value is a client mistake: never a 500 and
    never silently coerced into a session (``NaN``/``Infinity`` are not
    JSON at all)."""

    async def run(gateway, client):
        raw = json.dumps({"backend": "reference", **body}).encode()
        response = await gateway.handle("PUT", "/sessions/t", raw)
        return response, gateway.registry.names()

    response, names = scenario(run)
    assert_error_body(response, 400, "bad-request")
    assert names == []


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_malformed_json(literal):
    async def run(gateway, client):
        await client.create_session("t", REFERENCE)
        raw = ('{"kind": "evaluate", "measures": %s}' % literal).encode()
        return await gateway.handle("POST", "/sessions/t/requests", raw)

    response = scenario(run)
    assert_error_body(response, 400, "bad-request")
    assert "malformed JSON body" in response.payload["detail"]


def test_oversized_payload_is_a_structured_413():
    async def run(gateway, client):
        big = {"kind": "evaluate", "padding": "x" * 4096}
        return await client.request("POST", "/sessions/t/requests", big)

    response = scenario(run, max_body_bytes=1024)
    assert_error_body(response, 413, "payload-too-large")


@pytest.mark.parametrize("declared", ["abc", "-5"])
def test_malformed_content_length_is_a_structured_400_and_closes(declared):
    """A content-length that does not frame a body is answered, not
    dropped: the connection task must not die on it."""

    async def run(gateway, client):
        client._writer.write(
            (
                "POST /sessions/t/requests HTTP/1.1\r\n"
                f"content-length: {declared}\r\n\r\n"
            ).encode()
        )
        await client._writer.drain()
        response = await client._read_response()
        # The server closed its side: the next read sees end of stream.
        trailing = await client._reader.read()
        return response, trailing

    response, trailing = scenario(run)
    assert_error_body(response, 400, "bad-request")
    assert "content-length" in response.payload["detail"]
    assert response.headers["connection"] == "close"
    assert trailing == b""


def test_internal_failure_is_a_structured_500():
    async def run(gateway, client):
        await client.create_session("boom", REFERENCE)
        entry = gateway.registry.entry("boom")

        def explode(request):
            raise RuntimeError("kaput")

        entry.session.submit = explode
        return await client.submit("boom", EvaluateRequest())

    response = scenario(run)
    assert_error_body(response, 500, "internal")
    assert "kaput" in response.payload["detail"]


def test_every_error_class_round_trips_through_io():
    errors = [
        BadRequestError("bad"),
        UnknownSessionError("who"),
        NotFoundError("where"),
        MethodNotAllowedError("how"),
        SessionExistsError("again"),
        PayloadTooLargeError("big"),
        SaturatedError("full", retry_after=0.25),
        RegistryFullError("packed", retry_after=1.5),
        InternalError("oops"),
    ]
    for error in errors:
        body = json.loads(json.dumps(error_to_dict(error)))
        rebuilt = error_from_dict(body)
        assert type(rebuilt) is type(error)
        assert rebuilt.status == error.status
        assert rebuilt.code == error.code
        assert rebuilt.detail == error.detail
        assert rebuilt.retry_after == error.retry_after


def test_error_io_rejects_non_errors():
    with pytest.raises(SerializationError):
        error_to_dict("not an error")
    with pytest.raises(SerializationError):
        error_from_dict({"kind": "evaluate"})
    with pytest.raises(SerializationError):
        error_from_dict({"kind": "error"})  # missing code/detail
    # Unknown codes still deserialise (forward compatibility).
    rebuilt = error_from_dict(
        {"kind": "error", "error": "brand-new", "status": 400, "detail": "x"}
    )
    assert isinstance(rebuilt, GatewayError)


def test_an_unknown_error_code_keeps_its_wire_status_and_code():
    """A code this client does not know (an older server's 504, say)
    rebuilds as a plain :class:`GatewayError` carrying the wire's status
    and code, not the class defaults."""
    body = {
        "kind": "error",
        "error": "timeout",
        "status": 504,
        "detail": "late",
        "retry_after": 0.5,
    }
    rebuilt = error_from_dict(body)
    assert type(rebuilt) is GatewayError
    assert (rebuilt.status, rebuilt.code) == (504, "timeout")
    assert (rebuilt.detail, rebuilt.retry_after) == ("late", 0.5)
    assert error_to_dict(rebuilt) == body
    # The defaults of GatewayError itself are untouched.
    assert (GatewayError.status, GatewayError.code) == (500, "internal")
