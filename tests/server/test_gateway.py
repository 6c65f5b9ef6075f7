"""Gateway routing, the HTTP request path, transports and the access log.

Includes the PR 6 acceptance property: two tenants with *different*
compute backends served through the HTTP wire path produce responses
bit-identical to solo :class:`~repro.service.FlexSession` runs — the
PR 5 interleaved-sessions guarantee extended across the network boundary.
"""

from __future__ import annotations

import asyncio
import io
import json
import random
import sys
import threading

import pytest

from repro.backend import NUMPY_AVAILABLE
from repro.core import FlexOffer, TimeSeries
from repro.io import request_stats_to_csv, result_to_dict
from repro.server import Gateway, GatewayClient, GatewayConfig, serve
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

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

REFERENCE = {"backend": "reference"}


def population(size: int, seed: int = 0) -> list[FlexOffer]:
    rng = random.Random(seed)
    offers = []
    for index in range(size):
        earliest = rng.randrange(0, 8)
        slices = [(1, 1 + rng.randint(0, 3))]
        if rng.random() < 0.5:
            slices.append((0, rng.randint(1, 3)))
        offers.append(
            FlexOffer(
                earliest,
                earliest + rng.randint(0, 3),
                slices,
                name=f"offer-{seed}-{index}",
            )
        )
    return offers


def gateway_scenario(coro_factory, **config_overrides):
    """Run one async scenario against a fresh in-process gateway."""

    async def runner():
        gateway = Gateway(GatewayConfig(**config_overrides))
        try:
            return await coro_factory(gateway)
        finally:
            gateway.close()

    return asyncio.run(runner())


def test_health_list_create_stats_evict_roundtrip():
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        health = await client.health()
        assert health.status == 200
        assert health.payload["kind"] == "health"
        assert health.payload["registry"]["sessions"] == 0

        created = await client.create_session("tenant-a", REFERENCE)
        assert created.status == 201
        assert created.payload["backend"] == "reference"
        assert created.payload["config"]["backend"] == "reference"

        listing = await client.request("GET", "/sessions")
        assert listing.payload == {"kind": "sessions", "sessions": ["tenant-a"]}

        stats = await client.session_stats("tenant-a")
        assert stats.status == 200
        assert stats.payload["name"] == "tenant-a"
        assert stats.payload["live"] == 0

        evicted = await client.evict_session("tenant-a")
        assert evicted.status == 200
        assert evicted.payload == {"kind": "evicted", "name": "tenant-a"}
        listing = await client.request("GET", "/sessions")
        assert listing.payload["sessions"] == []
        await client.close()

    gateway_scenario(scenario)


def test_submit_roundtrips_every_request_kind():
    offers = population(12, seed=3)
    wind = TimeSeries(0, tuple([2] * 12))

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        ingest = await client.submit(
            "t", StreamRequest(events=tuple(population_events(offers)), bulk=True)
        )
        assert ingest.status == 200
        assert ingest.result().live == len(offers)

        evaluated = await client.submit("t", EvaluateRequest())
        assert evaluated.result().report.size == len(offers)

        aggregated = await client.submit("t", AggregateRequest())
        assert sum(len(g) for g in aggregated.result().groups) == len(offers)

        scheduled = await client.submit(
            "t", ScheduleRequest("greedy", reference=wind)
        )
        assert len(scheduled.result().schedule) == len(offers)

        traded = await client.submit("t", TradeRequest(budget=1e9))
        assert traded.result().revenue > 0

        ticked = await client.submit("t", StreamRequest(events=(Tick(5),)))
        assert ticked.result().time == 5
        await client.close()

    gateway_scenario(scenario)


def test_session_stats_wait_for_the_running_submit():
    """``GET /sessions/{name}`` reads the tenant's windows, which a worker
    thread mutates while it applies a ``Tick``; the read must hold the
    session gate, so it completes only after the running submit."""
    offers = population(6, seed=5)
    entered, release = threading.Event(), threading.Event()

    async def scenario(gateway):
        submitter = GatewayClient.in_process(gateway)
        reader = GatewayClient.in_process(gateway)
        await submitter.create_session(
            "t", {**REFERENCE, "window_capacity": 4}
        )
        # A bulk ingest clears the tenant's costs, so the held tick below
        # is its first stream since and runs on a pool worker.
        await submitter.submit(
            "t", StreamRequest(events=tuple(population_events(offers)), bulk=True)
        )
        session = gateway.registry.entry("t").session
        real_submit = session.submit

        def blocked(request):
            entered.set()
            assert release.wait(5.0)
            return real_submit(request)

        session.submit = blocked
        ticking = asyncio.ensure_future(
            submitter.submit("t", StreamRequest(events=(Tick(1),)))
        )
        assert await asyncio.to_thread(entered.wait, 5.0)
        stats = asyncio.ensure_future(reader.session_stats("t"))
        done, _ = await asyncio.wait({stats}, timeout=0.2)
        blocked_while_running = not done
        release.set()
        ticked, read = await asyncio.gather(ticking, stats)
        await submitter.close()
        await reader.close()
        return blocked_while_running, ticked, read

    try:
        blocked_while_running, ticked, read = gateway_scenario(scenario)
    finally:
        release.set()
    assert blocked_while_running
    assert ticked.status == 200 and read.status == 200
    # The read saw the whole tick: every window holds its sample.
    windows = read.payload["windows"]
    assert windows and all(block["count"] == 1.0 for block in windows.values())


def test_session_stats_see_the_whole_tick_served_on_the_loop(monkeypatch):
    """The inline twin of the test above: a cheap ``Tick`` runs on the
    loop thread, inside both gates, and a ``GET`` sent right behind it
    still reads the windows after the whole tick."""
    monkeypatch.setattr(sys, "getswitchinterval", lambda: 1.0)
    offers = population(6, seed=5)

    async def scenario(gateway):
        submitter = GatewayClient.in_process(gateway)
        reader = GatewayClient.in_process(gateway)
        await submitter.create_session(
            "t", {**REFERENCE, "window_capacity": 4}
        )
        await submitter.submit(
            "t", StreamRequest(events=tuple(population_events(offers)))
        )
        # The ingest changed the population, so this first tick after it
        # runs on the pool and makes the next one cheap.
        await submitter.submit("t", StreamRequest(events=(Tick(1),)))
        session = gateway.registry.entry("t").session
        real_submit = session.submit
        threads = []

        def recorded(request):
            threads.append(threading.get_ident())
            return real_submit(request)

        session.submit = recorded
        ticked, read = await asyncio.gather(
            submitter.submit("t", StreamRequest(events=(Tick(2),))),
            reader.session_stats("t"),
        )
        await submitter.close()
        await reader.close()
        return threads, gateway.inline, ticked, read

    threads, inline, ticked, read = gateway_scenario(scenario)
    assert threads == [threading.get_ident()] and inline == 1
    assert ticked.status == 200 and read.status == 200
    # Both ticks' samples: the read came after the whole inline tick.
    windows = read.payload["windows"]
    assert windows and all(block["count"] == 2.0 for block in windows.values())


def test_tcp_serve_and_port_allocation():
    offers = population(6, seed=9)

    async def scenario():
        server = await serve(port=0, session_defaults=SessionConfig(backend="reference"))
        async with server:
            assert server.port > 0
            client = await GatewayClient.open_tcp(server.host, server.port)
            created = await client.create_session("tcp-tenant")
            assert created.status == 201
            response = await client.submit(
                "tcp-tenant", EvaluateRequest(offers=tuple(offers))
            )
            assert response.status == 200
            assert response.result().report.size == len(offers)
            await client.close()

    asyncio.run(scenario())


def test_idle_ttl_sweeper_runs_in_serve():
    async def scenario():
        server = await serve(
            port=0,
            idle_ttl=0.05,
            session_defaults=SessionConfig(backend="reference"),
        )
        async with server:
            client = await GatewayClient.open_tcp(server.host, server.port)
            await client.create_session("ephemeral")
            assert "ephemeral" in server.gateway.registry
            await asyncio.sleep(0.2)  # > idle_ttl + sweep interval
            assert "ephemeral" not in server.gateway.registry
            await client.close()

    asyncio.run(scenario())


def test_access_log_streams_request_stats_rows():
    sink = io.StringIO()
    offers = population(5, seed=1)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("logged", REFERENCE)
        await client.submit(
            "logged",
            StreamRequest(events=tuple(population_events(offers)), bulk=True),
        )
        await client.submit("logged", EvaluateRequest())
        await client.close()

    gateway_scenario(scenario, access_log=sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0] == "kind,backend,duration_s,population,cache_hits,cache_misses"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["stream", "evaluate"]


def test_gateway_config_validation():
    with pytest.raises(ValueError):
        GatewayConfig(max_body_bytes=0)
    with pytest.raises(ValueError):
        Gateway(GatewayConfig(), max_sessions=3)


# --------------------------------------------------------------------- #
# The acceptance property: HTTP-served tenants == solo sessions
# --------------------------------------------------------------------- #


def _mix(offers, wind):
    """The request mix of the PR 5 acceptance property, as wire bodies."""
    return [
        StreamRequest(events=tuple(population_events(offers)), bulk=True),
        EvaluateRequest(),
        AggregateRequest(),
        ScheduleRequest(
            "hill-climbing",
            reference=wind,
            options={"iterations": 8, "restarts": 1},
        ),
        TradeRequest(budget=1e6),
        StreamRequest(events=(Tick(3),)),
        EvaluateRequest(),
    ]


def _strip_stats(payload: dict) -> dict:
    """Drop the wall-clock-bearing stats block before comparing payloads."""
    payload = dict(payload)
    payload.pop("stats", None)
    return payload


def _solo_payloads(config: SessionConfig, offers, wind) -> list:
    """The wire payloads of a solo FlexSession run over the same mix."""
    payloads = []
    with FlexSession(config) as session:
        for request in _mix(offers, wind):
            result = session.submit(request)
            # Through json to normalise exactly like the HTTP path does.
            payloads.append(
                _strip_stats(json.loads(json.dumps(result_to_dict(result))))
            )
    return payloads


@requires_numpy
def test_two_tenants_with_different_backends_match_solo_sessions_over_http():
    """ISSUE acceptance: numpy and sharded tenants, interleaved request by
    request through the gateway's HTTP path, are bit-identical to solo
    in-process FlexSession runs."""
    offers_a = population(40, seed=1)
    offers_b = population(30, seed=2)
    wind = TimeSeries(0, tuple([3] * 12))
    config_a = SessionConfig(backend="numpy", cache_entries=8, seed=5)
    config_b = SessionConfig(
        backend="sharded",
        shards=2,
        shard_min_population=1,
        cache_entries=2,
        cache_cells=10_000,
        seed=6,
    )
    solo_a = _solo_payloads(config_a, offers_a, wind)
    solo_b = _solo_payloads(config_b, offers_b, wind)

    async def scenario(gateway):
        client_a = GatewayClient.in_process(gateway)
        client_b = GatewayClient.in_process(gateway)
        assert (
            await client_a.create_session("tenant-a", config_a.as_dict())
        ).status == 201
        assert (
            await client_b.create_session("tenant-b", config_b.as_dict())
        ).status == 201
        served_a, served_b = [], []
        for request_a, request_b in zip(
            _mix(offers_a, wind), _mix(offers_b, wind)
        ):
            response_a = await client_a.submit("tenant-a", request_a)
            response_b = await client_b.submit("tenant-b", request_b)
            assert response_a.status == 200
            assert response_b.status == 200
            served_a.append(_strip_stats(response_a.payload))
            served_b.append(_strip_stats(response_b.payload))
        await client_a.close()
        await client_b.close()
        return served_a, served_b

    served_a, served_b = gateway_scenario(scenario)
    assert served_a == solo_a
    assert served_b == solo_b


def test_concurrent_tenants_are_isolated():
    """Interleaved concurrent tenants each see exactly their own state."""
    tenants = 12

    async def scenario(gateway):
        async def one(index: int):
            client = GatewayClient.in_process(gateway)
            name = f"iso-{index}"
            await client.create_session(name, REFERENCE)
            offers = population(4 + index % 3, seed=index)
            await client.submit(
                name,
                StreamRequest(
                    events=tuple(population_events(offers)), bulk=True
                ),
            )
            evaluated = await client.submit(name, EvaluateRequest())
            await client.close()
            return evaluated.result().report.size, len(offers)

        results = await asyncio.gather(*(one(i) for i in range(tenants)))
        return results

    for size, expected in gateway_scenario(scenario, max_sessions=32):
        assert size == expected


def test_request_stats_csv_matches_access_log_columns():
    """The access-log satellite: rows from the gateway parse with the
    same exporter the service layer already ships."""
    offers = population(4, seed=2)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        response = await client.submit(
            "t", EvaluateRequest(offers=tuple(offers))
        )
        await client.close()
        return response.result()

    result = gateway_scenario(scenario)
    text = request_stats_to_csv([result])
    assert text.splitlines()[1].startswith("evaluate,reference,")
