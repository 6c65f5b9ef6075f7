"""The tenant gate guards every operation on a session.

A request holds its tenant's gate, then the gateway's, until its worker
thread returns; a ``DELETE`` takes the tenant's gate too, so it waits for
the running and queued requests and never closes a session a worker is
inside.  A request that reaches the front after a ``DELETE`` looks the
name up again: a 404 for an in-memory tenant.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.backend import NUMPY_AVAILABLE
from repro.server import Gateway, GatewayClient, GatewayConfig
from repro.service import EvaluateRequest, SessionConfig, StreamRequest
from repro.stream import population_events
from repro.workloads import neighbourhood_scenario

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)


def offers():
    return neighbourhood_scenario(households=4, seed=21, horizon=24).flex_offers


ARRIVALS = StreamRequest(events=tuple(population_events(offers())))


def run_gateway(coro_factory, **config_overrides):
    async def runner():
        gateway = Gateway(GatewayConfig(**config_overrides))
        try:
            return await coro_factory(gateway)
        finally:
            gateway.close()

    return asyncio.run(runner())


async def until(condition, timeout=5.0):
    """Yield to the loop until ``condition()`` holds; False on timeout.

    The caller asserts on the result only once its requests are done, so
    a failing check never leaves a request running at shutdown.
    """
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(0.001)
    return True


def hold_submits(session):
    """Make ``session.submit`` wait for ``release`` once it has entered."""
    entered, release = threading.Event(), threading.Event()
    real_submit = session.submit

    def held(request):
        entered.set()
        assert release.wait(5.0)
        return real_submit(request)

    session.submit = held
    return entered, release


async def delete_during(gateway, config, request):
    """DELETE a tenant while a worker runs ``request`` inside it.

    Returns the submit's and the DELETE's responses, in the order they
    completed, and whether the DELETE was still waiting after 0.2 s.
    """
    client = GatewayClient.in_process(gateway)
    deleter = GatewayClient.in_process(gateway)
    await client.create_session("t", config)
    entered, release = hold_submits(gateway.registry.entry("t").session)
    finished = []

    async def track(label, call):
        response = await call
        finished.append(label)
        return response

    try:
        submit = asyncio.ensure_future(
            track("submit", client.submit("t", request))
        )
        assert await asyncio.to_thread(entered.wait, 5.0)
        delete = asyncio.ensure_future(
            track("delete", deleter.evict_session("t"))
        )
        done, _ = await asyncio.wait({delete}, timeout=0.2)
        waited = not done
    finally:
        release.set()
    submitted, deleted = await asyncio.gather(submit, delete)
    await deleter.close()
    return client, submitted, deleted, finished, waited


def test_delete_waits_for_the_running_submit():
    async def scenario(gateway):
        client, submitted, deleted, finished, waited = await delete_during(
            gateway, {"backend": "reference"}, EvaluateRequest(offers=offers())
        )
        await client.close()
        return submitted, deleted, finished, waited, "t" in gateway.registry

    submitted, deleted, finished, waited, live = run_gateway(scenario)
    assert submitted.status == 200, submitted.payload
    assert deleted.status == 200, deleted.payload
    assert finished == ["submit", "delete"]
    assert waited
    assert not live


@requires_numpy
def test_delete_during_a_durable_stream_keeps_its_events(tmp_path):
    events = ARRIVALS.events

    async def scenario(gateway):
        client, submitted, deleted, finished, waited = await delete_during(
            gateway, {"backend": "numpy", "persist_fsync": False}, ARRIVALS
        )
        recovered = await client.session_stats("t")
        await client.close()
        return submitted, deleted, finished, waited, recovered

    submitted, deleted, finished, waited, recovered = run_gateway(
        scenario, persist_root=str(tmp_path)
    )
    assert submitted.status == 200, submitted.payload
    assert submitted.result().applied == len(events)
    assert deleted.status == 200, deleted.payload
    assert finished == ["submit", "delete"]
    assert waited
    assert recovered.status == 200
    assert recovered.payload["recovery"] is not None
    assert recovered.payload["live"] == len(offers())
    assert recovered.payload["engine"]["arrived"] == len(events)


def test_a_request_queued_behind_a_delete_is_a_404():
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        deleter = GatewayClient.in_process(gateway)
        late = GatewayClient.in_process(gateway)
        await client.create_session("t")
        gate = gateway.registry.entry("t").gate
        entered, release = hold_submits(gateway.registry.entry("t").session)
        try:
            submit = asyncio.ensure_future(client.submit("t", EvaluateRequest()))
            assert await asyncio.to_thread(entered.wait, 5.0)
            delete = asyncio.ensure_future(deleter.evict_session("t"))
            queued_in_order = await until(lambda: gate.waiting == 1)
            queued = asyncio.ensure_future(late.submit("t", EvaluateRequest()))
            queued_in_order &= await until(lambda: gate.waiting == 2)
        finally:
            release.set()
        responses = await asyncio.gather(submit, delete, queued)
        after = await late.submit("t", EvaluateRequest())
        for each in (client, deleter, late):
            await each.close()
        statuses = [response.status for response in responses]
        return statuses, queued_in_order, after

    statuses, queued_in_order, after = run_gateway(
        scenario, session_defaults=SessionConfig(backend="reference")
    )
    assert statuses == [200, 200, 404]
    assert queued_in_order
    assert after.status == 404
    assert after.payload["error"] == "unknown-session"


def test_delete_behind_a_full_tenant_queue_is_a_429():
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        deleter = GatewayClient.in_process(gateway)
        await client.create_session("t")
        entered, release = hold_submits(gateway.registry.entry("t").session)
        try:
            submit = asyncio.ensure_future(client.submit("t", EvaluateRequest()))
            assert await asyncio.to_thread(entered.wait, 5.0)
            refused = await deleter.evict_session("t")
        finally:
            release.set()
        submitted = await submit
        deleted = await deleter.evict_session("t")
        await client.close()
        await deleter.close()
        return refused, submitted, deleted

    refused, submitted, deleted = run_gateway(
        scenario,
        session_queue_depth=0,
        session_defaults=SessionConfig(backend="reference"),
    )
    assert refused.status == 429
    assert refused.retry_after is not None
    assert submitted.status == 200
    assert deleted.status == 200


def test_delete_of_a_tenant_that_is_not_live_recovers_nothing(tmp_path):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", {"backend": "reference"})
        await client.submit("t", ARRIVALS)
        first = await client.evict_session("t")
        second = await client.evict_session("t")
        await client.close()
        return first, second, gateway.registry.recovered, "t" in gateway.registry

    first, second, recovered, live = run_gateway(
        scenario, persist_root=str(tmp_path)
    )
    assert (tmp_path / "t" / "config.json").exists()
    assert first.status == 200
    assert second.status == 404
    assert second.payload["error"] == "unknown-session"
    assert recovered == 0
    assert not live


def test_a_request_during_the_delete_close_recovers_nothing(tmp_path):
    """The DELETE closes the session on a worker; a request arriving
    meanwhile finds the closing tenant and waits for it, instead of
    recovering a second session from the directory the close writes.
    Once the close has finished it looks the name up again and recovers
    the tenant, like a request that arrives after the close."""

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        deleter = GatewayClient.in_process(gateway)
        await client.create_session("t", {"backend": "reference"})
        await client.submit("t", ARRIVALS)
        entry = gateway.registry.entry("t")
        session = entry.session
        entered, release = threading.Event(), threading.Event()
        real_close = session.close

        def held_close():
            entered.set()
            assert release.wait(5.0)
            real_close()

        session.close = held_close
        try:
            delete = asyncio.ensure_future(deleter.evict_session("t"))
            assert await asyncio.to_thread(entered.wait, 5.0)
            during = asyncio.ensure_future(client.submit("t", EvaluateRequest()))
            waited = await until(lambda: entry.gate.waiting == 1)
            recovered_meanwhile = gateway.registry.recovered
        finally:
            release.set()
        deleted, answered = await asyncio.gather(delete, during)
        after = await client.submit("t", EvaluateRequest())
        await client.close()
        await deleter.close()
        recovered = gateway.registry.recovered
        return deleted, answered, waited, recovered_meanwhile, after, recovered

    deleted, answered, waited, recovered_meanwhile, after, recovered = (
        run_gateway(scenario, persist_root=str(tmp_path))
    )
    assert deleted.status == 200
    assert answered.status == 200
    assert waited
    assert recovered_meanwhile == 0
    assert after.status == 200
    assert recovered == 1


def test_a_slow_request_keeps_its_gate():
    """A request that runs for 0.3 s holds its tenant's gate the whole
    time: a second request never runs inside the session with it, and
    neither the idle sweep nor LRU eviction closes the tenant."""
    lock = threading.Lock()
    inside = [0, 0]  # now, most at once

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        other = GatewayClient.in_process(gateway)
        await client.create_session("slow")
        entry = gateway.registry.entry("slow")
        real_submit = entry.session.submit

        def slow(request):
            with lock:
                inside[0] += 1
                inside[1] = max(inside)
            try:
                time.sleep(0.3)
                return real_submit(request)
            finally:
                with lock:
                    inside[0] -= 1

        entry.session.submit = slow
        first = asyncio.ensure_future(client.submit("slow", EvaluateRequest()))
        second = asyncio.ensure_future(other.submit("slow", EvaluateRequest()))
        queued = await until(lambda: inside[0] == 1 and entry.gate.waiting == 1)
        busy = entry.gate.busy
        swept = gateway.registry.sweep(now=time.monotonic() + 60.0)
        newcomer = GatewayClient.in_process(gateway)
        crowded = await newcomer.create_session("newcomer")
        responses = await asyncio.gather(first, second)
        for each in (client, other, newcomer):
            await each.close()
        return queued, busy, swept, crowded, responses, entry.session.closed

    queued, busy, swept, crowded, responses, closed = run_gateway(
        scenario,
        max_sessions=1,
        idle_ttl=0.001,
        session_defaults=SessionConfig(backend="reference"),
    )
    assert queued and busy
    assert swept == []
    assert crowded.status == 429
    assert crowded.payload["error"] == "registry-full"
    assert [response.status for response in responses] == [200, 200]
    assert inside[1] == 1
    assert not closed
