"""Backpressure unit tests: gates, bounded queues, 429s, serialization."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.server import (
    ConcurrencyGate,
    Gateway,
    GatewayClient,
    GatewayConfig,
    SaturatedError,
)
from repro.server.limits import RETRY_AFTER_S
from repro.service import EvaluateRequest, SessionConfig, StreamRequest
from repro.stream import Tick


def test_gate_parameter_validation():
    with pytest.raises(ValueError):
        ConcurrencyGate(limit=0, max_pending=1)
    with pytest.raises(ValueError):
        ConcurrencyGate(limit=1, max_pending=-1)


def test_concurrency_gate_admits_up_to_limit_then_queues_then_rejects():
    gate = ConcurrencyGate(limit=2, max_pending=1)
    events = []

    async def holder(name, hold):
        async with gate.admit():
            events.append(f"{name}-in")
            await hold.wait()
        events.append(f"{name}-out")

    async def scenario():
        hold = asyncio.Event()
        first = asyncio.ensure_future(holder("a", hold))
        second = asyncio.ensure_future(holder("b", hold))
        await asyncio.sleep(0)  # both slots taken
        third = asyncio.ensure_future(holder("c", hold))
        await asyncio.sleep(0)  # c is waiting
        assert gate.waiting == 1
        with pytest.raises(SaturatedError) as excinfo:
            async with gate.admit():
                pass  # pragma: no cover - rejected before entry
        assert excinfo.value.retry_after == RETRY_AFTER_S
        assert gate.rejected == 1
        hold.set()
        await asyncio.gather(first, second, third)
        assert gate.waiting == 0
        assert gate.admitted == 3

    asyncio.run(scenario())
    assert events.count("a-in") == 1
    assert events.count("c-out") == 1


def test_session_gate_serialises_and_bounds_the_queue():
    """A tenant's gate is a one-slot ConcurrencyGate: requests run one at
    a time, ``max_pending`` of them queue, and ``busy`` covers both."""
    gate = ConcurrencyGate(limit=1, max_pending=1)
    order = []

    async def user(name, delay):
        async with gate.admit():
            order.append(name)
            await asyncio.sleep(delay)

    async def scenario():
        first = asyncio.ensure_future(user("first", 0.02))
        await asyncio.sleep(0)
        second = asyncio.ensure_future(user("second", 0))
        await asyncio.sleep(0)
        assert gate.busy
        assert gate.waiting == 1
        with pytest.raises(SaturatedError):
            async with gate.admit():
                pass  # pragma: no cover - rejected before entry
        await asyncio.gather(first, second)
        assert order == ["first", "second"]
        assert gate.admitted == 2
        assert gate.rejected == 1
        assert not gate.busy

    asyncio.run(scenario())


def test_stream_ingest_flood_on_one_session_is_bounded():
    """The per-tenant queue satellite: a tenant flooding StreamRequest
    ingest gets 429s once its bounded queue fills; every accepted event
    is applied exactly once."""
    flood = 24
    depth = 2

    async def scenario():
        gateway = Gateway(
            GatewayConfig(
                max_pending=flood + 8,
                session_queue_depth=depth,
                session_defaults=SessionConfig(backend="reference"),
            )
        )
        try:
            setup = GatewayClient.in_process(gateway)
            await setup.create_session("flooded")
            # Slow the session down so the flood deterministically overlaps
            # the executing request (and fills the bounded queue).
            entry = gateway.registry.entry("flooded")
            real_submit = entry.session.submit

            def sluggish(request):
                import time

                time.sleep(0.02)
                return real_submit(request)

            entry.session.submit = sluggish

            async def one(index):
                client = GatewayClient.in_process(gateway)
                response = await client.submit(
                    "flooded", StreamRequest(events=(Tick(index),))
                )
                await client.close()
                return response

            responses = await asyncio.gather(*(one(i) for i in range(flood)))
            stats = await setup.session_stats("flooded")
            await setup.close()
            return responses, stats.payload, gateway
        finally:
            gateway.close()

    responses, stats, gateway = asyncio.run(scenario())
    accepted = [r for r in responses if r.status == 200]
    rejected = [r for r in responses if r.status == 429]
    assert len(accepted) + len(rejected) == flood
    assert rejected, "a depth-2 queue must shed a 24-deep flood"
    assert all(r.payload["error"] == "saturated" for r in rejected)
    assert all(r.retry_after is not None for r in rejected)
    # Accepted events were applied exactly once each; nothing was lost
    # or double-applied on the way through the bounded queue.
    assert stats["engine"]["events"] == len(accepted)
    assert stats["rejected"] == len(rejected)


def test_global_and_session_gates_compose():
    """A busy tenant cannot starve the gateway: other tenants keep being
    served while one tenant's queue rejects its own overflow."""

    async def scenario():
        gateway = Gateway(
            GatewayConfig(
                workers=4,
                max_pending=64,
                session_queue_depth=2,
                session_defaults=SessionConfig(backend="reference"),
            )
        )
        try:
            setup = GatewayClient.in_process(gateway)
            await setup.create_session("noisy")
            await setup.create_session("quiet")
            # Slow only the noisy tenant so its 10-deep flood overflows
            # its depth-2 queue while the quiet tenant sails through.
            entry = gateway.registry.entry("noisy")
            real_submit = entry.session.submit

            def sluggish(request):
                import time

                time.sleep(0.03)
                return real_submit(request)

            entry.session.submit = sluggish

            async def submit_to(name):
                client = GatewayClient.in_process(gateway)
                response = await client.submit(name, EvaluateRequest())
                await client.close()
                return response.status

            noisy = [submit_to("noisy") for _ in range(10)]
            quiet = [submit_to("quiet") for _ in range(3)]
            statuses = await asyncio.gather(*noisy, *quiet)
            await setup.close()
            return statuses[: len(noisy)], statuses[len(noisy):]
        finally:
            gateway.close()

    noisy_statuses, quiet_statuses = asyncio.run(scenario())
    assert quiet_statuses == [200, 200, 200]
    assert 429 in noisy_statuses  # the noisy tenant sheds its own flood
    assert 200 in noisy_statuses  # but still gets served


def test_a_request_queued_behind_its_tenant_holds_no_worker_slot():
    """A request takes its tenant's gate before a worker slot, so a slow
    tenant's queue waits at its own gate: with two workers, another
    tenant's request runs at once and finishes before the slow tenant's
    first one does."""

    async def scenario():
        gateway = Gateway(
            GatewayConfig(
                workers=2, session_defaults=SessionConfig(backend="reference")
            )
        )
        try:
            setup = GatewayClient.in_process(gateway)
            await setup.create_session("slow")
            await setup.create_session("quiet")
            entry = gateway.registry.entry("slow")
            real_submit = entry.session.submit

            def sluggish(request):
                time.sleep(0.3)
                return real_submit(request)

            entry.session.submit = sluggish
            finished = []

            async def submit_to(name):
                client = GatewayClient.in_process(gateway)
                response = await client.submit(name, EvaluateRequest())
                await client.close()
                finished.append(name)
                return response.status

            slow = [asyncio.ensure_future(submit_to("slow")) for _ in range(3)]
            await asyncio.sleep(0.05)  # all three are at their gates
            quiet = await submit_to("quiet")
            statuses = await asyncio.gather(*slow)
            await setup.close()
            return finished, [quiet, *statuses]
        finally:
            gateway.close()

    finished, statuses = asyncio.run(scenario())
    assert statuses == [200, 200, 200, 200]
    assert finished[0] == "quiet"


def test_submit_runs_to_completion():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(session_defaults=SessionConfig(backend="reference"))
        )
        try:
            client = GatewayClient.in_process(gateway)
            await client.create_session("unhurried")
            response = await client.submit("unhurried", EvaluateRequest())
            await client.close()
            return response.status
        finally:
            gateway.close()

    assert asyncio.run(scenario()) == 200
