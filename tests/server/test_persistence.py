"""Gateway/registry durability: checkpoint route, lazy tenant recovery,
checkpoint-then-close eviction and the session-name path guard."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.server import (
    BadRequestError,
    Gateway,
    GatewayClient,
    GatewayConfig,
    SessionRegistry,
    UnknownSessionError,
)
from repro.service import FlexSession, SessionConfig, StreamRequest
from repro.stream import population_events
from repro.workloads import neighbourhood_scenario

DURABLE = {"backend": "reference", "persist_fsync": False}


def offers():
    return neighbourhood_scenario(households=4, seed=21, horizon=24).flex_offers


def arrival_events():
    return tuple(population_events(offers()))


def fingerprint(session: FlexSession) -> str:
    return json.dumps(session.engine.export_state(), sort_keys=True)


def gateway_scenario(coro_factory, **config_overrides):
    async def runner():
        gateway = Gateway(GatewayConfig(**config_overrides))
        try:
            return await coro_factory(gateway)
        finally:
            gateway.close()

    return asyncio.run(runner())


# --------------------------------------------------------------------- #
# The checkpoint route
# --------------------------------------------------------------------- #
def test_checkpoint_route_roundtrip(tmp_path):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("acme", DURABLE)
        ingest = await client.submit("acme", StreamRequest(events=arrival_events()))
        assert ingest.ok

        checkpointed = await client.checkpoint("acme")
        assert checkpointed.status == 200
        assert checkpointed.payload["kind"] == "checkpoint"
        assert checkpointed.payload["name"] == "acme"
        assert checkpointed.payload["snapshot_seq"] == len(arrival_events())
        assert checkpointed.payload["live"] == len(offers())

        stats = await client.session_stats("acme")
        assert stats.payload["persistence"]["checkpoints"] == 1
        await client.close()

    gateway_scenario(scenario, persist_root=str(tmp_path))


def test_checkpoint_unknown_session_is_404(tmp_path):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        missing = await client.checkpoint("ghost")
        assert missing.status == 404
        await client.close()

    gateway_scenario(scenario, persist_root=str(tmp_path))


def test_checkpoint_without_persistence_is_400():
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("ephemeral", {"backend": "reference"})
        refused = await client.checkpoint("ephemeral")
        assert refused.status == 400
        assert "persist_dir" in refused.payload["detail"]
        await client.close()

    gateway_scenario(scenario)  # no persist_root


# --------------------------------------------------------------------- #
# The session-name path guard
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name",
    ["..evil", "a/../b", ".hidden", "-dash-first", "", "x" * 129, "semi;colon"],
)
def test_invalid_session_names_are_400(tmp_path, name):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        refused = await client.create_session(name or "%20", DURABLE)
        # Names with a path separator never even address the route (404);
        # the rest hit the 400 name guard.
        assert refused.status in (400, 404)
        # Whatever the rejection path, nothing ever touched the disk.
        assert list(tmp_path.iterdir()) == []
        await client.close()

    gateway_scenario(scenario, persist_root=str(tmp_path))


def test_name_guard_applies_without_persistence_too():
    registry = SessionRegistry(
        max_sessions=2, default_config=SessionConfig(backend="reference")
    )
    try:
        with pytest.raises(BadRequestError):
            registry.create("../escape")
    finally:
        registry.close()


# --------------------------------------------------------------------- #
# Lazy recovery across restarts
# --------------------------------------------------------------------- #
def test_gateway_restart_recovers_tenant_on_first_request(tmp_path):
    events = arrival_events()

    async def first_run(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("acme", DURABLE)
        await client.submit("acme", StreamRequest(events=events))
        await client.close()

    async def second_run(gateway):
        client = GatewayClient.in_process(gateway)
        listing = await client.request("GET", "/sessions")
        assert listing.payload["sessions"] == []  # not resident yet

        stats = await client.session_stats("acme")  # first touch recovers
        assert stats.status == 200
        assert stats.payload["live"] == len(offers())
        assert stats.payload["recovery"]["replayed"] == 0  # closed gracefully

        health = await client.health()
        assert health.payload["registry"]["recovered"] == 1
        assert health.payload["registry"]["persist_root"] == str(tmp_path)
        await client.close()

    gateway_scenario(first_run, persist_root=str(tmp_path))
    gateway_scenario(second_run, persist_root=str(tmp_path))


def test_unknown_tenant_stays_404_after_restart(tmp_path):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        missing = await client.session_stats("never-created")
        assert missing.status == 404
        await client.close()

    gateway_scenario(scenario, persist_root=str(tmp_path))


def test_recovery_honours_the_persisted_config(tmp_path):
    registry = SessionRegistry(
        max_sessions=4,
        default_config=SessionConfig(backend="reference"),
        persist_root=str(tmp_path),
    )
    try:
        created = registry.create(
            "tenant", SessionConfig(backend="reference", seed=42, persist_fsync=False)
        )
        created.stream(StreamRequest(events=arrival_events()))
        registry.evict("tenant")

        recovered = registry.get("tenant")  # lazy recovery
        assert recovered.config.seed == 42
        assert recovered.config.persist_dir == str(tmp_path / "tenant")
        assert registry.recovered == 1
    finally:
        registry.close()


def test_config_with_the_retired_window_kernel_key_recovers(tmp_path):
    """``config.json`` files written while ``SessionConfig`` still had a
    ``window_kernel`` field carry that key; recovery drops it and the
    backend picks the kernel, with the same answers as before."""
    config = SessionConfig(window_capacity=4, **DURABLE)
    registry = SessionRegistry(persist_root=str(tmp_path))
    try:
        session = registry.create("tenant", config)
        session.stream(StreamRequest(events=arrival_events()))
        evaluated = session.evaluate().values
        aggregates = session.aggregate().aggregates
    finally:
        registry.close()
    path = tmp_path / "tenant" / "config.json"
    payload = json.loads(path.read_text())
    payload["window_kernel"] = "array"
    path.write_text(json.dumps(payload))

    restarted = SessionRegistry(persist_root=str(tmp_path))
    try:
        recovered = restarted.get("tenant")
        assert restarted.recovered == 1
        assert recovered.engine.window_kernel == "scalar"
        assert recovered.evaluate().values == evaluated
        assert recovered.aggregate().aggregates == aggregates
    finally:
        restarted.close()


# --------------------------------------------------------------------- #
# Evicted-then-recovered bit-identity (satellite #3)
# --------------------------------------------------------------------- #
def test_evicted_tenant_recovers_bit_identically(tmp_path):
    events = arrival_events()
    registry = SessionRegistry(
        max_sessions=4,
        default_config=SessionConfig(backend="reference", persist_fsync=False),
        persist_root=str(tmp_path),
    )
    try:
        session = registry.create("acme")
        session.stream(StreamRequest(events=events))
        before = fingerprint(session)

        registry.evict("acme")  # checkpoint-then-close
        assert session.closed

        recovered = registry.get("acme")
        assert recovered is not session
        assert recovered.recovery is not None
        assert recovered.recovery.replayed == 0  # eviction checkpointed
        assert fingerprint(recovered) == before

        # And it matches a solo session fed the same events end to end.
        with FlexSession(SessionConfig(backend="reference")) as solo:
            solo.stream(StreamRequest(events=events))
            assert fingerprint(recovered) == fingerprint(solo)
    finally:
        registry.close()


def test_lru_cap_eviction_also_checkpoints(tmp_path):
    registry = SessionRegistry(
        max_sessions=2,
        default_config=SessionConfig(backend="reference", persist_fsync=False),
        persist_root=str(tmp_path),
    )
    try:
        victim = registry.create("old")
        victim.stream(StreamRequest(events=arrival_events()))
        registry.create("mid")
        registry.create("new")  # caps out; evicts "old"
        assert victim.closed
        assert "old" not in registry

        recovered = registry.get("old")  # displaces the LRU again
        assert recovered.recovery.replayed == 0
        assert len(registry) == 2
    finally:
        registry.close()
