"""Gateway/registry durability: checkpoint route, lazy tenant recovery,
checkpoint-then-close eviction, the session-name path guard, the
operator-only settings of a ``PUT`` body and its merge over the
operator's defaults."""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

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
from repro.stream import Tick, population_events
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


def test_a_put_body_may_not_choose_the_persist_dir(tmp_path):
    """The directory a tenant writes to is the operator's ``persist_root``
    plus the guarded name; a body naming its own ``persist_dir`` is
    refused before anything touches the disk."""
    root, elsewhere = tmp_path / "root", tmp_path / "elsewhere"
    root.mkdir()

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        refused = await client.create_session(
            "acme", {**DURABLE, "persist_dir": str(elsewhere)}
        )
        assert refused.status == 400
        assert refused.payload["error"] == "bad-request"
        assert "persist_dir" in refused.payload["detail"]
        assert gateway.registry.names() == []
        await client.close()

    gateway_scenario(scenario, persist_root=str(root))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["root"]
    assert list(root.iterdir()) == []


def test_a_put_body_naming_a_cluster_serves_on_threads(monkeypatch):
    """``cluster`` is a retired field: a body that names one (as a client
    of the deleted remote executor would) is treated like any other
    retired key.  The tenant is created from the rest of the body, serves
    on the thread pool and dials nothing."""
    import socket

    dialled = []
    monkeypatch.setattr(
        socket, "create_connection", lambda *args, **kw: dialled.append(args)
    )

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        for name, cluster in (
            ("by-string", "127.0.0.1:1"),
            ("by-spec", {"hosts": ["127.0.0.1:1"]}),
        ):
            created = await client.create_session(
                name,
                {"backend": "sharded", "shards": 2,
                 "shard_min_population": 1, "cluster": cluster},
            )
            assert created.status == 201
            assert "cluster" not in created.payload["config"]
            assert created.payload["config"]["shards"] == 2
            ingest = await client.submit(
                name, StreamRequest(events=arrival_events())
            )
            assert ingest.ok
            backend = gateway.registry.get(name)._backend
            assert isinstance(backend._executor(), ThreadPoolExecutor)
        await client.close()

    gateway_scenario(scenario)
    assert dialled == []


def test_a_put_body_is_merged_over_the_session_defaults():
    """A body names only what it changes: every other field keeps its
    ``session_defaults`` value, and an operator field sent as ``null``
    keeps the default's."""
    defaults = SessionConfig(
        backend="reference", checkpoint_events=7, window_capacity=3
    )
    sharded = SessionConfig(backend="sharded", shards=2)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        created = await client.create_session("b", {"seed": 5})
        await client.close()
        return created

    created = gateway_scenario(scenario, session_defaults=defaults)
    assert created.status == 201
    assert created.payload["config"] == {**defaults.as_dict(), "seed": 5}

    created = gateway_scenario(scenario, session_defaults=sharded)
    assert created.status == 201
    assert created.payload["backend"] == "sharded"
    assert created.payload["config"]["shards"] == 2

    async def null_operator_field(gateway):
        client = GatewayClient.in_process(gateway)
        created = await client.create_session(
            "b", {**sharded.as_dict(), "persist_dir": None, "shards": 3}
        )
        await client.close()
        return created

    created = gateway_scenario(null_operator_field, session_defaults=sharded)
    assert created.status == 201
    assert created.payload["config"] == {**sharded.as_dict(), "shards": 3}


def test_a_put_cannot_re_create_a_persisted_tenant_under_another_config(
    tmp_path,
):
    """A tenant that is on disk but not live comes back under its saved
    ``config.json``: a body that restates it (or no body) recovers it, a
    body that differs is a 409 — the live session would otherwise diverge
    from the one the next restart recovers."""
    saved = {**DURABLE, "auto_expire": False}

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("acme", saved)
        await client.submit("acme", StreamRequest(events=arrival_events()))
        await client.evict_session("acme")

        refused = await client.create_session(
            "acme", {**saved, "auto_expire": True}
        )
        assert refused.status == 409
        assert refused.payload["error"] == "session-exists"
        assert gateway.registry.names() == []

        restated = await client.create_session("acme", saved)
        assert restated.status == 201
        assert restated.payload["config"]["auto_expire"] is False
        assert (await client.session_stats("acme")).payload["live"] == len(
            offers()
        )
        await client.evict_session("acme")

        bare = await client.create_session("acme")
        assert bare.status == 201
        assert bare.payload["config"]["auto_expire"] is False
        assert gateway.registry.recovered == 2
        await client.close()

    gateway_scenario(scenario, persist_root=str(tmp_path))
    saved_config = json.loads((tmp_path / "acme" / "config.json").read_text())
    assert saved_config["auto_expire"] is False


def test_name_guard_applies_without_persistence_too():
    registry = SessionRegistry(
        max_sessions=2, default_config=SessionConfig(backend="reference")
    )
    try:
        with pytest.raises(BadRequestError):
            registry.create("../escape")
    finally:
        registry.close()


@pytest.mark.parametrize("name", ["abc\n", "tenant-1.b\n"])
def test_a_name_with_a_newline_is_refused_before_the_disk(tmp_path, name):
    """A newline is not in ``[A-Za-z0-9._-]``, at the end of a name
    either: ``create`` and ``reserve`` refuse it and make no directory."""
    registry = SessionRegistry(
        max_sessions=2,
        default_config=SessionConfig(backend="reference"),
        persist_root=str(tmp_path),
    )
    try:
        with pytest.raises(BadRequestError):
            registry.create(name)
        with pytest.raises(BadRequestError):
            registry.reserve(name)
        assert len(registry) == 0
        assert list(tmp_path.iterdir()) == []
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
    ``window_kernel`` field carry that key; recovery drops it and gives
    the same answers and window summaries as before."""
    config = SessionConfig(window_capacity=4, **DURABLE)
    registry = SessionRegistry(persist_root=str(tmp_path))
    try:
        session = registry.create("tenant", config)
        session.stream(StreamRequest(events=arrival_events()))
        session.stream(StreamRequest(events=(Tick(1), Tick(2))))
        evaluated = session.evaluate().values
        aggregates = session.aggregate().aggregates
        windows = session.engine.tracker.summary()
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
        assert recovered.engine.tracker.summary() == windows
        assert all(block["count"] == 2.0 for block in windows.values())
        assert recovered.evaluate().values == evaluated
        assert recovered.aggregate().aggregates == aggregates
    finally:
        restarted.close()


def _recover_with_saved_key(tmp_path, key, value):
    """Run a durable sharded tenant, write ``key: value`` into its
    ``config.json`` the way a release that had the option saved it, and
    recover it: ``(answers before, recovered session, answers after)``."""
    config = SessionConfig(
        backend="sharded", shards=2, shard_min_population=1,
        persist_fsync=False,
    )
    registry = SessionRegistry(persist_root=str(tmp_path))
    try:
        session = registry.create("tenant", config)
        session.stream(StreamRequest(events=arrival_events()))
        before = (session.evaluate().values, session.aggregate().aggregates)
    finally:
        registry.close()
    path = tmp_path / "tenant" / "config.json"
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))

    restarted = SessionRegistry(persist_root=str(tmp_path))
    recovered = restarted.get("tenant")
    assert restarted.recovered == 1
    after = (recovered.evaluate().values, recovered.aggregate().aggregates)
    return before, restarted, recovered, after


def test_config_with_the_retired_process_executor_recovers(tmp_path):
    """``config.json`` files of sessions that ran on the retired process
    pool name ``"shard_executor": "process"``; recovery runs them on the
    thread executor, with the same answers as before."""
    before, restarted, recovered, after = _recover_with_saved_key(
        tmp_path, "shard_executor", "process"
    )
    try:
        assert isinstance(recovered._backend._executor(), ThreadPoolExecutor)
        assert after == before
    finally:
        restarted.close()


@pytest.mark.parametrize(
    "key, value",
    [
        ("shard_executor", "thread"),
        ("shard_hedge_ms", 5),
        ("compact_threshold", 0.75),
        ("cluster", {"hosts": ["127.0.0.1:1"]}),
        ("cluster", None),
        ("shard_executor", "remote"),
        ("shard_retries", 2),
    ],
)
def test_config_with_a_retired_key_recovers(tmp_path, monkeypatch, key, value):
    """Every retired option's key is dropped on load; the tenant recovers
    on the thread executor with identical answers.  A config saved by the
    deleted remote executor (its cluster, a ``null`` one, or
    ``"shard_executor": "remote"``) dials nothing, even with the retired
    ``REPRO_CLUSTER`` set."""
    import socket

    monkeypatch.setenv("REPRO_CLUSTER", "127.0.0.1:1")
    dialled = []
    monkeypatch.setattr(
        socket, "create_connection", lambda *args, **kw: dialled.append(args)
    )
    before, restarted, recovered, after = _recover_with_saved_key(
        tmp_path, key, value
    )
    try:
        assert isinstance(recovered._backend._executor(), ThreadPoolExecutor)
        assert after == before
        assert dialled == []
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


# --------------------------------------------------------------------- #
# A torn config.json is refused, not forgotten
# --------------------------------------------------------------------- #
def _tenant_files(directory):
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize(
    "route",
    ["get", "post-request", "put-with-body", "put-without-body"],
)
def test_a_torn_config_is_refused_not_forgotten(tmp_path, route):
    """A durable tenant whose ``config.json`` cannot be read answers 503
    ``state-corrupt`` naming the file: never a 404, never a recovery under
    a ``PUT`` body's config, and no file in its directory changes."""

    async def first_run(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("acme", {**DURABLE, "seed": 42})
        await client.submit("acme", StreamRequest(events=arrival_events()))
        await client.close()

    gateway_scenario(first_run, persist_root=str(tmp_path))
    directory = tmp_path / "acme"
    (directory / "config.json").write_text("{torn")
    before = _tenant_files(directory)

    async def second_run(gateway):
        client = GatewayClient.in_process(gateway)
        if route == "get":
            response = await client.session_stats("acme")
        elif route == "post-request":
            response = await client.submit("acme", StreamRequest(events=(Tick(5),)))
        elif route == "put-with-body":
            response = await client.create_session("acme", {**DURABLE, "seed": 7})
        else:
            response = await client.create_session("acme")
        assert gateway.registry.names() == []
        await client.close()
        return response

    response = gateway_scenario(second_run, persist_root=str(tmp_path))
    assert response.status == 503
    assert response.payload["error"] == "state-corrupt"
    assert str(directory / "config.json") in response.payload["detail"]
    assert _tenant_files(directory) == before
