"""The tenant lifecycle runs off the event loop.

A tenant's session is built (create or recovery) and closed (``DELETE``,
LRU eviction, the idle sweep) on a worker thread, inside the tenant's
gate and never under the registry's lock.  While one of those is held,
the loop keeps answering ``/healthz`` and other tenants.

A hold is a :class:`threading.Event`.  The held call gives up after
:data:`WATCHDOG_S` on its own, so a build that runs it on the event loop
(where nothing else can release it) fails its checks instead of hanging.
"""

from __future__ import annotations

import asyncio
import threading

from repro.server import Gateway, GatewayClient, GatewayConfig, GatewayServer
from repro.service import EvaluateRequest, FlexSession, StreamRequest
from repro.stream import population_events
from repro.workloads import neighbourhood_scenario

DURABLE = {"backend": "reference", "persist_fsync": False}

#: Seconds after which a held call stops waiting for its release.
WATCHDOG_S = 5.0


def arrivals():
    offers = neighbourhood_scenario(households=4, seed=21, horizon=24).flex_offers
    return StreamRequest(events=tuple(population_events(offers)))


def run_gateway(coro_factory, **config_overrides):
    async def runner():
        gateway = Gateway(GatewayConfig(**config_overrides))
        try:
            return await coro_factory(gateway)
        finally:
            gateway.close()

    return asyncio.run(runner())


class Hold:
    """Hold ``FlexSession.<method>`` for the sessions ``match`` picks.

    ``inside`` is true while a held call waits; the test reads it when
    its other requests have answered, then sets ``release``.
    """

    def __init__(self, monkeypatch, method, match):
        self.entered, self.release = threading.Event(), threading.Event()
        self.inside = False
        real = getattr(FlexSession, method)

        def held(session, *args, **kwargs):
            if match(session, *args):
                self.inside = True
                self.entered.set()
                self.release.wait(WATCHDOG_S)
                self.inside = False
            return real(session, *args, **kwargs)

        monkeypatch.setattr(FlexSession, method, held)

    async def until_entered(self):
        assert await asyncio.to_thread(self.entered.wait, WATCHDOG_S)


def recovery_of(tmp_path, name):
    """A ``match`` for the build of ``name``'s durable session."""
    directory = str(tmp_path / name)
    return lambda session, config=None, **_: (
        config is not None and config.persist_dir == directory
    )


def persist_tenant(tmp_path, name):
    """Leave ``name`` persisted under ``tmp_path`` with some events."""

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session(name, DURABLE)
        await client.submit(name, arrivals())
        await client.close()

    run_gateway(scenario, persist_root=str(tmp_path))


async def others_answer(gateway, tenant):
    """``/healthz`` and a request to ``tenant``, through fresh clients."""
    probe = GatewayClient.in_process(gateway)
    health = await probe.health()
    served = await probe.submit(tenant, EvaluateRequest())
    await probe.close()
    return health.status, served.status


def test_the_loop_answers_while_a_recovery_is_held(tmp_path, monkeypatch):
    persist_tenant(tmp_path, "acme")

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("other", DURABLE)
        hold = Hold(monkeypatch, "__init__", recovery_of(tmp_path, "acme"))
        try:
            first = asyncio.ensure_future(client.submit("acme", EvaluateRequest()))
            await hold.until_entered()
            answers = await others_answer(gateway, "other")
            held = hold.inside
        finally:
            hold.release.set()
        recovered = await first
        await client.close()
        return answers, held, recovered.status, gateway.registry.recovered

    answers, held, recovered, count = run_gateway(
        scenario, persist_root=str(tmp_path)
    )
    assert answers == (200, 200)
    assert held
    assert recovered == 200
    assert count == 1


def test_the_loop_answers_while_an_lru_eviction_close_is_held(
    tmp_path, monkeypatch
):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("victim", DURABLE)
        await client.submit("victim", arrivals())
        await client.create_session("other", DURABLE)
        await client.submit("other", EvaluateRequest())  # victim is the LRU
        victim = gateway.registry._entries["victim"].session
        hold = Hold(monkeypatch, "close", lambda session: session is victim)
        try:
            put = asyncio.ensure_future(client.create_session("newcomer", DURABLE))
            await hold.until_entered()
            answers = await others_answer(gateway, "other")
            held = hold.inside
        finally:
            hold.release.set()
        created = await put
        await client.close()
        names = gateway.registry.names()
        return answers, held, created.status, victim.closed, names

    answers, held, created, closed, names = run_gateway(
        scenario, persist_root=str(tmp_path), max_sessions=2
    )
    assert answers == (200, 200)
    assert held
    assert created == 201
    assert closed
    assert sorted(names) == ["newcomer", "other"]


class _NoListener:
    """The listener surface :class:`GatewayServer` closes, without a socket."""

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def test_the_loop_answers_while_a_ttl_sweep_close_is_held(monkeypatch):
    async def scenario():
        gateway = Gateway(GatewayConfig(idle_ttl=0.05))
        client = GatewayClient.in_process(gateway)
        await client.create_session("victim", {"backend": "reference"})
        victim = gateway.registry._entries["victim"].session
        hold = Hold(monkeypatch, "close", lambda session: session is victim)
        server = GatewayServer(gateway, _NoListener())
        try:
            try:
                await hold.until_entered()
                created = await client.create_session("other", {"backend": "reference"})
                answers = await others_answer(gateway, "other")
                held = hold.inside
            finally:
                hold.release.set()
            await client.close()
        finally:
            await server.close()
        return created.status, answers, held, victim.closed, gateway.registry.expired

    created, answers, held, closed, expired = asyncio.run(scenario())
    assert created == 201
    assert answers == (200, 200)
    assert held
    assert closed
    assert expired >= 1


def test_concurrent_first_requests_recover_a_tenant_once(tmp_path, monkeypatch):
    persist_tenant(tmp_path, "acme")

    async def scenario(gateway):
        first = GatewayClient.in_process(gateway)
        second = GatewayClient.in_process(gateway)
        hold = Hold(monkeypatch, "__init__", recovery_of(tmp_path, "acme"))
        try:
            a = asyncio.ensure_future(first.submit("acme", EvaluateRequest()))
            await hold.until_entered()
            b = asyncio.ensure_future(second.submit("acme", EvaluateRequest()))
            gate = gateway.registry._entries["acme"].gate
            while gate.waiting == 0 and hold.inside:
                await asyncio.sleep(0.001)
            queued_while_held = gate.waiting == 1 and hold.inside
            before = gateway.registry.recovered
        finally:
            hold.release.set()
        statuses = [response.status for response in await asyncio.gather(a, b)]
        for client in (first, second):
            await client.close()
        return statuses, queued_while_held, before, gateway.registry.recovered

    statuses, queued_while_held, before, after = run_gateway(
        scenario, persist_root=str(tmp_path)
    )
    assert statuses == [200, 200]
    assert queued_while_held
    assert (before, after) == (0, 1)


class OwnedLock:
    """A re-entrant lock that knows which thread holds it."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.owner = None
        self.depth = 0

    def __enter__(self):
        self._lock.acquire()
        self.owner = threading.get_ident()
        self.depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self.depth -= 1
        if self.depth == 0:
            self.owner = None
        self._lock.release()


def test_no_session_is_built_or_closed_on_the_loop_or_under_the_lock(
    tmp_path, monkeypatch
):
    """Create, recovery, stats, checkpoint, LRU eviction and DELETE all
    build and close sessions on workers, outside the registry's lock;
    only shutdown closes on the caller's thread."""
    records = []
    real_init, real_close = FlexSession.__init__, FlexSession.close

    def record(what):
        lock = gateway_lock[0]
        on_loop = threading.get_ident() == loop_thread[0]
        records.append((what, on_loop, lock.owner == threading.get_ident()))

    def init(session, *args, **kwargs):
        record("build")
        real_init(session, *args, **kwargs)

    def close(session):
        if not session.closed:
            record("close")
        real_close(session)

    monkeypatch.setattr(FlexSession, "__init__", init)
    monkeypatch.setattr(FlexSession, "close", close)
    gateway_lock, loop_thread = [None], [None]

    async def scenario(gateway):
        loop_thread[0] = threading.get_ident()
        gateway.registry._lock = gateway_lock[0] = OwnedLock()
        client = GatewayClient.in_process(gateway)
        statuses = [
            (await client.create_session("a", DURABLE)).status,
            (await client.submit("a", arrivals())).status,
            (await client.create_session("b", DURABLE)).status,
            (await client.create_session("c", DURABLE)).status,  # evicts a
            (await client.submit("a", EvaluateRequest())).status,  # recovers a
            (await client.session_stats("a")).status,
            (await client.checkpoint("a")).status,
            (await client.evict_session("a")).status,
        ]
        await client.close()
        return statuses, list(records)

    statuses, serving = run_gateway(
        scenario, persist_root=str(tmp_path), max_sessions=2
    )
    assert statuses == [201, 200, 201, 201, 200, 200, 200, 200]
    assert [what for what, _, _ in serving].count("build") == 4
    assert [what for what, _, _ in serving].count("close") == 3
    assert [entry for entry in serving if entry[1] or entry[2]] == []


def test_a_create_refused_by_a_full_pool_can_be_retried():
    """A ``PUT`` builds its session on a worker, so a full worker pool
    refuses it with a 429; the unopened entry it left does not turn the
    retry into a 409."""

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        creator = GatewayClient.in_process(gateway)
        await client.create_session("busy", {"backend": "reference"})
        entered, release = threading.Event(), threading.Event()
        session = gateway.registry.entry("busy").session
        real_submit = session.submit

        def held(request):
            entered.set()
            release.wait(WATCHDOG_S)
            return real_submit(request)

        session.submit = held
        try:
            running = asyncio.ensure_future(client.submit("busy", EvaluateRequest()))
            assert await asyncio.to_thread(entered.wait, WATCHDOG_S)
            refused = await creator.create_session("new", {"backend": "reference"})
        finally:
            release.set()
        await running
        retried = await creator.create_session("new", {"backend": "reference"})
        again = await creator.create_session("new", {"backend": "reference"})
        for each in (client, creator):
            await each.close()
        return refused, retried.status, again.status

    refused, retried, again = run_gateway(scenario, workers=1, max_pending=0)
    assert refused.status == 429
    assert refused.retry_after is not None
    assert (retried, again) == (201, 409)


def test_a_session_that_fails_to_build_leaves_the_registry(tmp_path, monkeypatch):
    """A recovery that raises answers with its error and drops the entry,
    so the next request for the name tries the recovery again."""
    persist_tenant(tmp_path, "acme")
    real_init = FlexSession.__init__
    failures = [RuntimeError("disk on fire")]

    def flaky(session, *args, **kwargs):
        if failures and recovery_of(tmp_path, "acme")(session, *args):
            raise failures.pop()
        real_init(session, *args, **kwargs)

    monkeypatch.setattr(FlexSession, "__init__", flaky)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        failed = await client.submit("acme", EvaluateRequest())
        names = gateway.registry.names()
        retried = await client.submit("acme", EvaluateRequest())
        await client.close()
        return failed, names, retried.status, gateway.registry.recovered

    failed, names, retried, recovered = run_gateway(
        scenario, persist_root=str(tmp_path)
    )
    assert failed.status == 500
    assert "disk on fire" in failed.payload["detail"]
    assert names == []
    assert (retried, recovered) == (200, 1)
