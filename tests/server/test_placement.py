"""Which thread serves a request: the event loop or a pool worker.

Once both gates admit a submit for a ``live`` tenant, the gateway runs it
on the loop thread when the tenant's last request of the same type took
at most one thread switch interval of CPU time and had a body at least
as large, and
on the worker pool otherwise.  Building and closing sessions, streams
that change the population or fsync their WAL commit, tenants at their
``shard_min_population`` and every request under a fault plan (the
gateway's or the tenant's) keep the pool.

Each test records, inside ``FlexSession.submit`` (and the session's build
and close), whether the call ran on the loop's thread.  The gateway reads
the switch interval per request; the ``placed`` fixture pins what it
reads to :data:`THRESHOLD_S`, so a cheap request counts as cheap whatever
interval the interpreter runs with.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import pytest

from repro.core import FlexOffer
from repro.faults import GATEWAY_DISPATCH, WAL_APPEND, FaultPlan, FaultRule
from repro.server import Gateway, GatewayClient, GatewayConfig
from repro.service import (
    AggregateRequest,
    EvaluateRequest,
    FlexSession,
    ScheduleRequest,
    StreamRequest,
    TradeRequest,
)
from repro.stream import OfferExpired, Tick, population_events

REFERENCE = {"backend": "reference"}

#: The switch interval the gateway reads in these tests (seconds).
THRESHOLD_S = 1.0

LOOP, POOL = "loop", "pool"

#: The interpreter's own switch interval, read past the ``placed`` pin.
SWITCH_INTERVAL = sys.getswitchinterval


def ingest(bulk: bool = True, first: int = 1) -> StreamRequest:
    offers = [
        FlexOffer(first + i, first + i + 3, [(1, 3), (0, 2)], name=f"offer-{first}-{i}")
        for i in range(6)
    ]
    return StreamRequest(events=tuple(population_events(offers)), bulk=bulk)


def burn(seconds: float) -> None:
    """Spend ``seconds`` of this thread's CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def run_gateway(coro_factory, **config_overrides):
    async def runner():
        gateway = Gateway(GatewayConfig(**config_overrides))
        try:
            return await coro_factory(gateway)
        finally:
            gateway.close()

    return asyncio.run(runner())


class Placements:
    """Where each ``FlexSession`` submit, build and close ran."""

    def __init__(self, monkeypatch) -> None:
        self.submits: list = []
        self.opens: list = []
        self.closes: list = []
        self.loop_thread = threading.get_ident()  # asyncio.run's thread
        submit, init, close = (
            FlexSession.submit,
            FlexSession.__init__,
            FlexSession.close,
        )

        def recorded_submit(session, request):
            self.submits.append(self.where())
            return submit(session, request)

        def recorded_init(session, *args, **kwargs):
            self.opens.append(self.where())
            init(session, *args, **kwargs)

        def recorded_close(session):
            self.closes.append(self.where())
            close(session)

        monkeypatch.setattr(FlexSession, "submit", recorded_submit)
        monkeypatch.setattr(FlexSession, "__init__", recorded_init)
        monkeypatch.setattr(FlexSession, "close", recorded_close)

    def where(self) -> str:
        return LOOP if threading.get_ident() == self.loop_thread else POOL

    def take(self) -> dict:
        """Everything recorded so far (read before the gateway shuts down,
        whose own closes run on the calling thread)."""
        return {
            "submits": list(self.submits),
            "opens": list(self.opens),
            "closes": list(self.closes),
        }


@pytest.fixture
def placed(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setattr(sys, "getswitchinterval", lambda: THRESHOLD_S)
    return Placements(monkeypatch)


def test_a_kinds_first_request_is_pooled_and_its_repeats_run_on_the_loop(placed):
    def cycle(clock):
        return (
            EvaluateRequest(),
            AggregateRequest(),
            ScheduleRequest("earliest"),
            TradeRequest(budget=1e9),
            StreamRequest(events=(Tick(clock),)),
        )

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        assert (await client.create_session("t", REFERENCE)).status == 201
        assert (await client.submit("t", ingest())).ok
        for clock in (1, 2, 3):
            for request in cycle(clock):
                assert (await client.submit("t", request)).ok
        health = await client.health()
        await client.close()
        return placed.take(), gateway.stats(), health.payload

    seen, stats, health = run_gateway(scenario)
    assert seen["opens"] == [POOL]
    assert seen["submits"] == [POOL] + [POOL] * 5 + [LOOP] * 10
    assert stats["inline"] == health["inline"] == 10
    assert stats["served"] == 16


def test_a_bulk_stream_and_the_request_after_it_are_pooled(placed):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        requests = (
            StreamRequest(events=(Tick(1),)),  # the first stream
            EvaluateRequest(),  # the first evaluate
            StreamRequest(events=(Tick(2),)),  # cheap: on the loop
            EvaluateRequest(),  # cheap: on the loop
            ingest(bulk=True, first=20),  # pooled; clears the costs
            StreamRequest(events=(Tick(3),)),
            EvaluateRequest(),
            StreamRequest(events=(Tick(4),)),
            EvaluateRequest(),
        )
        for request in requests:
            assert (await client.submit("t", request)).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [
        POOL, POOL, LOOP, LOOP, POOL, POOL, POOL, LOOP, LOOP
    ]


def test_a_stream_that_changes_the_population_clears_every_estimate(placed):
    """Not only a bulk ingest: any stream carrying an event other than a
    ``Tick`` runs on the pool and sends the next request of each type
    there too, since each one's cost follows the population."""
    arrivals = ingest(bulk=False)
    expiry = StreamRequest(events=(OfferExpired(arrivals.events[0].offer_id),))

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        ticks = StreamRequest(events=(Tick(1),) * 50)
        requests = (
            arrivals,  # pooled
            EvaluateRequest(),
            ticks,
            EvaluateRequest(),
            ticks,  # cheap: on the loop
            EvaluateRequest(),  # cheap: on the loop
            expiry,  # pooled, though its body is smaller than the ticks'
            StreamRequest(events=(Tick(2),)),
            EvaluateRequest(),
        )
        for request in requests:
            assert (await client.submit("t", request)).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [
        POOL, POOL, POOL, LOOP, LOOP, LOOP, POOL, POOL, POOL
    ]


def test_a_request_carrying_its_own_offers_is_pooled(placed):
    """An explicit population's cost follows the body, so a tenant that
    alternates it with cheap live requests never runs it on the loop."""
    explicit = ingest().events

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        offers = tuple(event.flex_offer for event in explicit)
        for index in range(6):
            request = EvaluateRequest(offers=offers) if index % 2 else EvaluateRequest()
            assert (await client.submit("t", request)).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [POOL, POOL, LOOP, POOL, LOOP, POOL]


def test_a_trade_carrying_its_own_lots_is_pooled(placed):
    lots = tuple(event.flex_offer for event in ingest(first=30).events)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        assert (await client.submit("t", ingest())).ok
        requests = (
            TradeRequest(budget=1e9),
            TradeRequest(budget=1e9),  # cheap: on the loop
            TradeRequest(lots=lots, budget=1e9),  # a larger body
            TradeRequest(budget=1e9),
        )
        for request in requests:
            assert (await client.submit("t", request)).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [POOL, POOL, LOOP, POOL, LOOP]


def test_a_longer_batch_of_ticks_is_pooled(placed):
    """A stream's cost grows with its events, so a batch longer than the
    one its estimate was measured on keeps the pool."""

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        requests = (
            StreamRequest(events=(Tick(1),)),
            StreamRequest(events=(Tick(2),)),  # cheap: on the loop
            StreamRequest(events=tuple(Tick(clock) for clock in range(3, 503))),
            StreamRequest(events=(Tick(503),)),
        )
        for request in requests:
            assert (await client.submit("t", request)).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [POOL, LOOP, POOL, LOOP]


def test_a_tenant_at_its_shard_min_population_keeps_the_pool(placed):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", {**REFERENCE, "shard_min_population": 6})
        for _ in range(2):
            assert (await client.submit("t", EvaluateRequest())).ok
        assert (await client.submit("t", ingest())).ok  # six live offers
        for _ in range(3):
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [POOL, LOOP, POOL, POOL, POOL, POOL]


def test_the_request_after_a_slow_one_is_pooled(placed, monkeypatch):
    """A request that took longer than the switch interval sends the next
    of its type to the pool; a cheap pooled one brings the type back."""
    threshold = 0.05
    monkeypatch.setattr(sys, "getswitchinterval", lambda: threshold)
    slow = threading.Event()
    submit = FlexSession.submit

    def maybe_slow(session, request):
        if slow.is_set():
            slow.clear()
            burn(2 * threshold)
        return submit(session, request)

    monkeypatch.setattr(FlexSession, "submit", maybe_slow)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        for index in range(6):
            if index == 2:
                slow.set()
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    # first, cheap, slow (ran inline: its predecessor was cheap), after
    # the slow one, cheap again, cheap.
    assert seen["submits"] == [POOL, LOOP, LOOP, POOL, LOOP, LOOP]


def test_a_wait_on_a_worker_does_not_count_as_cost(placed, monkeypatch):
    """On a worker the wall time also holds the waits for the GIL while
    the loop is busy; only the thread's CPU time counts, so a type sent
    to the pool once comes back to the loop."""
    threshold = 0.05
    monkeypatch.setattr(sys, "getswitchinterval", lambda: threshold)
    submit = FlexSession.submit

    def waits_on_a_worker(session, request):
        if placed.where() == POOL:
            time.sleep(2 * threshold)
        return submit(session, request)

    monkeypatch.setattr(FlexSession, "submit", waits_on_a_worker)

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        for _ in range(3):
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario)
    assert seen["submits"] == [POOL, LOOP, LOOP]


def test_the_request_after_a_failed_one_is_pooled(placed):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        statuses = []
        for scheduler in ("earliest", "earliest", "no-such", "earliest"):
            response = await client.submit("t", ScheduleRequest(scheduler))
            statuses.append(response.status)
        await client.close()
        return statuses, placed.take()

    statuses, seen = run_gateway(scenario)
    assert statuses == [200, 200, 400, 200]
    assert seen["submits"] == [POOL, LOOP, LOOP, POOL]


def test_streams_that_fsync_keep_the_pool(placed, tmp_path):
    """On a durable tenant that fsyncs, every stream waits on the disk
    on a worker; its other requests are cheap all the same."""

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", {**REFERENCE, "persist_fsync": True})
        for clock in (1, 2, 3):
            assert (await client.submit("t", StreamRequest(events=(Tick(clock),)))).ok
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario, persist_root=str(tmp_path))
    assert seen["submits"] == [POOL, POOL, POOL, LOOP, POOL, LOOP]


def test_without_fsync_a_durable_tenants_streams_run_on_the_loop(placed, tmp_path):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", {**REFERENCE, "persist_fsync": False})
        for clock in (1, 2, 3):
            assert (await client.submit("t", StreamRequest(events=(Tick(clock),)))).ok
        await client.close()
        return placed.take()

    seen = run_gateway(scenario, persist_root=str(tmp_path))
    assert seen["submits"] == [POOL, LOOP, LOOP]


def test_every_request_under_a_fault_plan_is_pooled(placed):
    """A ``gateway.dispatch`` delay must sleep on a worker, never on the
    loop; this plan's one rule never fires within the test."""
    plan = FaultPlan([FaultRule(GATEWAY_DISPATCH, after=1000)])

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", REFERENCE)
        for _ in range(4):
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take(), gateway.inline

    seen, inline = run_gateway(scenario, fault_plan=plan)
    assert seen["submits"] == [POOL] * 4
    assert inline == 0


def test_every_request_under_a_tenants_own_fault_plan_is_pooled(placed, tmp_path):
    """A tenant may send its own plan in its ``PUT`` body: a delay on the
    WAL append of a durable tenant that does not fsync, which every
    stream hits, sleeps on a worker too."""
    plan = FaultPlan(
        [FaultRule(WAL_APPEND, action="delay", count=None, delay_s=0.001)]
    )

    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        config = {**REFERENCE, "persist_fsync": False, "fault_plan": plan.spec()}
        assert (await client.create_session("t", config)).status == 201
        for clock in (1, 2, 3):
            assert (await client.submit("t", StreamRequest(events=(Tick(clock),)))).ok
            assert (await client.submit("t", EvaluateRequest())).ok
        fired = gateway.registry.entry("t").config.fault_plan.stats()["fired"]
        await client.close()
        return placed.take(), gateway.inline, fired

    seen, inline, fired = run_gateway(scenario, persist_root=str(tmp_path))
    assert seen["submits"] == [POOL] * 6
    assert inline == 0
    assert fired[WAL_APPEND] == 3


def test_opens_and_recoveries_run_on_the_pool(placed, tmp_path):
    async def first(gateway):
        client = GatewayClient.in_process(gateway)
        await client.create_session("t", {**REFERENCE, "persist_fsync": False})
        for _ in range(2):
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take()

    async def restarted(gateway):
        client = GatewayClient.in_process(gateway)
        for _ in range(2):
            assert (await client.submit("t", EvaluateRequest())).ok
        await client.close()
        return placed.take()

    seen = run_gateway(first, persist_root=str(tmp_path))
    assert seen["opens"] == [POOL] and seen["submits"] == [POOL, LOOP]
    seen = run_gateway(restarted, persist_root=str(tmp_path))
    # The recovered tenant is a new entry: its costs died with the old one.
    assert seen["opens"] == [POOL, POOL]
    assert seen["submits"] == [POOL, LOOP, POOL, LOOP]
    # The one close is the first gateway's shutdown, on the calling thread.
    assert seen["closes"] == [LOOP]


def test_deletes_evictions_and_expiries_close_on_the_pool(placed):
    async def scenario(gateway):
        client = GatewayClient.in_process(gateway)
        for name in ("a", "b"):
            await client.create_session(name, REFERENCE)
            for _ in range(2):
                assert (await client.submit(name, EvaluateRequest())).ok
        # Under the cap of 1, "b" opened by closing "a".
        assert gateway.registry.names() == ["b"]
        assert (await client.evict_session("b")).status == 200
        await client.create_session("c", REFERENCE)
        await asyncio.sleep(0.1)  # "c" idles past the TTL
        await gateway.sweep()
        names = gateway.registry.names()
        await client.close()
        return names, placed.take()

    names, seen = run_gateway(scenario, max_sessions=1, idle_ttl=0.05)
    assert names == []
    assert seen["closes"] == [POOL, POOL, POOL]
    assert seen["opens"] == [POOL, POOL, POOL]
    assert seen["submits"] == [POOL, LOOP, POOL, LOOP]


def test_tenants_racing_between_the_loop_and_the_pool_lose_no_request(placed):
    """Eight tenants, each a closed loop of cheap and bulk requests, on four
    workers with a 1 µs thread switch interval: every tenant's requests are
    applied exactly once, in order, wherever each one ran."""
    tenants, cycles = 8, 12

    async def tenant(gateway, name):
        client = GatewayClient.in_process(gateway)
        assert (await client.create_session(name, REFERENCE)).status == 201
        for clock in range(1, cycles + 1):
            if clock % 4 == 0:
                assert (await client.submit(name, ingest(first=10 * clock))).ok
            ticked = await client.submit(name, StreamRequest(events=(Tick(clock),)))
            assert ticked.result().time == clock
            assert (await client.submit(name, EvaluateRequest())).ok
        await client.close()

    async def scenario(gateway):
        await asyncio.wait_for(
            asyncio.gather(*(tenant(gateway, f"t{i}") for i in range(tenants))),
            timeout=60,
        )
        served = {
            name: gateway.registry.entry(name).served
            for name in gateway.registry.names()
        }
        return served, gateway.stats()

    interval = SWITCH_INTERVAL()
    sys.setswitchinterval(1e-6)
    try:
        served, stats = run_gateway(scenario, workers=4)
    finally:
        sys.setswitchinterval(interval)
    per_tenant = 2 * cycles + cycles // 4
    assert served == {f"t{i}": per_tenant for i in range(tenants)}
    assert stats["served"] == tenants * per_tenant
    assert 0 < stats["inline"] < stats["served"]
