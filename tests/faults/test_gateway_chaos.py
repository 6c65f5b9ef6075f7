"""Chaos tests of the gateway: dispatch faults, 503s, the sweeper, /healthz."""

from __future__ import annotations

import asyncio
import json
import sys
import time

import pytest

from repro.faults import (
    GATEWAY_DISPATCH,
    PERSIST_PROBE,
    SHARD_RESULT,
    SNAPSHOT_REPLACE,
    WAL_APPEND,
    WAL_FSYNC,
    FaultPlan,
    FaultRule,
)
from repro.server.app import Gateway, GatewayConfig, GatewayServer
from repro.server.limits import RETRY_AFTER_S
from repro.service import SessionConfig

OFFER = {"earliest_start": 0, "latest_start": 2, "slices": [[1, 2]]}
EVALUATE = json.dumps({"kind": "evaluate", "offers": [OFFER]}).encode()
TICK = json.dumps(
    {"kind": "stream", "events": [{"kind": "tick", "time": 0}]}
).encode()
#: Four arrivals in one bulk request: enough to fire a checkpoint policy
#: of 4 events, after which a single tick stays under it.
INGEST = json.dumps(
    {
        "kind": "stream",
        "bulk": True,
        "events": [
            {"kind": "arrived", "offer_id": f"o{index}", "flex_offer": OFFER}
            for index in range(4)
        ],
    }
).encode()


def run(coroutine):
    return asyncio.run(coroutine)


def gateway(**overrides) -> Gateway:
    overrides.setdefault("session_defaults", SessionConfig(backend="reference"))
    return Gateway(GatewayConfig(**overrides))


def degraded_plan() -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(WAL_FSYNC, after=1, count=None),
            FaultRule(PERSIST_PROBE, after=1, count=None),
        ]
    )


class TestDispatchFaults:
    def test_dispatch_fault_is_a_500_then_service_recovers(self):
        async def scenario():
            plan = FaultPlan([FaultRule(GATEWAY_DISPATCH, after=1, count=1)])
            gate = gateway(fault_plan=plan)
            try:
                assert (await gate.handle("PUT", "/sessions/t")).status == 201
                faulted = await gate.handle("POST", "/sessions/t/requests", EVALUATE)
                assert faulted.status == 500
                assert "injected" in faulted.payload["detail"]
                healed = await gate.handle("POST", "/sessions/t/requests", EVALUATE)
                assert healed.status == 200
                health = await gate.handle("GET", "/healthz")
                assert health.payload["faults"]["fired"] == {GATEWAY_DISPATCH: 1}
                assert gate.failed == 1 and gate.served == 1
            finally:
                gate.close()

        run(scenario())

    def test_injected_gateway_errors_keep_their_status_and_retry_after(self):
        async def scenario():
            plan = FaultPlan(
                [
                    FaultRule(
                        GATEWAY_DISPATCH,
                        error="repro.server.limits.SaturatedError",
                        after=1,
                        count=1,
                    )
                ]
            )
            gate = gateway(fault_plan=plan)
            try:
                assert (await gate.handle("PUT", "/sessions/t")).status == 201
                response = await gate.handle("POST", "/sessions/t/requests", EVALUATE)
                # A typed GatewayError thrown from the fault plane keeps
                # its own status, and the gateway fills in the Retry-After
                # hint every 429 promises.
                assert response.status == 429
                assert response.payload["error"] == "saturated"
                assert response.retry_after == RETRY_AFTER_S
            finally:
                gate.close()

        run(scenario())

    def test_dispatch_faults_never_wedge_the_session_gate(self):
        async def scenario():
            plan = FaultPlan([FaultRule(GATEWAY_DISPATCH, after=1, count=3)])
            gate = gateway(fault_plan=plan)
            try:
                assert (await gate.handle("PUT", "/sessions/t")).status == 201
                statuses = []
                for _ in range(5):
                    response = await gate.handle(
                        "POST", "/sessions/t/requests", EVALUATE
                    )
                    statuses.append(response.status)
                assert statuses == [500, 500, 500, 200, 200]
                # Both gates fully released: nothing waiting, nothing held.
                assert gate.gate.stats()["waiting"] == 0
                entry = gate.registry.entry("t")
                assert not entry.gate.busy
            finally:
                gate.close()

        run(scenario())

    def test_a_shard_fault_is_a_500_not_a_400(self):
        """An injected shard failure is the server's, not the client's: it
        answers 500 ``internal`` like a ``gateway.dispatch`` fault."""

        async def scenario():
            config = {
                "backend": "sharded",
                "shards": 2,
                "shard_min_population": 1,
                "fault_plan": {"rules": [{"site": SHARD_RESULT, "count": None}]},
            }
            offers = [dict(OFFER, latest_start=2 + index) for index in range(4)]
            body = json.dumps({"kind": "evaluate", "offers": offers}).encode()
            gate = gateway()
            try:
                created = await gate.handle(
                    "PUT", "/sessions/s", json.dumps(config).encode()
                )
                assert created.status == 201
                response = await gate.handle("POST", "/sessions/s/requests", body)
                assert response.status == 500
                assert response.payload["error"] == "internal"
                assert "FaultInjected" in response.payload["detail"]
            finally:
                gate.close()

        run(scenario())


class TestTenantFaultPlans:
    """A ``PUT`` body may carry a fault plan; it may not stop the gateway
    or make it import a module."""

    @staticmethod
    def put_plan(gate: Gateway, error: str):
        plan = {"rules": [{"site": WAL_APPEND, "error": error}]}
        body = json.dumps({"fault_plan": plan}).encode()
        return gate.handle("PUT", "/sessions/t", body)

    @pytest.mark.parametrize(
        "error", ["SystemExit", "KeyboardInterrupt", "GeneratorExit"]
    )
    def test_a_plan_raising_past_every_error_boundary_is_a_400(
        self, tmp_path, error
    ):
        async def scenario():
            gate = gateway(persist_root=str(tmp_path))
            try:
                refused = await self.put_plan(gate, error)
                # Nothing was created, so a stream submit has no tenant
                # whose WAL append could raise it.
                missing = await gate.handle("POST", "/sessions/t/requests", TICK)
                return refused, missing.status
            finally:
                gate.close()

        refused, missing = run(scenario())
        assert refused.status == 400
        assert refused.payload["error"] == "bad-request"
        assert error in refused.payload["detail"]
        assert missing == 404

    def test_a_plan_naming_a_module_outside_repro_imports_nothing(
        self, monkeypatch
    ):
        async def scenario():
            gate = gateway()
            try:
                return await self.put_plan(gate, "smtplib.SMTPException")
            finally:
                gate.close()

        monkeypatch.delitem(sys.modules, "smtplib", raising=False)
        refused = run(scenario())
        assert refused.status == 400
        assert "smtplib" not in sys.modules


class TestDegradedPersistence:
    def test_checkpoint_is_503_with_retry_after_while_serving_continues(
        self, tmp_path
    ):
        async def scenario():
            gate = gateway(
                persist_root=str(tmp_path),
                session_defaults=SessionConfig(
                    backend="reference", fault_plan=degraded_plan()
                ),
            )
            try:
                assert (await gate.handle("PUT", "/sessions/d")).status == 201
                served = await gate.handle("POST", "/sessions/d/requests", TICK)
                assert served.status == 200  # degraded, but still serving
                checkpoint = await gate.handle("POST", "/sessions/d/checkpoint")
                assert checkpoint.status == 503
                assert checkpoint.payload["error"] == "degraded"
                assert checkpoint.retry_after is not None
                health = await gate.handle("GET", "/healthz")
                assert health.payload["status"] == "degraded"
                assert health.payload["components"]["persistence"] == "degraded"
                assert health.payload["persistence"]["degraded_sessions"] == ["d"]
            finally:
                gate.close()

        run(scenario())

    def test_healthz_is_ok_without_persistence(self):
        async def scenario():
            gate = gateway()
            try:
                health = await gate.handle("GET", "/healthz")
                assert health.payload["status"] == "ok"
                assert health.payload["components"]["persistence"] == "disabled"
            finally:
                gate.close()

        run(scenario())


class TestBackgroundCheckpoint:
    """The policy checkpoint's snapshot is written after the response, on
    the session's writer thread."""

    @staticmethod
    def durable_gateway(tmp_path, plan: FaultPlan) -> Gateway:
        return gateway(
            persist_root=str(tmp_path),
            session_defaults=SessionConfig(
                backend="reference",
                persist_fsync=False,
                checkpoint_events=4,
                fault_plan=plan,
            ),
        )

    def test_requests_do_not_wait_for_a_held_snapshot_write(self, tmp_path):
        hold_s = 3.0
        plan = FaultPlan([FaultRule(SNAPSHOT_REPLACE, action="delay", delay_s=hold_s)])

        async def scenario():
            gate = self.durable_gateway(tmp_path, plan)
            try:
                assert (await gate.handle("PUT", "/sessions/w")).status == 201
                ingest = await gate.handle("POST", "/sessions/w/requests", INGEST)
                assert ingest.status == 200
                writer = gate.registry.entry("w").session._persister._writer
                started = time.monotonic()
                tick = await gate.handle("POST", "/sessions/w/requests", TICK)
                stats = await gate.handle("GET", "/sessions/w")
                elapsed = time.monotonic() - started
                assert tick.status == 200 and stats.status == 200
                # Both answered while the write was still held.
                assert writer.is_alive()
                assert elapsed < hold_s
                # The snapshot is not durable yet, and stats say so.
                assert stats.payload["persistence"]["snapshot_seq"] == 0
                assert stats.payload["persistence"]["checkpoints"] == 0
                # An explicit checkpoint joins the held write first.
                checkpoint = await gate.handle("POST", "/sessions/w/checkpoint")
                assert checkpoint.status == 200
                assert checkpoint.payload["snapshot_seq"] == 5
                assert not writer.is_alive()
                stats = await gate.handle("GET", "/sessions/w")
                assert stats.payload["persistence"]["checkpoints"] == 2
            finally:
                gate.close()

        run(scenario())

    def test_a_failed_background_write_turns_healthz_degraded(self, tmp_path):
        plan = FaultPlan([FaultRule(SNAPSHOT_REPLACE, count=1)])

        async def scenario():
            gate = self.durable_gateway(tmp_path, plan)
            try:
                assert (await gate.handle("PUT", "/sessions/f")).status == 201
                ingest = await gate.handle("POST", "/sessions/f/requests", INGEST)
                assert ingest.status == 200  # answered before the write failed
                writer = gate.registry.entry("f").session._persister._writer
                writer.join(timeout=10.0)
                assert not writer.is_alive()
                # No further request: the writer itself suspended persistence.
                health = await gate.handle("GET", "/healthz")
                assert health.payload["components"]["persistence"] == "degraded"
                assert health.payload["persistence"]["degraded_sessions"] == ["f"]
                stats = await gate.handle("GET", "/sessions/f")
                assert "FaultInjected" in stats.payload["persistence"]["degraded_reason"]
                assert stats.payload["persistence"]["snapshot_seq"] == 0
            finally:
                gate.close()

        run(scenario())


class TestSweeperResilience:
    def test_sweep_survives_a_close_that_raises(self):
        async def scenario():
            gate = gateway(idle_ttl=100.0)
            try:
                assert (await gate.handle("PUT", "/sessions/a")).status == 201
                assert (await gate.handle("PUT", "/sessions/b")).status == 201

                def explode():
                    raise RuntimeError("checkpoint-on-evict blew up")

                gate.registry.entry("a").session.close = explode
                # Both sessions idle past the TTL: the sweep must drop
                # both despite a's close raising, and count the failure.
                for entry in gate.registry._entries.values():
                    entry.last_used -= 1000.0
                swept = gate.registry.sweep()
                assert sorted(swept) == ["a", "b"]
                assert gate.registry.sweep_failures == 1
                health = await gate.handle("GET", "/healthz")
                assert health.payload["status"] == "degraded"
                assert health.payload["components"]["sweeper"] == "degraded"
                assert health.payload["registry"]["sweep_failures"] == 1
            finally:
                gate.close()

        run(scenario())

    def test_sweeper_task_survives_registry_level_exceptions(self):
        async def scenario():
            gate = gateway(idle_ttl=0.02)
            server = GatewayServer(gate, _FakeServer())
            try:
                calls = {"count": 0}

                def broken_victim(now=None):
                    calls["count"] += 1
                    raise RuntimeError("registry lock poisoned")

                gate.registry.victim = broken_victim
                await asyncio.sleep(0.06)
                assert calls["count"] >= 2  # still ticking after a failure
                assert gate.sweeper_failures == calls["count"]
                health = await gate.handle("GET", "/healthz")
                assert health.payload["components"]["sweeper"] == "degraded"
                assert health.payload["sweeper_failures"] >= 2
            finally:
                await server.close()

        run(scenario())


class _FakeServer:
    """Just enough asyncio.AbstractServer surface for GatewayServer tests."""

    sockets = ()

    def close(self) -> None:
        return None

    async def wait_closed(self) -> None:
        return None


class TestConfigResolution:
    def test_gateway_config_coerces_specs_and_rejects_garbage(self):
        config = GatewayConfig(
            fault_plan={"rules": [{"site": GATEWAY_DISPATCH}], "seed": 4}
        )
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.seed == 4
        with pytest.raises(ValueError, match="invalid fault_plan"):
            GatewayConfig(fault_plan={"bogus": True})

    def test_gateway_config_reads_the_environment(self, monkeypatch):
        spec = {"rules": [{"site": GATEWAY_DISPATCH, "after": 9}]}
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(spec))
        config = GatewayConfig()
        assert config.fault_plan is not None
        assert config.fault_plan.rules[0].after == 9
        monkeypatch.delenv("REPRO_FAULTS")
        assert GatewayConfig().fault_plan is None
