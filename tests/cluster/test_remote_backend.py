"""ShardedBackend over the remote executor: differential equality with the
reference backend, partial-failure recovery, a slow shard, and the serving
path (session stats, gateway ``/healthz``, a saved config)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.backend import ShardedBackend, get_backend
from repro.backend import sharded as sharded_module
from repro.cluster import ClusterSpec
from repro.cluster import executor as executor_module
from repro.faults import CLUSTER_SEND, FaultPlan, FaultRule
from repro.measures import evaluate_set, get_measure
from repro.server import Gateway, GatewayConfig
from repro.service import FlexSession, SessionConfig

from test_executor import dead_host


@pytest.fixture
def backend(cluster_spec):
    instance = ShardedBackend(
        shards=3, min_population=1, cluster=cluster_spec
    )
    yield instance
    instance.close()


class TestDifferential:
    def test_measure_values_are_bit_identical(self, backend, population):
        offers = population(300)
        for key in ("time", "energy", "product", "vector", "series"):
            measure = get_measure(key)
            expected = get_backend("reference").measure_values(measure, offers)
            assert backend.measure_values(measure, offers) == expected

    def test_evaluate_set_reports_are_bit_identical(self, backend, population):
        offers = population(200)
        from repro.backend import use_backend

        with use_backend("reference"):
            expected = evaluate_set(offers)
        with use_backend(backend):
            actual = evaluate_set(offers)
        assert actual.values == expected.values
        assert actual.skipped == expected.skipped

    def test_error_parity_with_the_reference_backend(self, backend):
        # relative_area cannot evaluate offers pinned to zero energy; the
        # remote path must surface the same exception class.
        from repro.core import FlexOffer, MeasureError

        offers = [FlexOffer(0, 1, [(0, 0)], 0, 0, name="pinned")]
        measure = get_measure("relative_area")
        with pytest.raises(MeasureError) as reference_error:
            get_backend("reference").measure_values(measure, offers)
        with pytest.raises(MeasureError) as remote_error:
            backend.measure_values(measure, offers)
        assert type(remote_error.value) is type(reference_error.value)

    def test_repeat_evaluations_reuse_interned_chunks(self, backend, population):
        offers = population(400)
        measure = get_measure("time")
        first = backend.measure_values(measure, offers)
        assert backend.measure_values(measure, offers) == first
        pool = backend._pool
        stats = pool.stats()
        assert stats["ref_hits"] >= 1
        assert stats["shipped_offers"] < stats["dispatched"] * len(offers)

    def test_cluster_health_reports_every_host(self, backend, population):
        backend.measure_values(get_measure("time"), population(60))
        health = backend.cluster_health()
        assert set(health) == set(backend.cluster.hosts)
        assert all(row["state"] == "up" for row in health.values())
        assert sum(row["dispatched"] for row in health.values()) >= 3


class TestResilience:
    def test_host_unavailable_recovers_without_a_pool_rebuild(
        self, workers, population, monkeypatch
    ):
        monkeypatch.setattr(sharded_module, "_RETRY_BACKOFF_S", 0.0)
        monkeypatch.setattr(executor_module, "PROBE_INTERVAL_S", 30.0)
        spec = ClusterSpec(hosts=(dead_host(),), connect_timeout_s=0.5)
        backend = ShardedBackend(
            shards=2, min_population=1, retries=1, cluster=spec
        )
        try:
            from repro.core.errors import BackendError

            pool = backend._executor()
            with pytest.raises(BackendError, match="failed after 2 attempt"):
                backend.measure_values(get_measure("time"), population(40))
            assert backend.partial_recoveries >= 1
            assert backend.resilience_stats()["partial_recoveries"] >= 1
            # The executor was retried in place, never torn down.
            assert backend._pool is pool
        finally:
            backend.close()

    def test_a_slow_remote_shard_still_answers_bit_identically(
        self, cluster_spec, population
    ):
        # One delayed send: the straggler sleeps, and the merged result
        # waits for it and is still bit-identical.
        plan = FaultPlan(
            [FaultRule(CLUSTER_SEND, action="delay", delay_s=0.6, count=1)]
        )
        backend = ShardedBackend(
            shards=2, min_population=1, cluster=cluster_spec, faults=plan
        )
        try:
            offers = population(80)
            measure = get_measure("time")
            expected = get_backend("reference").measure_values(measure, offers)
            assert backend.measure_values(measure, offers) == expected
            assert plan.stats()["fired"] == {CLUSTER_SEND: 1}
        finally:
            backend.close()


class TestServingPath:
    def test_session_stats_expose_the_cluster_table(self, cluster_spec, population):
        config = SessionConfig(
            backend="sharded", shards=2, shard_min_population=1,
            cluster=cluster_spec,
        )
        with FlexSession(config) as session:
            assert session._backend.executor_kind == "remote"
            session.ingest(population(120))
            session.evaluate()
            stats = session.stats()
        assert set(stats["cluster"]) == set(cluster_spec.hosts)
        assert all(row["state"] == "up" for row in stats["cluster"].values())

    def test_a_saved_remote_config_recovers_on_the_cluster(
        self, cluster_spec, population, tmp_path
    ):
        """A release with ``shard_executor`` saved ``"remote"`` next to the
        cluster; the key is dropped on load and the cluster alone brings
        the tenant back on the remote executor, with identical answers."""
        from repro.server.registry import SessionRegistry

        config = SessionConfig(
            backend="sharded", shards=2, shard_min_population=1,
            cluster=cluster_spec, persist_fsync=False,
        )
        registry = SessionRegistry(persist_root=str(tmp_path))
        try:
            session = registry.create("tenant", config)
            session.ingest(population(60))
            before = session.evaluate().values
        finally:
            registry.close()
        path = tmp_path / "tenant" / "config.json"
        payload = json.loads(path.read_text())
        payload["shard_executor"] = "remote"
        path.write_text(json.dumps(payload))

        restarted = SessionRegistry(persist_root=str(tmp_path))
        try:
            recovered = restarted.get("tenant")
            assert recovered.config.cluster == cluster_spec
            assert recovered._backend.executor_kind == "remote"
            assert recovered.evaluate().values == before
        finally:
            restarted.close()

    def test_a_spec_with_the_retired_keys_answers_bit_identically(
        self, cluster_spec, population, monkeypatch
    ):
        """A saved ``config.json`` cluster or a ``REPRO_CLUSTER`` document
        of a release that had per-spec pool sizes and probe intervals
        still loads, with the keys dropped, and answers like the
        reference backend."""
        from repro.service.config import ENV_CLUSTER

        document = {
            **cluster_spec.spec(),
            "connections_per_host": 3,
            "probe_interval_s": 0.0,
        }
        assert ClusterSpec.from_spec(json.dumps(document)) == cluster_spec
        saved = SessionConfig(
            backend="sharded", shards=2, shard_min_population=1
        ).as_dict()
        monkeypatch.setenv(ENV_CLUSTER, json.dumps(document))
        configs = (
            SessionConfig.from_dict({**saved, "cluster": document}),
            SessionConfig(backend="sharded", shards=2, shard_min_population=1),
        )
        offers = population(120)
        from repro.backend import use_backend

        with use_backend("reference"):
            expected = evaluate_set(offers).values
        for config in configs:
            assert config.cluster == cluster_spec
            with FlexSession(config) as session:
                assert session._backend.executor_kind == "remote"
                session.ingest(offers)
                assert session.evaluate().values == expected

    def test_local_sessions_report_no_cluster_block(self, population):
        with FlexSession(SessionConfig(backend="reference")) as session:
            session.ingest(population(10))
            session.evaluate()
            assert "cluster" not in session.stats()

    def test_gateway_healthz_aggregates_per_host_states(
        self, cluster_spec, population
    ):
        config = SessionConfig(
            backend="sharded", shards=2, shard_min_population=1,
            cluster=cluster_spec,
        )
        gateway = Gateway(GatewayConfig(session_defaults=config))
        try:

            async def drive():
                session = gateway.registry.create("tenant-1")
                session.ingest(population(60))
                session.evaluate()
                return gateway.stats()

            stats = asyncio.run(drive())
            assert stats["components"]["cluster"] == "ok"
            assert stats["cluster"]["status"] == "ok"
            assert stats["cluster"]["clustered_sessions"] == 1
            assert set(stats["cluster"]["hosts"]) == set(cluster_spec.hosts)
        finally:
            gateway.close()

    def test_gateway_without_clustered_sessions_reports_disabled(self):
        gateway = Gateway(GatewayConfig())
        try:
            stats = gateway.stats()
            assert stats["components"]["cluster"] == "disabled"
            assert stats["cluster"]["clustered_sessions"] == 0
            # "disabled" must not fail /healthz (mirrors persistence).
        finally:
            gateway.close()

    def test_worst_host_state_wins_in_the_merge(
        self, workers, population, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "PROBE_INTERVAL_S", 30.0)
        spec = ClusterSpec(
            hosts=(workers[0].address, dead_host()), connect_timeout_s=0.5
        )
        config = SessionConfig(
            backend="sharded", shards=2, shard_min_population=1, cluster=spec
        )
        gateway = Gateway(GatewayConfig(session_defaults=config))
        try:

            async def drive():
                session = gateway.registry.create("tenant-1")
                session.ingest(population(60))
                session.evaluate()  # succeeds via the live host
                return gateway.stats()

            stats = asyncio.run(drive())
            assert stats["cluster"]["status"] == "degraded"
            assert stats["components"]["cluster"] == "degraded"
            down = stats["cluster"]["hosts"][spec.hosts[1]]
            assert down["state"] == "down"
        finally:
            gateway.close()
