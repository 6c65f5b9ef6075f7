"""ClusterSpec validation/round-trip and its coupling into SessionConfig
and ShardedBackend (explicit arguments fail fast, env knobs degrade, and
only SessionConfig reads the environment)."""

from __future__ import annotations

import json

import pytest

from repro.backend import ShardedBackend
from repro.core.errors import BackendError
from repro.cluster import ClusterSpec
from repro.cluster.cluster import ClusterError
from repro.service import FlexSession, ServiceError, SessionConfig
from repro.service.config import ENV_CLUSTER, ENV_EXECUTOR


class TestClusterSpec:
    def test_defaults_and_host_normalisation(self):
        spec = ClusterSpec(hosts=("127.0.0.1:7001", " 127.0.0.1:7002 "))
        assert spec.hosts == ("127.0.0.1:7001", "127.0.0.1:7002")
        assert spec.connections_per_host == 2
        assert spec.connect_timeout_s == 5.0
        assert spec.probe_interval_s == 1.0

    @pytest.mark.parametrize(
        "hosts",
        [(), ("localhost",), ("host:",), (":7001",), ("host:0",), ("host:99999",), ("host:abc",)],
        ids=["empty", "no-port", "blank-port", "no-host", "port-0", "port-high", "port-text"],
    )
    def test_invalid_hosts_fail_fast(self, hosts):
        with pytest.raises(ClusterError):
            ClusterSpec(hosts=hosts)

    def test_a_bare_string_is_rejected_with_a_pointer_to_from_spec(self):
        with pytest.raises(ClusterError, match="from_spec"):
            ClusterSpec(hosts="127.0.0.1:7001,127.0.0.1:7002")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("connections_per_host", 0),
            ("connect_timeout_s", 0.0),
            ("connect_timeout_s", -1.0),
            ("probe_interval_s", -0.1),
        ],
    )
    def test_invalid_knobs_fail_fast(self, field, value):
        with pytest.raises(ClusterError):
            ClusterSpec(hosts=("127.0.0.1:7001",), **{field: value})

    def test_spec_round_trip_keeps_non_default_knobs(self):
        spec = ClusterSpec(
            hosts=("a:1", "b:2"),
            connections_per_host=4,
            connect_timeout_s=0.5,
            probe_interval_s=0.0,
        )
        payload = spec.spec()
        assert payload["hosts"] == ["a:1", "b:2"]
        assert ClusterSpec.from_spec(payload) == spec
        # The document is valid JSON end to end.
        assert ClusterSpec.from_spec(json.dumps(payload)) == spec

    def test_spec_omits_default_knobs(self):
        assert ClusterSpec(hosts=("a:1",)).spec() == {"hosts": ["a:1"]}

    def test_from_spec_accepts_every_shorthand(self):
        expected = ClusterSpec(hosts=("h1:7001", "h2:7002"))
        assert ClusterSpec.from_spec(expected) is expected
        assert ClusterSpec.from_spec("h1:7001,h2:7002") == expected
        assert ClusterSpec.from_spec("h1:7001, h2:7002,") == expected
        assert ClusterSpec.from_spec(["h1:7001", "h2:7002"]) == expected
        assert ClusterSpec.from_spec('["h1:7001", "h2:7002"]') == expected
        assert ClusterSpec.from_spec({"hosts": ["h1:7001", "h2:7002"]}) == expected

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("", "empty"),
            ("   ", "empty"),
            ("{not json", "malformed"),
            (17, "not a cluster spec"),
            ({"hosts": ["a:1"], "zap": 1}, "unknown cluster-spec fields"),
            ({"connections_per_host": 2}, "missing 'hosts'"),
        ],
    )
    def test_from_spec_rejects_malformed_payloads(self, payload, match):
        with pytest.raises(ClusterError, match=match):
            ClusterSpec.from_spec(payload)

    def test_from_env(self, monkeypatch):
        # REPRO_CLUSTER is read by SessionConfig, for remote executors only.
        def remote():
            return SessionConfig(backend="sharded", shard_executor="remote")

        for unset in (None, "   "):
            if unset is None:
                monkeypatch.delenv(ENV_CLUSTER, raising=False)
            else:
                monkeypatch.setenv(ENV_CLUSTER, unset)
            with pytest.raises(ServiceError, match="needs a cluster"):
                remote()
        monkeypatch.setenv(ENV_CLUSTER, "127.0.0.1:7001,127.0.0.1:7002")
        assert remote().cluster == ClusterSpec(
            hosts=("127.0.0.1:7001", "127.0.0.1:7002")
        )
        assert SessionConfig(backend="sharded").cluster is None
        monkeypatch.setenv(ENV_CLUSTER, json.dumps({"hosts": ["h:1"], "connections_per_host": 3}))
        assert remote().cluster.connections_per_host == 3

    def test_from_env_degrades_on_malformed_values(self, monkeypatch):
        monkeypatch.setenv(ENV_CLUSTER, "not-a-cluster")
        monkeypatch.setenv(ENV_EXECUTOR, "remote")
        with pytest.warns(RuntimeWarning, match=ENV_CLUSTER):
            config = SessionConfig(backend="sharded")
        assert config.cluster is None
        assert config.shard_executor == "thread"


class TestSessionConfigCoupling:
    def test_cluster_alone_implies_the_remote_executor(self):
        config = SessionConfig(backend="sharded", cluster="127.0.0.1:7001")
        assert config.shard_executor == "remote"
        assert config.cluster == ClusterSpec(hosts=("127.0.0.1:7001",))

    def test_explicit_local_executor_with_a_cluster_contradicts(self):
        with pytest.raises(ServiceError, match="requires shard_executor='remote'"):
            SessionConfig(
                backend="sharded",
                shard_executor="thread",
                cluster="127.0.0.1:7001",
            )

    def test_explicit_remote_executor_without_a_cluster_fails_fast(
        self, monkeypatch
    ):
        monkeypatch.delenv(ENV_CLUSTER, raising=False)
        with pytest.raises(ServiceError, match="REPRO_CLUSTER"):
            SessionConfig(backend="sharded", shard_executor="remote")

    def test_remote_executor_reads_the_cluster_from_the_environment(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENV_CLUSTER, "127.0.0.1:7001")
        config = SessionConfig(backend="sharded", shard_executor="remote")
        assert config.cluster == ClusterSpec(hosts=("127.0.0.1:7001",))

    def test_env_driven_remote_without_a_cluster_degrades_to_thread(
        self, monkeypatch
    ):
        monkeypatch.delenv(ENV_CLUSTER, raising=False)
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "remote")
        with pytest.warns(RuntimeWarning):
            config = SessionConfig(backend="sharded")
        assert config.shard_executor == "thread"
        assert config.cluster is None

    def test_invalid_cluster_payload_is_a_service_error(self):
        with pytest.raises(ServiceError, match="invalid cluster"):
            SessionConfig(backend="sharded", cluster="not a cluster")

    def test_as_dict_round_trips_the_cluster(self):
        config = SessionConfig(
            backend="sharded",
            shards=2,
            cluster=ClusterSpec(hosts=("127.0.0.1:7001",), connections_per_host=3),
        )
        payload = config.as_dict()
        assert payload["cluster"] == {
            "hosts": ["127.0.0.1:7001"],
            "connections_per_host": 3,
        }
        rebuilt = SessionConfig.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.cluster == config.cluster
        assert rebuilt.shard_executor == "remote"


class TestShardedBackendCoupling:
    def test_explicit_remote_without_a_cluster_fails_fast(self, monkeypatch):
        monkeypatch.delenv(ENV_CLUSTER, raising=False)
        with pytest.raises(BackendError, match="needs a cluster"):
            ShardedBackend(executor="remote")

    def test_env_remote_without_a_cluster_degrades_to_thread(self, monkeypatch):
        # The degrade happens once, in SessionConfig; the backend built
        # from that config is a thread backend, and a bare constructor
        # never looks at the environment at all.
        monkeypatch.delenv(ENV_CLUSTER, raising=False)
        monkeypatch.setenv(ENV_EXECUTOR, "remote")
        with pytest.warns(RuntimeWarning, match=ENV_EXECUTOR):
            session = FlexSession(backend="sharded", shards=2)
        with session:
            assert session._backend.executor_kind == "thread"
        backend = ShardedBackend()
        assert backend.executor_kind == "thread"

    def test_cluster_with_a_local_executor_contradicts(self):
        with pytest.raises(BackendError, match="executor='remote'"):
            ShardedBackend(executor="thread", cluster="127.0.0.1:7001")

    def test_invalid_cluster_spec_is_a_backend_error(self):
        with pytest.raises(BackendError, match="invalid cluster spec"):
            ShardedBackend(executor="remote", cluster={"hosts": []})

    def test_remote_backend_reads_the_cluster_from_the_environment(
        self, monkeypatch
    ):
        # Through its session's config; the constructor still needs cluster=.
        monkeypatch.setenv(ENV_CLUSTER, "127.0.0.1:7001")
        with FlexSession(
            backend="sharded", shards=2, shard_executor="remote"
        ) as session:
            assert session._backend.cluster == ClusterSpec(
                hosts=("127.0.0.1:7001",)
            )
        with pytest.raises(BackendError, match="needs a cluster"):
            ShardedBackend(shards=2, executor="remote")

    def test_cluster_health_is_none_for_local_executors(self):
        backend = ShardedBackend(shards=2)
        try:
            assert backend.cluster_health() is None
        finally:
            backend.close()
