"""ClusterSpec validation/round-trip and its coupling into SessionConfig
and ShardedBackend (a cluster selects the remote executor, explicit
arguments fail fast, env knobs degrade, and only SessionConfig reads the
environment)."""

from __future__ import annotations

import json

import pytest

from repro.backend import ShardedBackend
from repro.core.errors import BackendError
from repro.cluster import ClusterSpec
from repro.cluster.cluster import ClusterError
from repro.service import FlexSession, ServiceError, SessionConfig
from repro.service.config import ENV_CLUSTER


class TestClusterSpec:
    def test_defaults_and_host_normalisation(self):
        spec = ClusterSpec(hosts=("127.0.0.1:7001", " 127.0.0.1:7002 "))
        assert spec.hosts == ("127.0.0.1:7001", "127.0.0.1:7002")
        assert spec.connect_timeout_s == 5.0

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
            ("connect_timeout_s", 0.0),
            ("connect_timeout_s", -1.0),
        ],
    )
    def test_invalid_knobs_fail_fast(self, field, value):
        with pytest.raises(ClusterError):
            ClusterSpec(hosts=("127.0.0.1:7001",), **{field: value})

    def test_spec_round_trip_keeps_non_default_knobs(self):
        spec = ClusterSpec(hosts=("a:1", "b:2"), connect_timeout_s=0.5)
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
            ({"connect_timeout_s": 2}, "missing 'hosts'"),
        ],
    )
    def test_from_spec_rejects_malformed_payloads(self, payload, match):
        with pytest.raises(ClusterError, match=match):
            ClusterSpec.from_spec(payload)

    def test_from_env(self, monkeypatch):
        # REPRO_CLUSTER is read by SessionConfig, for sharded configs only.
        def sharded():
            return SessionConfig(backend="sharded")

        for unset in (None, "   "):
            if unset is None:
                monkeypatch.delenv(ENV_CLUSTER, raising=False)
            else:
                monkeypatch.setenv(ENV_CLUSTER, unset)
            assert sharded().cluster is None
        monkeypatch.setenv(ENV_CLUSTER, "127.0.0.1:7001,127.0.0.1:7002")
        assert sharded().cluster == ClusterSpec(
            hosts=("127.0.0.1:7001", "127.0.0.1:7002")
        )
        assert SessionConfig(backend="reference").cluster is None
        monkeypatch.setenv(ENV_CLUSTER, json.dumps({"hosts": ["h:1"], "connect_timeout_s": 3}))
        assert sharded().cluster.connect_timeout_s == 3

    def test_from_env_degrades_on_malformed_values(self, monkeypatch):
        monkeypatch.setenv(ENV_CLUSTER, "not-a-cluster")
        with pytest.warns(RuntimeWarning, match=ENV_CLUSTER):
            config = SessionConfig(backend="sharded", shards=2)
        assert config.cluster is None
        with FlexSession(config) as session:
            assert session._backend.executor_kind == "thread"


class TestSessionConfigCoupling:
    def test_cluster_alone_implies_the_remote_executor(self):
        config = SessionConfig(backend="sharded", cluster="127.0.0.1:7001")
        assert config.cluster == ClusterSpec(hosts=("127.0.0.1:7001",))
        with FlexSession(config) as session:  # the pool dials lazily
            assert session._backend.executor_kind == "remote"

    def test_remote_executor_reads_the_cluster_from_the_environment(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENV_CLUSTER, "127.0.0.1:7001")
        config = SessionConfig(backend="sharded")
        assert config.cluster == ClusterSpec(hosts=("127.0.0.1:7001",))

    def test_invalid_cluster_payload_is_a_service_error(self):
        with pytest.raises(ServiceError, match="invalid cluster"):
            SessionConfig(backend="sharded", cluster="not a cluster")

    def test_as_dict_round_trips_the_cluster(self):
        config = SessionConfig(
            backend="sharded",
            shards=2,
            cluster=ClusterSpec(hosts=("127.0.0.1:7001",), connect_timeout_s=3.0),
        )
        payload = config.as_dict()
        assert payload["cluster"] == {
            "hosts": ["127.0.0.1:7001"],
            "connect_timeout_s": 3.0,
        }
        rebuilt = SessionConfig.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == config


class TestShardedBackendCoupling:
    def test_invalid_cluster_spec_is_a_backend_error(self):
        with pytest.raises(BackendError, match="invalid cluster spec"):
            ShardedBackend(cluster={"hosts": []})

    def test_remote_backend_reads_the_cluster_from_the_environment(
        self, monkeypatch
    ):
        # Through its session's config; a bare constructor runs threads.
        monkeypatch.setenv(ENV_CLUSTER, "127.0.0.1:7001")
        with FlexSession(backend="sharded", shards=2) as session:
            assert session._backend.cluster == ClusterSpec(
                hosts=("127.0.0.1:7001",)
            )
            assert session._backend.executor_kind == "remote"
        assert ShardedBackend(shards=2).executor_kind == "thread"

    def test_cluster_health_is_none_for_local_executors(self):
        backend = ShardedBackend(shards=2)
        try:
            assert backend.cluster_health() is None
        finally:
            backend.close()
