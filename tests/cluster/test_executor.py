"""RemoteShardExecutor: the futures contract, placement, health, reships."""

from __future__ import annotations

import socket
import threading

import pytest

from conftest import start_worker
from repro.cluster import ClusterSpec, HostUnavailable, RemoteShardExecutor
from repro.cluster import executor as executor_module
from repro.cluster.executor import _Connection, _Host, _RemoteRaise
from repro.cluster.framing import WireError, recv_frame, send_frame, shard_key
from repro.core import FlexOffer, flexoffer_area_size
from repro.measures import get_measure


def dead_host() -> str:
    """A loopback address nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = "127.0.0.1:%d" % probe.getsockname()[1]
    probe.close()
    return address


@pytest.fixture
def executor(cluster_spec):
    pool = RemoteShardExecutor(cluster_spec)
    yield pool
    pool.shutdown()


class TestFuturesContract:
    def test_submit_runs_remotely_and_returns_a_future(self, executor, population):
        offers = population(12)
        future = executor.submit(
            __import__("repro.backend.sharded", fromlist=["x"])._shard_values_outcome,
            "reference",
            get_measure("time"),
            offers,
        )
        kind, values = future.result(timeout=30)
        assert kind == "ok"
        assert values == [get_measure("time").value(offer) for offer in offers]

    def test_keyword_arguments_are_rejected(self, executor):
        with pytest.raises(TypeError, match="positional"):
            executor.submit(flexoffer_area_size, offer=None)

    def test_submit_after_shutdown_is_a_runtime_error(self, cluster_spec):
        pool = RemoteShardExecutor(cluster_spec)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="after shutdown"):
            pool.submit(flexoffer_area_size, FlexOffer(0, 1, [(1, 2)]))

    def test_application_errors_re_raise_with_their_type(self, executor):
        future = executor.submit(flexoffer_area_size, "not-an-offer")
        with pytest.raises(AttributeError) as info:
            future.result(timeout=30)
        # The remote traceback rides along on the cause for debugging.
        assert isinstance(info.value.__cause__, _RemoteRaise)
        assert "flexoffer_area" in info.value.__cause__.remote_traceback

    def test_default_pool_size_matches_the_cluster(self, cluster_spec):
        pool = RemoteShardExecutor(cluster_spec)
        try:
            expected = len(cluster_spec.hosts) * executor_module.CONNECTIONS_PER_HOST
            assert pool._pool._max_workers == expected
        finally:
            pool.shutdown()


class TestPlacementAndInterning:
    def test_dispatches_spread_across_hosts(self, executor, population):
        offers = population(6)
        futures = [
            executor.submit(flexoffer_area_size, offer) for offer in offers * 3
        ]
        for future in futures:
            assert future.result(timeout=30) > 0
        health = executor.health()
        assert sum(row["dispatched"] for row in health.values()) == len(futures)
        assert sum(1 for row in health.values() if row["dispatched"]) >= 2
        assert all(row["state"] == "up" for row in health.values())

    def test_chunks_ship_once_then_travel_by_key(self, executor, population):
        offers = population(40)
        measure = get_measure("time")
        from repro.backend.sharded import _shard_values_outcome

        first = executor.submit(
            _shard_values_outcome, "reference", measure, offers
        ).result(timeout=30)
        for _ in range(4):
            again = executor.submit(
                _shard_values_outcome, "reference", measure, offers
            ).result(timeout=30)
            assert again == first
        stats = executor.stats()
        assert stats["dispatched"] == 5
        assert stats["ref_hits"] >= 1
        # The 40 offers were pickled across the wire at most once per
        # connection that served them, never once per call.
        assert stats["shipped_offers"] < 5 * len(offers)
        assert stats["reships"] == 0

    def test_only_flex_offer_chunks_are_interned(self, executor):
        wire_args, chunks = executor._intern_args(
            ([FlexOffer(0, 1, [(1, 2)])], [1, 2, 3], (), "reference")
        )
        assert len(chunks) == 1
        assert wire_args[1:] == [[1, 2, 3], (), "reference"]


class TestHealth:
    def test_a_dead_host_is_evicted_and_work_still_completes(
        self, workers, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "PROBE_INTERVAL_S", 30.0)
        spec = ClusterSpec(
            hosts=(dead_host(), workers[0].address), connect_timeout_s=2.0
        )
        pool = RemoteShardExecutor(spec)
        try:
            for _ in range(4):
                assert pool.submit(
                    flexoffer_area_size, FlexOffer(0, 2, [(1, 3)])
                ).result(timeout=30)
            health = pool.health()
            dead, live = spec.hosts
            assert health[dead]["state"] == "down"
            assert health[dead]["failures"] >= 1
            assert health[dead]["dispatched"] == 0
            assert health[live]["state"] == "up"
            assert health[live]["dispatched"] == 4
        finally:
            pool.shutdown()

    def test_every_host_down_raises_host_unavailable(self):
        spec = ClusterSpec(hosts=(dead_host(),), connect_timeout_s=0.5)
        pool = RemoteShardExecutor(spec)
        try:
            future = pool.submit(flexoffer_area_size, FlexOffer(0, 1, [(1, 2)]))
            with pytest.raises(HostUnavailable) as info:
                future.result(timeout=30)
            assert spec.hosts[0] in str(info.value)
            assert info.value.host == spec.hosts[0]
        finally:
            pool.shutdown()

    def test_down_hosts_are_probe_gated(self, monkeypatch):
        monkeypatch.setattr(executor_module, "PROBE_INTERVAL_S", 60.0)
        spec = ClusterSpec(hosts=(dead_host(),), connect_timeout_s=0.5)
        pool = RemoteShardExecutor(spec)
        try:
            with pytest.raises(HostUnavailable):
                pool.submit(flexoffer_area_size, None).result(timeout=30)
            dials = pool.stats()["connects"]
            # Within the probe interval the down host is not even dialled.
            with pytest.raises(HostUnavailable):
                pool.submit(flexoffer_area_size, None).result(timeout=30)
            assert pool.stats()["connects"] == dials == 0
            # Once probe-eligible, the picker offers it again.
            with pool._lock:
                pool._hosts[0].probe_after = 0.0
            host = pool._pick_host(set(), frozenset())
            assert host is pool._hosts[0]
        finally:
            pool.shutdown()

    def test_a_failure_on_a_connected_host_means_suspect_then_down(self):
        host = _Host("127.0.0.1:1")
        pool = RemoteShardExecutor(ClusterSpec(hosts=("127.0.0.1:1",)))
        try:
            pool._mark_failure(host, connected=True)
            assert host.state == "suspect"
            pool._mark_failure(host, connected=True)
            assert host.state == "down"
            pool._mark_success(host)
            assert host.state == "up"
            assert host.probe_after == 0.0
        finally:
            pool.shutdown()

    def test_a_peer_that_talks_garbage_counts_as_a_failure(
        self, workers, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "PROBE_INTERVAL_S", 30.0)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def bad_peer():
            sock, _ = listener.accept()
            recv_frame(sock)  # the hello
            send_frame(sock, {"op": "nope"})
            sock.close()

        thread = threading.Thread(target=bad_peer, daemon=True)
        thread.start()
        spec = ClusterSpec(hosts=(address, workers[0].address))
        pool = RemoteShardExecutor(spec)
        try:
            # Work completes on the healthy host; the impostor is demoted.
            assert pool.submit(
                flexoffer_area_size, FlexOffer(0, 2, [(1, 3)])
            ).result(timeout=30)
            assert pool.submit(
                flexoffer_area_size, FlexOffer(0, 2, [(1, 3)])
            ).result(timeout=30)
            assert pool.health()[address]["state"] in ("suspect", "down")
        finally:
            pool.shutdown()
            listener.close()
            thread.join(timeout=5)


class ScriptedPeer:
    """One end of a socketpair following a scripted reply sequence."""

    def __init__(self, replies):
        self.client, self.server = socket.socketpair()
        self.received = []
        self.thread = threading.Thread(target=self._serve, args=(replies,), daemon=True)
        self.thread.start()

    def _serve(self, replies) -> None:
        for reply in replies:
            message = recv_frame(self.server)
            if message is None:
                return
            self.received.append(message)
            if reply is not None:
                send_frame(self.server, reply, pickled=True)
        self.server.close()

    def close(self) -> None:
        self.client.close()
        self.thread.join(timeout=5)


class TestDispatchReships:
    """White-box ``_dispatch`` against scripted peers: the reship loop."""

    OFFERS = [FlexOffer(0, 2, [(1, 3)], name="x")]
    KEY = shard_key(OFFERS)

    def run_dispatch(self, executor, replies):
        from repro.cluster.framing import ShardRef

        peer = ScriptedPeer(replies)
        connection = _Connection(peer.client)
        # The executor believes this connection already holds the chunk —
        # the only state from which a worker can report it missing.
        connection.shipped.add(self.KEY)
        host = _Host("scripted:1")
        try:
            value = executor._dispatch(
                connection,
                host,
                "repro.core:flexoffer_area_size",
                [ShardRef(self.KEY)],
                {self.KEY: self.OFFERS},
            )
            return value, peer
        finally:
            peer.close()

    def test_a_stale_worker_cache_triggers_one_reship(self, executor):
        value, peer = self.run_dispatch(
            executor,
            [
                {"op": "result", "id": 1, "ok": False, "missing": [self.KEY]},
                {"op": "result", "id": 1, "ok": True, "value": 6},
            ],
        )
        assert value == 6
        assert peer.received[0]["ship"] == {}  # believed shipped
        assert self.KEY in peer.received[1]["ship"]  # the reship carries bytes
        assert executor.stats()["reships"] == 1

    def test_missing_after_a_reship_is_a_wire_error(self, executor):
        with pytest.raises(WireError, match="after a reship"):
            self.run_dispatch(
                executor,
                [
                    {"op": "result", "id": 1, "ok": False, "missing": [self.KEY]},
                    {"op": "result", "id": 1, "ok": False, "missing": [self.KEY]},
                ],
            )

    def test_unknown_missing_keys_are_a_wire_error(self, executor):
        with pytest.raises(WireError, match="unknown shard keys"):
            self.run_dispatch(
                executor,
                [{"op": "result", "id": 1, "ok": False,
                  "missing": ["not-a-key-we-sent"]}],
            )

    def test_a_mismatched_task_id_is_a_wire_error(self, executor):
        with pytest.raises(WireError, match="out-of-protocol"):
            self.run_dispatch(
                executor,
                [{"op": "result", "id": 99, "ok": True, "value": 1}],
            )

    def test_a_malformed_error_frame_is_a_wire_error(self, executor):
        with pytest.raises(WireError, match="malformed error frame"):
            self.run_dispatch(
                executor,
                [{"op": "result", "id": 1, "ok": False, "error": "not-an-exception"}],
            )

    def test_a_peer_that_hangs_up_mid_task_is_a_wire_error(self, executor):
        with pytest.raises(WireError, match="closed during a task"):
            self.run_dispatch(executor, [None])
