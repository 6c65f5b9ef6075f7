"""The PR 9 chaos contract, extended to the network path.

Under any single-site plan over the wire sites (``cluster.connect`` /
``cluster.send`` / ``cluster.recv``) — and under a worker process killed
outright — every evaluation either returns results bit-identical to the
fault-free run or a typed :class:`BackendError`, and the backend never
wedges: once the plan's window is spent, evaluation answers identically
again.  These tests run against real ``python -m repro.cluster.worker``
subprocesses (:class:`LocalCluster`), not in-process servers, so kills and
half-open sockets are genuine.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_population
from repro.backend import ShardedBackend, get_backend, use_backend
from repro.backend import sharded as sharded_module
from repro.cluster import LocalCluster
from repro.cluster import executor as executor_module
from repro.core.errors import BackendError
from repro.faults import (
    CLUSTER_CONNECT,
    CLUSTER_RECV,
    CLUSTER_SEND,
    FaultPlan,
    FaultRule,
)
from repro.measures import evaluate_set, get_measure

CLUSTER_SITES = (CLUSTER_CONNECT, CLUSTER_SEND, CLUSTER_RECV)

#: The fixed workload every plan is judged against.
OFFERS = build_population(120, seed=42)
MEASURES = ("time", "energy", "product", "vector")


@pytest.fixture(scope="module")
def local_cluster():
    with LocalCluster(workers=3) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def golden():
    with use_backend("reference"):
        return (
            get_backend("reference").measure_values(get_measure("time"), OFFERS),
            evaluate_set(OFFERS, MEASURES).values,
        )


@pytest.fixture(autouse=True)
def no_waiting(monkeypatch):
    monkeypatch.setattr(sharded_module, "_RETRY_BACKOFF_S", 0.0)
    # A zero probe interval keeps demoted hosts immediately probe-eligible,
    # so the burn-down loop below measures the *plan's* window, not the
    # clock.
    monkeypatch.setattr(executor_module, "PROBE_INTERVAL_S", 0.0)


def remote_backend(cluster: LocalCluster, plan=None) -> ShardedBackend:
    return ShardedBackend(
        shards=2,
        min_population=1,
        retries=2,
        cluster=cluster.spec(),
        faults=plan,
    )


# ``cluster.connect`` only fires on fresh dials (a couple per evaluation),
# so its window must open immediately; the frame sites see a hit per frame
# and can afford to skip the handshake before firing.
BOUNDED_WINDOWS = [
    (CLUSTER_CONNECT, {"after": 1, "count": 1}, 1),
    (CLUSTER_SEND, {"after": 2, "count": 2}, 2),
    (CLUSTER_RECV, {"after": 2, "count": 2}, 2),
]


@pytest.mark.parametrize("site, window, fires", BOUNDED_WINDOWS)
@pytest.mark.parametrize("action", ["raise"])
def test_a_bounded_wire_fault_is_absorbed_bit_identically(
    local_cluster, golden, site, window, fires, action
):
    """A bounded window is absorbed by redispatch: same bytes, no error."""
    plan = FaultPlan([FaultRule(site, action=action, **window)])
    backend = remote_backend(local_cluster, plan)
    try:
        values = backend.measure_values(get_measure("time"), OFFERS)
        assert values == golden[0]
        assert plan.stats()["fired"].get(site) == fires
    finally:
        backend.close()


@pytest.mark.parametrize("site", CLUSTER_SITES)
def test_an_unbounded_wire_fault_is_a_typed_error_not_corruption(
    local_cluster, golden, site
):
    """Every host unreachable: a typed BackendError after the bounded retry
    budget, absorbed without an executor rebuild."""
    plan = FaultPlan([FaultRule(site, count=None)])
    backend = remote_backend(local_cluster, plan)
    try:
        with pytest.raises(BackendError, match="failed after"):
            backend.measure_values(get_measure("time"), OFFERS)
        assert backend.partial_recoveries >= 1
    finally:
        backend.close()


@settings(max_examples=15, deadline=None)
@given(
    site=st.sampled_from(CLUSTER_SITES),
    after=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_single_site_plan_yields_identical_results_or_typed_errors(
    local_cluster, golden, site, after, count, seed
):
    plan = FaultPlan([FaultRule(site, after=after, count=count)], seed=seed)
    backend = remote_backend(local_cluster, plan)
    try:
        measure = get_measure("time")
        try:
            assert backend.measure_values(measure, OFFERS) == golden[0]
        except BackendError:
            pass  # typed, never silent corruption
        # The window is finite, so the backend soon answers exactly like
        # the fault-free run — it never wedges.
        for _ in range(8):
            try:
                assert backend.measure_values(measure, OFFERS) == golden[0]
                break
            except BackendError:
                continue
        else:
            pytest.fail("backend wedged: evaluation never recovered")
    finally:
        backend.close()


def test_killing_a_worker_mid_evaluate_redispatches_bit_identically(golden):
    """SIGKILL one of two workers while evaluating: the surviving host
    absorbs the shards and the report does not change by one bit."""
    with LocalCluster(workers=2) as cluster:
        backend = remote_backend(cluster)
        try:
            with use_backend(backend):
                assert evaluate_set(OFFERS, MEASURES).values == golden[1]  # warm
                killer = threading.Timer(0.005, cluster.kill, args=(0,))
                killer.start()
                mid_kill = evaluate_set(OFFERS, MEASURES).values
                killer.join()
                assert mid_kill == golden[1]
                # Definitely after the kill: pooled connections to worker 0
                # are dead sockets now, so this run must redispatch.
                assert evaluate_set(OFFERS, MEASURES).values == golden[1]
            health = backend.cluster_health()
            assert health[cluster.addresses[0]]["state"] in ("suspect", "down")
            assert health[cluster.addresses[1]]["state"] == "up"
            assert backend._pool.stats()["redispatches"] >= 1
        finally:
            backend.close()


def test_workers_never_inherit_the_drivers_chaos(monkeypatch, golden):
    """REPRO_FAULTS/REPRO_CLUSTER are scrubbed from worker environments:
    injection belongs to the client side of the wire, and a worker that
    dialled further workers would recurse."""
    plan = FaultPlan([FaultRule(CLUSTER_SEND, count=None)])
    monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan.spec()))
    monkeypatch.setenv("REPRO_CLUSTER", "127.0.0.1:1")
    environment = LocalCluster._worker_environment()
    assert "REPRO_FAULTS" not in environment
    assert "REPRO_CLUSTER" not in environment
    assert "PYTHONPATH" in environment

    # End to end: a cluster spawned under the contaminated environment
    # still evaluates — the workers never saw the driver's plan.
    with LocalCluster(workers=1) as cluster:
        backend = ShardedBackend(
            shards=2, min_population=1, cluster=cluster.spec(),
        )
        try:
            values = backend.measure_values(get_measure("time"), OFFERS)
            assert values == golden[0]
        finally:
            backend.close()
