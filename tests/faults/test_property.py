"""The PR 9 acceptance property, hypothesis-driven.

For *any* single-site fault plan — any site the library fires, any hit
window, raise or kill — a session serving a fixed workload returns, per
request, either a payload bit-identical to the fault-free run or a typed
error; the session never wedges; and the persisted directory always
recovers to the exact fault-free final state once the plan's window is
spent.  Runs against every registered compute backend.
"""

from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import NUMPY_AVAILABLE
from repro.core.errors import FlexError
from repro.faults import (
    PERSIST_PROBE,
    SHARD_RESULT,
    SHARD_SUBMIT,
    SNAPSHOT_REPLACE,
    WAL_APPEND,
    WAL_COMMIT,
    WAL_FSYNC,
    FaultPlan,
    FaultRule,
)
from repro.io.serialization import result_to_dict
from repro.service import EvaluateRequest, FlexSession, SessionConfig, StreamRequest
from repro.stream import population_events
from repro.workloads import neighbourhood_scenario

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy backend not available"
)

BACKENDS = [
    "reference",
    pytest.param("numpy", marks=requires_numpy),
    pytest.param("sharded", marks=requires_numpy),
]

SITES = (
    WAL_APPEND,
    WAL_COMMIT,
    WAL_FSYNC,
    SNAPSHOT_REPLACE,
    PERSIST_PROBE,
    SHARD_SUBMIT,
    SHARD_RESULT,
)

EVENTS = population_events(neighbourhood_scenario(households=4).flex_offers)
HALF = len(EVENTS) // 2

#: Fault-free reference outcomes, computed once per backend.
_GOLDEN: dict = {}


def config(backend: str, directory=None, plan=None) -> SessionConfig:
    return SessionConfig(
        backend=backend,
        persist_dir=directory,
        persist_fsync=directory is not None,
        checkpoint_events=4,  # checkpoint often: snapshot.replace gets hit
        measures=("time", "energy"),
        shards=2,
        shard_min_population=0,  # fan out even tiny populations
        fault_plan=plan,
    )


def run_workload(session: FlexSession) -> list:
    """Serve the fixed request sequence; one JSON outcome per request."""
    outcomes = []
    for request in (
        StreamRequest(events=EVENTS[:HALF]),
        EvaluateRequest(),
        StreamRequest(events=EVENTS[HALF:]),
        EvaluateRequest(),
    ):
        try:
            payload = result_to_dict(session.submit(request))
            payload.pop("stats", None)  # timings are not part of identity
            outcomes.append(("ok", json.dumps(payload, sort_keys=True)))
        except (FlexError, OSError) as error:
            outcomes.append(("error", type(error).__name__))
    return outcomes


def fingerprint(session: FlexSession) -> str:
    return json.dumps(session.engine.export_state(), sort_keys=True)


def golden(backend: str) -> tuple:
    if backend not in _GOLDEN:
        with FlexSession(config(backend)) as session:
            outcomes = run_workload(session)
            assert all(kind == "ok" for kind, _ in outcomes)
            _GOLDEN[backend] = (outcomes, fingerprint(session))
    return _GOLDEN[backend]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    site=st.sampled_from(SITES),
    after=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_single_site_fault_yields_identical_results_or_typed_errors(
    backend, site, after, count, seed
):
    golden_outcomes, golden_state = golden(backend)
    plan = FaultPlan([FaultRule(site, after=after, count=count)], seed=seed)
    with tempfile.TemporaryDirectory() as root:
        directory = root + "/session"
        with FlexSession(config(backend, directory, plan)) as session:
            outcomes = run_workload(session)
            for observed, expected in zip(outcomes, golden_outcomes):
                if observed[0] == "ok":
                    # Identical down to the serialised byte, or a typed error.
                    assert observed == expected
            # The session never wedges: each evaluate may still return a
            # typed error while it burns down the window's tail (a hit
            # window of after+count-1 <= 7 can outlast the workload *and*
            # one call's retry budget), but the window is finite, so an
            # evaluate soon answers exactly like the fault-free run.
            for _ in range(8):
                try:
                    final = result_to_dict(session.submit(EvaluateRequest()))
                    break
                except (FlexError, OSError):
                    continue
            else:
                pytest.fail("session wedged: evaluate never recovered")
            final.pop("stats", None)
            assert json.dumps(final, sort_keys=True) == golden_outcomes[-1][1]
            assert fingerprint(session) == golden_state

        # The durable directory is never corrupt: recovery always works
        # and reproduces the fault-free state bit-for-bit (the close above
        # resumed and checkpointed once the bounded window was spent).
        with FlexSession(config(backend, directory)) as recovered:
            assert recovered.recovery is not None
            assert fingerprint(recovered) == golden_state


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbounded_disk_failure_still_serves_and_degrades(backend):
    """The worst case: every WAL write and every probe fails forever.

    Serving must continue bit-identically with persistence suspended —
    the session trades durability for availability, never correctness.
    """
    golden_outcomes, golden_state = golden(backend)
    plan = FaultPlan(
        [
            FaultRule(WAL_FSYNC, count=None),
            FaultRule(WAL_APPEND, count=None),
            FaultRule(PERSIST_PROBE, count=None),
        ]
    )
    with tempfile.TemporaryDirectory() as root:
        session = FlexSession(config(backend, root + "/session", plan))
        try:
            assert run_workload(session) == golden_outcomes
            assert fingerprint(session) == golden_state
            assert session.stats()["persistence"]["status"] == "degraded"
        finally:
            session.close()  # must not raise despite the dead disk
