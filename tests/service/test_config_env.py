"""The environment is read in one place: :mod:`repro.service.config`.

``SessionConfig`` (and ``GatewayConfig``, for ``REPRO_FAULTS``) turn the
``REPRO_*`` variables into values once, at construction.  Every backend,
matrix, cache and engine constructor below them takes plain defaults, so a
variable changed after a session was configured — or a malformed one —
cannot reach a layer the config already resolved.  The guard test at the
bottom keeps new environment reads from creeping back into those layers.
"""

from __future__ import annotations

import ast
import json
import warnings
from pathlib import Path

import pytest

import repro
from repro.backend import NUMPY_AVAILABLE, ShardedBackend, use_backend
from repro.backend.cache import DEFAULT_CAPACITY, DEFAULT_CELL_BUDGET, MatrixCache
from repro.backend.dispatch import DEFAULT_COMPACT_THRESHOLD
from repro.backend.sharded import DEFAULT_MIN_POPULATION, DEFAULT_RETRIES
from repro.core import FlexOffer
from repro.faults import FaultPlan
from repro.measures import evaluate_set
from repro.persist import load_config
from repro.service import FlexSession, SessionConfig, StreamRequest
from repro.service.config import ServiceError
from repro.stream import OfferArrived, OfferExpired, StreamingEngine

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="the live matrix needs NumPy"
)

FAULTS = {"seed": 3, "rules": [{"site": "wal.fsync", "after": 2}]}

#: A valid value for every ``REPRO_*`` variable, none of them the default.
VALID = {
    "REPRO_BACKEND": "reference",
    "REPRO_SHARDS": "7",
    "REPRO_SHARD_EXECUTOR": "remote",
    "REPRO_CLUSTER": "127.0.0.1:7001,127.0.0.1:7002",
    "REPRO_SHARD_MIN": "17",
    "REPRO_SHARD_RETRIES": "5",
    "REPRO_SHARD_HEDGE_MS": "12.5",
    "REPRO_FAULTS": json.dumps(FAULTS),
    "REPRO_MATRIX_CACHE": "7",
    "REPRO_MATRIX_CACHE_CELLS": "1000",
    "REPRO_MATRIX_COMPACT": "0.75",
}

#: A malformed value for every variable that degrades with a warning.
#: ``REPRO_BACKEND`` is absent: an unknown backend name raises, in
#: ``SessionConfig`` and in ``get_backend()`` alike.
MALFORMED = {
    "REPRO_SHARDS": "four",
    "REPRO_SHARD_EXECUTOR": "rocket",
    "REPRO_CLUSTER": "not-a-cluster",
    "REPRO_SHARD_MIN": "-3",
    "REPRO_SHARD_RETRIES": "many",
    "REPRO_SHARD_HEDGE_MS": "-1",
    "REPRO_FAULTS": "{broken",
    "REPRO_MATRIX_CACHE": "off",
    "REPRO_MATRIX_CACHE_CELLS": "lots",
    "REPRO_MATRIX_COMPACT": "nonsense",
}


def clear_environment(monkeypatch) -> None:
    for variable in VALID:
        monkeypatch.delenv(variable, raising=False)


def lower_layer_state() -> dict:
    """What the environment-free constructors resolved, as plain values."""
    backend, cache = ShardedBackend(), MatrixCache()
    state = {
        "sharded": (
            backend.shards,
            backend.executor_kind,
            backend.cluster,
            backend.min_population,
            backend.retries,
            backend.hedge_ms,
        ),
        "cache": (cache.capacity, cache.cell_budget),
        "engine_kernel": StreamingEngine(window_capacity=4).window_kernel,
    }
    if NUMPY_AVAILABLE:
        from repro.backend.matrix import ProfileMatrix

        state["matrix"] = ProfileMatrix([]).compact_threshold
    return state


def warned_variables(caught) -> set[str]:
    return {
        variable
        for variable in MALFORMED
        for warning in caught
        if f"invalid {variable}=" in str(warning.message)
    }


def test_lower_constructors_ignore_every_variable(monkeypatch):
    clear_environment(monkeypatch)
    clean = lower_layer_state()
    for values in (VALID, MALFORMED):
        clear_environment(monkeypatch)
        for variable, value in values.items():
            monkeypatch.setenv(variable, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert lower_layer_state() == clean
        assert caught == []


def test_session_config_picks_up_every_valid_variable(monkeypatch):
    clear_environment(monkeypatch)
    for variable, value in VALID.items():
        monkeypatch.setenv(variable, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = SessionConfig()
    assert caught == []
    assert config.backend == "reference"
    assert config.shards == 7
    assert config.shard_executor == "remote"
    assert config.cluster.hosts == ("127.0.0.1:7001", "127.0.0.1:7002")
    assert config.shard_min_population == 17
    assert config.shard_retries == 5
    assert config.shard_hedge_ms == 12.5
    assert config.fault_plan.spec() == FaultPlan.from_spec(FAULTS).spec()
    assert (config.cache_entries, config.cache_cells) == (7, 1000)
    assert config.compact_threshold == 0.75


def test_session_config_warns_on_every_malformed_variable(monkeypatch):
    clear_environment(monkeypatch)
    for variable, value in MALFORMED.items():
        monkeypatch.setenv(variable, value)
    with pytest.warns(RuntimeWarning) as caught:
        config = SessionConfig()
    # REPRO_CLUSTER is only consulted for a remote executor, and the
    # malformed executor degraded to thread.
    assert warned_variables(caught) == set(MALFORMED) - {"REPRO_CLUSTER"}
    assert config.shards >= 1 and config.shard_executor == "thread"
    assert config.cluster is None and config.fault_plan is None
    assert config.shard_min_population == DEFAULT_MIN_POPULATION
    assert config.shard_retries == DEFAULT_RETRIES
    assert config.shard_hedge_ms == 0.0
    assert config.cache_entries == DEFAULT_CAPACITY
    assert config.cache_cells == DEFAULT_CELL_BUDGET
    assert config.compact_threshold == DEFAULT_COMPACT_THRESHOLD
    clear_environment(monkeypatch)
    monkeypatch.setenv("REPRO_CLUSTER", MALFORMED["REPRO_CLUSTER"])
    with pytest.warns(RuntimeWarning, match="REPRO_CLUSTER"):
        with pytest.raises(ServiceError, match="needs a cluster"):
            SessionConfig(backend="sharded", shard_executor="remote")


# --------------------------------------------------------------------- #
# Regressions: values resolved by the config must stay resolved.
# --------------------------------------------------------------------- #
@requires_numpy
def test_rearmed_live_population_keeps_the_config_threshold(monkeypatch):
    """An engine that degraded to the dict path re-arms its live matrix
    once the population empties; the new matrix must use the session's
    threshold, not whatever the environment says by then."""
    monkeypatch.delenv("REPRO_MATRIX_COMPACT", raising=False)
    with FlexSession(backend="numpy") as session:
        unpackable = FlexOffer(0, 2, [(0, 1 << 41)])
        session.stream(StreamRequest(events=[OfferArrived("big", unpackable)]))
        assert session.engine._live is None
        monkeypatch.setenv("REPRO_MATRIX_COMPACT", "0.9")
        session.stream(StreamRequest(events=[OfferExpired("big")]))
        assert session.engine._live is not None
        assert (
            session.engine._live.matrix.compact_threshold
            == DEFAULT_COMPACT_THRESHOLD
        )


@requires_numpy
def test_durable_config_pins_the_threshold_across_a_restart(
    monkeypatch, tmp_path
):
    from repro.server.registry import SessionRegistry

    monkeypatch.delenv("REPRO_MATRIX_COMPACT", raising=False)
    registry = SessionRegistry(persist_root=str(tmp_path))
    registry.create("tenant", SessionConfig(backend="numpy"))
    registry.close()
    saved = load_config(tmp_path / "tenant")
    assert saved["compact_threshold"] == DEFAULT_COMPACT_THRESHOLD

    monkeypatch.setenv("REPRO_MATRIX_COMPACT", "0.9")
    restarted = SessionRegistry(persist_root=str(tmp_path))
    try:
        session = restarted.get("tenant")
        assert session.config.compact_threshold == DEFAULT_COMPACT_THRESHOLD
        assert (
            session.engine._live.matrix.compact_threshold
            == DEFAULT_COMPACT_THRESHOLD
        )
    finally:
        restarted.close()


def test_payload_with_a_null_threshold_loads_as_the_default(monkeypatch):
    """Configs persisted before the threshold was always resolved hold
    ``null``; they meant the default, whatever the environment says now."""
    monkeypatch.setenv("REPRO_MATRIX_COMPACT", "0.9")
    payload = SessionConfig(backend="reference").as_dict()
    payload["compact_threshold"] = None
    config = SessionConfig.from_dict(payload)
    assert config.compact_threshold == DEFAULT_COMPACT_THRESHOLD


def test_durable_config_pins_no_fault_plan_across_a_restart(
    monkeypatch, tmp_path
):
    from repro.server.registry import SessionRegistry

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    registry = SessionRegistry(persist_root=str(tmp_path))
    registry.create("tenant", SessionConfig(backend="reference"))
    registry.close()
    assert load_config(tmp_path / "tenant")["fault_plan"] == FaultPlan().spec()

    monkeypatch.setenv("REPRO_FAULTS", json.dumps(FAULTS))
    restarted = SessionRegistry(persist_root=str(tmp_path))
    try:
        session = restarted.get("tenant")
        assert session.config.fault_plan is None
        assert "faults" not in session.stats()
    finally:
        restarted.close()


def test_payload_with_a_null_fault_plan_loads_as_no_plan(monkeypatch):
    """Configs persisted before "no plan" was saved as the empty spec hold
    ``null``; no plan was in effect, whatever the environment says now."""
    monkeypatch.setenv("REPRO_FAULTS", json.dumps(FAULTS))
    payload = SessionConfig(backend="reference").as_dict()
    assert payload["fault_plan"] == FaultPlan.from_spec(FAULTS).spec()
    payload["fault_plan"] = None
    assert SessionConfig.from_dict(payload).fault_plan is None
    payload["fault_plan"] = FaultPlan().spec()
    assert SessionConfig.from_dict(payload).fault_plan is None


@requires_numpy
def test_throwaway_numpy_matrices_do_not_read_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_MATRIX_COMPACT", "nonsense")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with use_backend("numpy"):
            for size in range(1, 6):
                evaluate_set(
                    [FlexOffer(i, i + 3, [(0, size), (1, 2)]) for i in range(size)]
                )
    assert [str(warning.message) for warning in caught] == []


# --------------------------------------------------------------------- #
# Guard: no environment reads outside the configuration layer.
# --------------------------------------------------------------------- #
#: Where reading ``os.environ`` is allowed, as ``(module path, scope)``;
#: ``None`` allows the whole module.
ALLOWED_READS = {
    ("service/config.py", None),
    # The documented REPRO_BACKEND default of sessionless get_backend().
    ("backend/dispatch.py", "_resolve"),
    # Copies the environment for the worker subprocesses it spawns.
    ("cluster/cluster.py", "LocalCluster._worker_environment"),
}


class _EnvironmentReads(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: list[str] = []
        self.reads: list[tuple[str, int]] = []

    def _visit_scope(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv", "environb", "getenvb")
        ):
            self.reads.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os" and any(
            alias.name in ("environ", "getenv", "environb", "getenvb")
            for alias in node.names
        ):
            self.reads.append((".".join(self.scope), node.lineno))


def test_only_the_configuration_layer_reads_the_environment():
    root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        visitor = _EnvironmentReads()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        for scope, line in visitor.reads:
            if (module, None) in ALLOWED_READS or (module, scope) in ALLOWED_READS:
                continue
            offenders.append(f"{module}:{line} ({scope or 'module level'})")
    assert offenders == []
