"""The environment is read in one place: :mod:`repro.service.config`.

``SessionConfig`` (and ``GatewayConfig``, for ``REPRO_FAULTS``) turn the
``REPRO_*`` variables into values once, at construction.  Every backend,
matrix, cache and engine constructor below them takes plain defaults, so a
variable changed after a session was configured — or a malformed one —
cannot reach a layer the config already resolved.  The guard tests at the
bottom keep new environment reads from creeping back into those layers,
and pin the set of variables and the fields of ``SessionConfig`` and
``GatewayConfig``, so an option cannot be added (or come back) without
editing them.  Another keeps unpickling out of the library.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import warnings
from pathlib import Path

import pytest

import repro
from repro.backend import NUMPY_AVAILABLE, ShardedBackend, use_backend
from repro.backend.cache import DEFAULT_CAPACITY, DEFAULT_CELL_BUDGET, MatrixCache
from repro.backend.sharded import DEFAULT_MIN_POPULATION
from repro.core import FlexOffer
from repro.faults import FaultPlan
from repro.measures import evaluate_set
from repro.persist import load_config
from repro.server import GatewayConfig
from repro.service import SessionConfig
from repro.stream import OfferArrived, StreamingEngine, Tick

requires_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="the live matrix needs NumPy"
)

FAULTS = {"seed": 3, "rules": [{"site": "wal.fsync", "after": 2}]}

#: A valid value for every ``REPRO_*`` variable, none of them the default.
VALID = {
    "REPRO_BACKEND": "reference",
    "REPRO_SHARDS": "7",
    "REPRO_SHARD_MIN": "17",
    "REPRO_FAULTS": json.dumps(FAULTS),
    "REPRO_MATRIX_CACHE": "7",
    "REPRO_MATRIX_CACHE_CELLS": "1000",
}

#: A malformed value for every variable that degrades with a warning.
#: ``REPRO_BACKEND`` is absent: an unknown backend name raises, in
#: ``SessionConfig`` and in ``get_backend()`` alike.
MALFORMED = {
    "REPRO_SHARDS": "four",
    "REPRO_SHARD_MIN": "-3",
    "REPRO_FAULTS": "{broken",
    "REPRO_MATRIX_CACHE": "off",
    "REPRO_MATRIX_CACHE_CELLS": "lots",
}

#: Variables of retired options, which every layer now ignores.
RETIRED = {
    "REPRO_SHARD_EXECUTOR": "remote",
    "REPRO_CLUSTER": "127.0.0.1:7001,127.0.0.1:7002",
    "REPRO_SHARD_HEDGE_MS": "12.5",
    "REPRO_MATRIX_COMPACT": "0.75",
    "REPRO_SHARD_RETRIES": "5",
}

#: Every ``SessionConfig`` field, in order.  An option added to (or
#: brought back into) the config must be added here, in the same change.
FIELDS = (
    "backend",
    "shards",
    "shard_min_population",
    "fault_plan",
    "cache_entries",
    "cache_cells",
    "measures",
    "tracked_measures",
    "window_capacity",
    "auto_expire",
    "grouping",
    "seed",
    "persist_dir",
    "persist_fsync",
    "checkpoint_events",
    "checkpoint_age_s",
)

#: Every ``GatewayConfig`` field, in order (same rule as ``FIELDS``).
GATEWAY_FIELDS = (
    "host",
    "port",
    "max_sessions",
    "idle_ttl",
    "max_pending",
    "session_queue_depth",
    "max_body_bytes",
    "workers",
    "session_defaults",
    "access_log",
    "persist_root",
    "fault_plan",
)

def clear_environment(monkeypatch) -> None:
    for variable in (*VALID, *RETIRED):
        monkeypatch.delenv(variable, raising=False)


def lower_layer_state() -> dict:
    """What the environment-free constructors resolved, as plain values."""
    backend, cache = ShardedBackend(), MatrixCache()
    engine = StreamingEngine(window_capacity=4)
    engine.apply(OfferArrived("offer", FlexOffer(0, 2, [(1, 2)])))
    engine.apply(Tick(1))
    state = {
        "sharded": (backend.shards, backend.min_population),
        "cache": (cache.capacity, cache.cell_budget),
        "engine_windows": engine.tracker.summary(),
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
    for values in (VALID, MALFORMED, RETIRED):
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
    assert config.shard_min_population == 17
    assert config.fault_plan.spec() == FaultPlan.from_spec(FAULTS).spec()
    assert (config.cache_entries, config.cache_cells) == (7, 1000)


def test_session_config_warns_on_every_malformed_variable(monkeypatch):
    clear_environment(monkeypatch)
    for variable, value in MALFORMED.items():
        monkeypatch.setenv(variable, value)
    with pytest.warns(RuntimeWarning) as caught:
        config = SessionConfig()
    assert warned_variables(caught) == set(MALFORMED)
    assert config.shards >= 1
    assert config.fault_plan is None
    assert config.shard_min_population == DEFAULT_MIN_POPULATION
    assert config.cache_entries == DEFAULT_CAPACITY
    assert config.cache_cells == DEFAULT_CELL_BUDGET


def test_retired_variables_are_ignored(monkeypatch):
    clear_environment(monkeypatch)
    clean = SessionConfig(backend="sharded")
    for variable, value in RETIRED.items():
        monkeypatch.setenv(variable, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert SessionConfig(backend="sharded") == clean
    assert caught == []


# --------------------------------------------------------------------- #
# Regressions: values resolved by the config must stay resolved.
# --------------------------------------------------------------------- #
def test_payload_with_a_null_threshold_loads_as_the_default(monkeypatch):
    """Configs persisted while the compaction ratio was an option carry
    ``compact_threshold`` (``null`` in the oldest ones); the key is
    dropped and the session runs the one ratio, whatever the environment
    says now."""
    monkeypatch.setenv("REPRO_MATRIX_COMPACT", "0.9")
    config = SessionConfig(backend="reference")
    for saved in (None, 0.25, 0.9):
        payload = config.as_dict()
        payload["compact_threshold"] = saved
        assert SessionConfig.from_dict(payload) == config


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
    monkeypatch.setenv("REPRO_MATRIX_CACHE", "nonsense")
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


def _repro_literals(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
    }


def test_the_set_of_variables_is_pinned():
    root = Path(repro.__file__).resolve().parent
    named = set()
    for path in sorted(root.rglob("*.py")):
        named |= _repro_literals(ast.parse(path.read_text(encoding="utf-8")))
    assert named == set(VALID)


#: Modules that turn bytes back into arbitrary objects.  No library code
#: may import them: a wire or file format that unpickles runs whatever a
#: peer (or a tampered file) sends.
UNPICKLERS = {"pickle", "marshal", "shelve"}


def test_no_module_imports_an_unpickler():
    root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in UNPICKLERS:
                    offenders.append(
                        f"{path.relative_to(root).as_posix()}:{node.lineno} {name}"
                    )
    assert offenders == []


def test_the_session_config_fields_are_pinned():
    assert tuple(spec.name for spec in dataclasses.fields(SessionConfig)) == FIELDS


def test_the_gateway_config_fields_are_pinned():
    names = tuple(spec.name for spec in dataclasses.fields(GatewayConfig))
    assert names == GATEWAY_FIELDS
