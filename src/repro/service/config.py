"""Session configuration: the one place the ``REPRO_*`` environment is read.

Four PRs of organic growth configured the library through process-global
environment variables (``REPRO_BACKEND``, ``REPRO_SHARDS``,
``REPRO_MATRIX_CACHE``, ``REPRO_MATRIX_COMPACT``, …) read at scattered
points — import time, registry bootstrap, matrix construction — which made
it impossible for two differently-tuned workloads to share a process.
:class:`SessionConfig` collapses all of that into one frozen value object
read **once, at construction**: the environment variables survive only as
defaults for fields left at ``None``, so existing deployment recipes keep
working, while two configs in one process are completely independent.

This module is the only one that turns ``REPRO_*`` variables into values
(:class:`~repro.server.GatewayConfig` takes its ``REPRO_FAULTS`` default
from :func:`fault_plan_from_env` here).  Every backend, matrix, cache and
engine constructor below it takes explicit arguments with plain defaults
and never looks at the environment.  The one exception is
:func:`~repro.backend.get_backend`'s documented ``REPRO_BACKEND`` fallback
for calls made outside any session.

>>> config = SessionConfig(backend="reference", cache_entries=4)
>>> config.backend
'reference'
>>> config.cache_entries
4
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from typing import Optional

from ..aggregation.grouping import GroupingParameters
from ..backend.cache import DEFAULT_CAPACITY, DEFAULT_CELL_BUDGET
from ..backend.dispatch import DEFAULT_COMPACT_THRESHOLD, ENV_VAR
from ..backend.sharded import DEFAULT_MIN_POPULATION, DEFAULT_RETRIES
from ..core.errors import FlexError
from ..faults.plan import FaultPlan

__all__ = [
    "ENV_CACHE_VAR",
    "ENV_CELL_VAR",
    "ENV_CLUSTER",
    "ENV_COMPACT_VAR",
    "ENV_EXECUTOR",
    "ENV_FAULTS",
    "ENV_HEDGE_MS",
    "ENV_MIN_POPULATION",
    "ENV_RETRIES",
    "ENV_SHARDS",
    "ServiceError",
    "SessionConfig",
    "fault_plan_from_env",
]

#: Shard count (defaults to ``os.cpu_count()``).
ENV_SHARDS = "REPRO_SHARDS"
#: Shard executor kind: ``thread`` or ``remote``.
ENV_EXECUTOR = "REPRO_SHARD_EXECUTOR"
#: Populations below this run whole on the sharded backend's inner backend.
ENV_MIN_POPULATION = "REPRO_SHARD_MIN"
#: Per-shard retry budget for infrastructure failures.
ENV_RETRIES = "REPRO_SHARD_RETRIES"
#: Straggler-hedging delay in milliseconds (``0`` = off).
ENV_HEDGE_MS = "REPRO_SHARD_HEDGE_MS"
#: Worker hosts for the remote executor: a :meth:`ClusterSpec.spec` JSON
#: document or the ``host:port,host:port`` shorthand.
ENV_CLUSTER = "REPRO_CLUSTER"
#: A JSON :meth:`FaultPlan.spec` document.
ENV_FAULTS = "REPRO_FAULTS"
#: Session matrix-cache capacity (entries; ``0`` disables it).
ENV_CACHE_VAR = "REPRO_MATRIX_CACHE"
#: Session matrix-cache budget (total retained packed slices).
ENV_CELL_VAR = "REPRO_MATRIX_CACHE_CELLS"
#: Live-matrix tombstone ratio that triggers compaction (in ``[0, 1]``).
ENV_COMPACT_VAR = "REPRO_MATRIX_COMPACT"

_EXECUTORS = ("thread", "remote")


class ServiceError(FlexError):
    """Raised on invalid service configurations or requests."""


def _frozen_set(config: "SessionConfig", name: str, value) -> None:
    object.__setattr__(config, name, value)


# --------------------------------------------------------------------- #
# Environment parsing.  A malformed value warns and is ignored instead of
# raising: a typo in one knob must not take down every session built in
# the process.  Explicit arguments, by contrast, fail fast.
# --------------------------------------------------------------------- #
def _warn_ignored_env(variable: str, value: str, expected: str) -> None:
    """Report a malformed environment knob that is being ignored."""
    warnings.warn(
        f"ignoring invalid {variable}={value!r} (expected {expected}); "
        "using the default",
        RuntimeWarning,
        stacklevel=4,
    )


def _env_int(variable: str, minimum: int, default: int) -> int:
    """An integer environment knob, or ``default`` when unset/invalid (warns)."""
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        _warn_ignored_env(variable, raw, f"an integer >= {minimum}")
        return default
    return value


def _env_float(
    variable: str, minimum: float, maximum: float, default: float
) -> float:
    """A float knob in ``[minimum, maximum]``, or ``default`` (warns)."""
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = minimum - 1.0
    if not minimum <= value <= maximum:
        _warn_ignored_env(variable, raw, f"a number in [{minimum}, {maximum}]")
        return default
    return value


def _env_choice(variable: str, choices: tuple[str, ...]) -> Optional[str]:
    """One of ``choices`` from the environment, or ``None`` (warns)."""
    raw = os.environ.get(variable)
    if raw is None or raw in choices:
        return raw
    _warn_ignored_env(variable, raw, f"one of {choices}")
    return None


def _env_spec(variable: str, parse, error: type, expected: str):
    """A spec document parsed from the environment, or ``None`` (warns)."""
    raw = os.environ.get(variable)
    if raw is None or not raw.strip():
        return None
    try:
        return parse(raw)
    except error:
        _warn_ignored_env(variable, raw, expected)
        return None


def fault_plan_from_env() -> Optional[FaultPlan]:
    """The :class:`FaultPlan` in ``REPRO_FAULTS``, or ``None`` when unset.

    The default of both :class:`SessionConfig` and
    :class:`~repro.server.GatewayConfig`; a malformed value warns.
    """
    return _env_spec(
        ENV_FAULTS, FaultPlan.from_spec, ValueError, "a JSON fault-plan spec"
    )


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.service.FlexSession` needs, in one value.

    Every ``None`` field resolves — eagerly, in ``__post_init__`` — from
    the corresponding environment variable and then from the library
    default, so the environment is consulted exactly once per config and
    never again for the session's lifetime.  Two sessions built from two
    configs therefore cannot observe each other's knobs, caches or
    backends.

    Parameters
    ----------
    backend:
        Compute-backend name (``reference`` / ``numpy`` / ``sharded`` or
        any registered custom backend).  Default: ``REPRO_BACKEND``, else
        ``numpy`` when available, else ``reference``.
    shards, shard_executor, shard_min_population:
        Sharded-backend tuning, applied only when ``backend="sharded"``.
        Defaults: ``REPRO_SHARDS`` / ``REPRO_SHARD_EXECUTOR`` /
        ``REPRO_SHARD_MIN`` and then the backend's own defaults.
    shard_retries, shard_hedge_ms:
        The sharded backend's self-healing knobs: per-shard retry budget
        for infrastructure failures and the straggler-hedging latency
        threshold in milliseconds (``0`` disables hedging).  Defaults:
        ``REPRO_SHARD_RETRIES`` / ``REPRO_SHARD_HEDGE_MS`` and then the
        backend's own defaults.
    cluster:
        Worker hosts for distributed shard execution — a
        :class:`~repro.cluster.ClusterSpec` or anything its ``from_spec``
        accepts (``"host:port,host:port"``, a spec dict).  Setting it
        implies ``shard_executor="remote"``; a remote executor without it
        reads ``REPRO_CLUSTER``.  Only meaningful with
        ``backend="sharded"``.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` (or its ``spec()``
        dict/JSON) injected into the session's backend and persister for
        chaos testing.  Default: the ``REPRO_FAULTS`` environment
        variable, else ``None`` — no injection, zero overhead.  A spec
        without rules (``{"seed": 0, "rules": []}``) resolves to ``None``
        without reading the environment; :meth:`as_dict` writes "no plan"
        that way, so a persisted config pins it across restarts.
    cache_entries, cache_cells:
        The session matrix cache's entry capacity and total packed-slice
        budget.  Defaults: ``REPRO_MATRIX_CACHE`` /
        ``REPRO_MATRIX_CACHE_CELLS`` and then the library defaults.
    compact_threshold:
        Live-matrix tombstone ratio triggering compaction.  Default:
        ``REPRO_MATRIX_COMPACT``, else 0.25.  Always resolved to a number,
        so a persisted config pins it across restarts.
    measures:
        Measure keys the session engine maintains (``None`` = every
        registered measure, like ``evaluate_set``).
    tracked_measures, window_capacity, auto_expire, grouping:
        Forwarded to the session's :class:`~repro.stream.StreamingEngine`.
    seed:
        Seed for the session's stochastic defaults (seeded schedulers that
        were not given an explicit seed draw this one).
    persist_dir:
        When set, the session becomes durable: every applied stream event
        is logged to a write-ahead log under this directory, checkpoints
        snapshot the engine, and a new session built over the same
        directory recovers the previous state (see :mod:`repro.persist`).
        ``None`` (the default) keeps the session purely in-memory.
    persist_fsync:
        Whether WAL commits and snapshot writes ``fsync``.  ``False``
        trades the machine-crash guarantee for speed.
    checkpoint_events:
        Events logged since the last snapshot that trigger an automatic
        checkpoint after a stream request (a bulk request's one WAL
        record counts each of its events).
    checkpoint_age_s:
        Optional wall-clock age of the last snapshot that also triggers
        one, for quiet sessions trickling single events.
    """

    backend: Optional[str] = None
    shards: Optional[int] = None
    shard_executor: Optional[str] = None
    shard_min_population: Optional[int] = None
    shard_retries: Optional[int] = None
    shard_hedge_ms: Optional[float] = None
    cluster: Optional[object] = None
    fault_plan: Optional[FaultPlan] = None
    cache_entries: Optional[int] = None
    cache_cells: Optional[int] = None
    compact_threshold: Optional[float] = None
    measures: Optional[tuple[str, ...]] = None
    tracked_measures: Optional[tuple[str, ...]] = None
    window_capacity: int = 0
    auto_expire: bool = False
    grouping: GroupingParameters = field(default_factory=GroupingParameters)
    seed: int = 0
    persist_dir: Optional[str] = None
    persist_fsync: bool = True
    checkpoint_events: int = 1024
    checkpoint_age_s: Optional[float] = None

    def __post_init__(self) -> None:
        from ..backend.dispatch import available_backends

        self._resolve_backend(available_backends())
        self._resolve_sharding()
        self._resolve_cache()
        if self.compact_threshold is None:
            value = _env_float(ENV_COMPACT_VAR, 0.0, 1.0, DEFAULT_COMPACT_THRESHOLD)
            _frozen_set(self, "compact_threshold", value)
        elif not 0.0 <= self.compact_threshold <= 1.0:
            raise ServiceError(
                f"compact_threshold must lie in [0, 1], got {self.compact_threshold}"
            )
        for name in ("measures", "tracked_measures"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                if isinstance(value, str) or not isinstance(value, Iterable):
                    raise ServiceError(
                        f"{name} must be an iterable of measure keys, got {value!r}"
                    )
                _frozen_set(self, name, tuple(value))
        if self.window_capacity < 0:
            raise ServiceError(
                f"window_capacity must be >= 0, got {self.window_capacity}"
            )
        if self.persist_dir is not None and not isinstance(self.persist_dir, str):
            _frozen_set(self, "persist_dir", str(self.persist_dir))
        if self.checkpoint_events < 1:
            raise ServiceError(
                f"checkpoint_events must be >= 1, got {self.checkpoint_events}"
            )
        if self.checkpoint_age_s is not None and self.checkpoint_age_s <= 0:
            raise ServiceError(
                f"checkpoint_age_s must be positive, got {self.checkpoint_age_s}"
            )

    # ------------------------------------------------------------------ #
    # Field resolution (environment consulted exactly once, here)
    # ------------------------------------------------------------------ #
    def _resolve_backend(self, registered: tuple[str, ...]) -> None:
        backend = self.backend
        if backend is None:
            backend = os.environ.get(ENV_VAR)
        if backend is None:
            backend = "numpy" if "numpy" in registered else "reference"
        if backend not in registered:
            raise ServiceError(
                f"unknown compute backend {backend!r}; available: "
                f"{sorted(registered)}"
            )
        _frozen_set(self, "backend", backend)

    def _resolve_sharding(self) -> None:
        if self.shards is None:
            value = _env_int(ENV_SHARDS, 1, os.cpu_count() or 1)
            _frozen_set(self, "shards", value)
        elif self.shards < 1:
            raise ServiceError(f"shards must be >= 1, got {self.shards}")
        explicit_executor = self.shard_executor is not None
        if self.shard_executor is None:
            executor = _env_choice(ENV_EXECUTOR, _EXECUTORS) or "thread"
            _frozen_set(self, "shard_executor", executor)
        elif self.shard_executor == "process":
            raise ServiceError(
                "shard_executor='process' is retired; for process isolation "
                "start a repro.cluster.LocalCluster and pass "
                "shard_executor='remote', cluster=local_cluster.spec()"
            )
        elif self.shard_executor not in _EXECUTORS:
            raise ServiceError(
                f"shard_executor must be 'thread' or 'remote', "
                f"got {self.shard_executor!r}"
            )
        self._resolve_cluster(explicit_executor)
        if self.shard_min_population is None:
            value = _env_int(ENV_MIN_POPULATION, 0, DEFAULT_MIN_POPULATION)
            _frozen_set(self, "shard_min_population", value)
        elif self.shard_min_population < 0:
            raise ServiceError(
                f"shard_min_population must be >= 0, "
                f"got {self.shard_min_population}"
            )
        if self.shard_retries is None:
            value = _env_int(ENV_RETRIES, 0, DEFAULT_RETRIES)
            _frozen_set(self, "shard_retries", value)
        elif self.shard_retries < 0:
            raise ServiceError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )
        if self.shard_hedge_ms is None:
            value = _env_float(ENV_HEDGE_MS, 0.0, 3.6e6, 0.0)
            _frozen_set(self, "shard_hedge_ms", value)
        elif self.shard_hedge_ms < 0:
            raise ServiceError(
                f"shard_hedge_ms must be >= 0, got {self.shard_hedge_ms}"
            )
        self._resolve_fault_plan()

    def _resolve_cluster(self, explicit_executor: bool) -> None:
        """Normalise the cluster field and couple it to the executor kind.

        ``cluster=...`` alone implies ``shard_executor="remote"`` — the
        spec is useless otherwise — while an explicit *local* executor next
        to a cluster is a contradiction and fails fast.  A remote executor
        without a cluster falls back to ``REPRO_CLUSTER``; if that is unset
        too, an explicit choice raises and an environment-driven one
        degrades to ``thread`` like every other malformed knob.
        """
        from ..cluster import ClusterError, ClusterSpec

        if self.cluster is not None:
            try:
                _frozen_set(self, "cluster", ClusterSpec.from_spec(self.cluster))
            except ClusterError as error:
                raise ServiceError(f"invalid cluster: {error}") from error
            if self.shard_executor != "remote":
                if explicit_executor:
                    raise ServiceError(
                        f"cluster= requires shard_executor='remote', "
                        f"got {self.shard_executor!r}"
                    )
                _frozen_set(self, "shard_executor", "remote")
        elif self.shard_executor == "remote":
            cluster = _env_spec(
                ENV_CLUSTER,
                ClusterSpec.from_spec,
                ClusterError,
                "a JSON cluster spec or 'host:port,...' list",
            )
            if cluster is not None:
                _frozen_set(self, "cluster", cluster)
            elif explicit_executor:
                raise ServiceError(
                    "shard_executor='remote' needs a cluster "
                    "(pass cluster=... or set REPRO_CLUSTER)"
                )
            else:
                _warn_ignored_env(
                    ENV_EXECUTOR, "remote", "'remote' with REPRO_CLUSTER set"
                )
                _frozen_set(self, "shard_executor", "thread")

    def _resolve_fault_plan(self) -> None:
        plan = self.fault_plan
        if plan is None:
            _frozen_set(self, "fault_plan", fault_plan_from_env())
            return
        if isinstance(plan, FaultPlan):
            return
        try:
            plan = FaultPlan.from_spec(plan)
        except ValueError as error:
            raise ServiceError(f"invalid fault_plan: {error}") from error
        _frozen_set(self, "fault_plan", plan if plan.rules else None)

    def _resolve_cache(self) -> None:
        if self.cache_entries is None:
            value = _env_int(ENV_CACHE_VAR, 0, DEFAULT_CAPACITY)
            _frozen_set(self, "cache_entries", value)
        elif self.cache_entries < 0:
            raise ServiceError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.cache_cells is None:
            value = _env_int(ENV_CELL_VAR, 0, DEFAULT_CELL_BUDGET)
            _frozen_set(self, "cache_cells", value)
        elif self.cache_cells < 0:
            raise ServiceError(f"cache_cells must be >= 0, got {self.cache_cells}")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, object]:
        """A JSON-ready dictionary (grouping expanded to its two fields)."""
        payload: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "grouping":
                value = {
                    "earliest_start_tolerance": self.grouping.earliest_start_tolerance,
                    "time_flexibility_tolerance": self.grouping.time_flexibility_tolerance,
                    "max_group_size": self.grouping.max_group_size,
                }
            elif spec.name == "fault_plan":
                value = (value or FaultPlan()).spec()
            elif spec.name == "cluster" and value is not None:
                value = value.spec()
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "SessionConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        arguments = dict(payload)
        # Configs saved while the window kernel was an option carry the
        # retired field; every session now runs the one window kernel.
        arguments.pop("window_kernel", None)
        # Likewise for the retired process-pool executor: a saved session
        # that ran on it recovers on the thread executor, with identical
        # results (every executor merges bit-identically).
        if arguments.get("shard_executor") == "process":
            arguments["shard_executor"] = "thread"
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(arguments) - known)
        if unknown:
            raise ServiceError(f"unknown SessionConfig fields: {unknown}")
        grouping = arguments.get("grouping")
        if isinstance(grouping, dict):
            arguments["grouping"] = GroupingParameters(**grouping)
        for name in ("measures", "tracked_measures"):
            if isinstance(arguments.get(name), list):
                arguments[name] = tuple(arguments[name])
        if "compact_threshold" in arguments and arguments["compact_threshold"] is None:
            # Configs saved before the threshold was always resolved hold
            # null where the variable was unset, i.e. the default.
            arguments["compact_threshold"] = DEFAULT_COMPACT_THRESHOLD
        if "fault_plan" in arguments and arguments["fault_plan"] is None:
            # Likewise for the fault plan: null was saved when no plan was
            # in effect, which the empty spec now pins.
            arguments["fault_plan"] = FaultPlan().spec()
        return cls(**arguments)
