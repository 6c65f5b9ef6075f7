"""Session configuration: the one place the ``REPRO_*`` environment is read.

Four PRs of organic growth configured the library through process-global
environment variables (``REPRO_BACKEND``, ``REPRO_SHARDS``,
``REPRO_MATRIX_CACHE``, …) read at scattered
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

import math
import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from typing import Optional

from ..aggregation.grouping import GroupingParameters
from ..backend.cache import DEFAULT_CAPACITY, DEFAULT_CELL_BUDGET
from ..backend.dispatch import ENV_VAR
from ..backend.sharded import DEFAULT_MIN_POPULATION
from ..core.errors import FlexError
from ..faults.plan import FaultPlan

__all__ = [
    "ENV_CACHE_VAR",
    "ENV_CELL_VAR",
    "ENV_FAULTS",
    "ENV_MIN_POPULATION",
    "ENV_SHARDS",
    "ServiceError",
    "SessionConfig",
    "fault_plan_from_env",
]

#: Shard count (defaults to ``os.cpu_count()``).
ENV_SHARDS = "REPRO_SHARDS"
#: Populations below this run whole on the sharded backend's inner backend.
ENV_MIN_POPULATION = "REPRO_SHARD_MIN"
#: A JSON :meth:`FaultPlan.spec` document.
ENV_FAULTS = "REPRO_FAULTS"
#: Session matrix-cache capacity (entries; ``0`` disables it).
ENV_CACHE_VAR = "REPRO_MATRIX_CACHE"
#: Session matrix-cache budget (total retained packed slices).
ENV_CELL_VAR = "REPRO_MATRIX_CACHE_CELLS"

#: Fields of earlier releases that saved configs may still carry.  Each
#: option is gone and none of them ever changed an answer: one window
#: kernel serves every session, shards always run on threads (a saved
#: ``shard_executor`` or ``cluster``, remote or not, loads as a thread
#: config), straggler hedging and the shard retry budget are deleted,
#: and the live-matrix compaction ratio is a constant.
_RETIRED_FIELDS = (
    "window_kernel",
    "shard_executor",
    "shard_hedge_ms",
    "compact_threshold",
    "cluster",
    "shard_retries",
)


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


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def fault_plan_from_env() -> Optional[FaultPlan]:
    """The :class:`FaultPlan` in ``REPRO_FAULTS``, or ``None`` when unset.

    The default of both :class:`SessionConfig` and
    :class:`~repro.server.GatewayConfig`; a malformed value warns.
    """
    raw = os.environ.get(ENV_FAULTS)
    if raw is None or not raw.strip():
        return None
    try:
        return FaultPlan.from_spec(raw)
    except ValueError:
        _warn_ignored_env(ENV_FAULTS, raw, "a JSON fault-plan spec")
        return None


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
    shards, shard_min_population:
        Sharded-backend settings, applied only when ``backend="sharded"``:
        the shard count and the population below which an operation runs
        whole.  Defaults: ``REPRO_SHARDS`` / ``REPRO_SHARD_MIN`` and then
        the backend's own defaults.
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
    shard_min_population: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    cache_entries: Optional[int] = None
    cache_cells: Optional[int] = None
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
        for name, variable, minimum, default in (
            ("shards", ENV_SHARDS, 1, os.cpu_count() or 1),
            ("shard_min_population", ENV_MIN_POPULATION, 0, DEFAULT_MIN_POPULATION),
            ("cache_entries", ENV_CACHE_VAR, 0, DEFAULT_CAPACITY),
            ("cache_cells", ENV_CELL_VAR, 0, DEFAULT_CELL_BUDGET),
        ):
            if getattr(self, name) is None:
                _frozen_set(self, name, _env_int(variable, minimum, default))
            else:
                self._check_int(name, minimum)
        self._resolve_fault_plan()
        for name in ("measures", "tracked_measures"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                if isinstance(value, str) or not isinstance(value, Iterable):
                    raise ServiceError(
                        f"{name} must be an iterable of measure keys, got {value!r}"
                    )
                _frozen_set(self, name, tuple(value))
        self._check_int("window_capacity", 0)
        self._check_int("seed")
        self._check_int("checkpoint_events", 1)
        for name in ("auto_expire", "persist_fsync"):
            if not isinstance(getattr(self, name), bool):
                raise ServiceError(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        if not isinstance(self.grouping, GroupingParameters):
            raise ServiceError(
                f"grouping must be GroupingParameters, got {self.grouping!r}"
            )
        if self.persist_dir is not None and not isinstance(self.persist_dir, str):
            _frozen_set(self, "persist_dir", str(self.persist_dir))
        age = self.checkpoint_age_s
        if age is not None and not (
            isinstance(age, (int, float))
            and not isinstance(age, bool)
            and math.isfinite(age)
            and age > 0
        ):
            raise ServiceError(
                f"checkpoint_age_s must be a positive finite number, got {age!r}"
            )

    # ------------------------------------------------------------------ #
    # Field resolution (environment consulted exactly once, here)
    # ------------------------------------------------------------------ #
    def _check_int(self, name: str, minimum: Optional[int] = None) -> None:
        """Reject a non-integer (``bool``, ``float``, ``str``, …) or a value
        below ``minimum``."""
        value = getattr(self, name)
        if not _is_int(value):
            raise ServiceError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ServiceError(f"{name} must be >= {minimum}, got {value}")

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
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "SessionConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        arguments = dict(payload)
        for name in _RETIRED_FIELDS:
            arguments.pop(name, None)
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(arguments) - known)
        if unknown:
            raise ServiceError(f"unknown SessionConfig fields: {unknown}")
        grouping = arguments.get("grouping")
        if isinstance(grouping, dict):
            if not all(_is_int(value) for value in grouping.values()):
                raise ServiceError(f"grouping values must be integers: {grouping}")
            try:
                arguments["grouping"] = GroupingParameters(**grouping)
            except (TypeError, FlexError) as error:
                raise ServiceError(f"invalid grouping: {error}") from error
        for name in ("measures", "tracked_measures"):
            if isinstance(arguments.get(name), list):
                arguments[name] = tuple(arguments[name])
        if "fault_plan" in arguments and arguments["fault_plan"] is None:
            # Likewise for the fault plan: null was saved when no plan was
            # in effect, which the empty spec now pins.
            arguments["fault_plan"] = FaultPlan().spec()
        return cls(**arguments)
