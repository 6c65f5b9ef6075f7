"""Deterministic fault rules and the seedable fault plan.

A :class:`FaultPlan` is a set of :class:`FaultRule` objects indexed by
*injection site* — a short dotted name a component fires as it crosses a
failure-prone boundary (``wal.fsync`` just before the fsync syscall,
``shard.submit`` before a shard is handed to the worker pool, …).  The
plan decides, per hit, whether to do nothing, sleep or raise a chosen
exception.  Every decision is a pure function of the rule, the site's hit
counter and the plan's seeded RNG, so a plan replayed against the same
code path makes exactly the same choices — faults become a reproducible
test input, not an accident.

Rules select hits by position (``after``/``count``: fire on hits
``after .. after+count-1``) or by seeded probability; both can combine.
The injected exception defaults to :class:`FaultInjected`, an
:class:`OSError` subclass, so unconfigured injections follow the same
paths genuine I/O failures do.  A rule may name another
:class:`Exception` subclass: a builtin, or a dotted name under the
``repro`` package — a plan can arrive in a request body, so it may
neither import other modules nor raise ``SystemExit`` and its kin past
every error boundary.
"""

from __future__ import annotations

import builtins
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "ALL_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "GATEWAY_DISPATCH",
    "PERSIST_PROBE",
    "SHARD_RESULT",
    "SHARD_SUBMIT",
    "SNAPSHOT_REPLACE",
    "WAL_APPEND",
    "WAL_COMMIT",
    "WAL_FSYNC",
]

# The named injection sites threaded through the library.  A site string
# is just a convention between a component and its tests, so the set is
# open — but these are the ones the shipped components fire.
SHARD_SUBMIT = "shard.submit"
SHARD_RESULT = "shard.result"
WAL_APPEND = "wal.append"
WAL_COMMIT = "wal.commit"
WAL_FSYNC = "wal.fsync"
SNAPSHOT_REPLACE = "snapshot.replace"
PERSIST_PROBE = "persist.probe"
GATEWAY_DISPATCH = "gateway.dispatch"

#: Every site the shipped components fire, for sweep-style tests.
ALL_SITES = (
    SHARD_SUBMIT,
    SHARD_RESULT,
    WAL_APPEND,
    WAL_COMMIT,
    WAL_FSYNC,
    SNAPSHOT_REPLACE,
    PERSIST_PROBE,
    GATEWAY_DISPATCH,
)

#: Accepted actions.  ``kill`` is read for older specs and becomes a
#: ``raise`` of :class:`FaultInjected`: no component has a worker process
#: of its own to kill, so a lost worker is always an injected failure.
_ACTIONS = ("raise", "delay", "kill")


class FaultInjected(OSError):
    """The default injected exception.

    Subclasses :class:`OSError` deliberately: the persistence layer
    suspends on ``OSError``, so an unconfigured ``raise`` rule exercises
    exactly the degraded path a real disk failure would.  Elsewhere it
    propagates like any server-side failure (the gateway answers 500).
    """


def _error_name(error: type) -> str:
    """The spec string for an exception class (round-trips via resolve)."""
    if error is FaultInjected:
        return "FaultInjected"
    if getattr(builtins, error.__name__, None) is error:
        return error.__name__
    return f"{error.__module__}.{error.__qualname__}"


def _resolve_error(name: Union[str, type]) -> type:
    """An exception class from its spec string (or pass a class through).

    Only :class:`Exception` subclasses qualify, and a dotted name is
    imported only from the ``repro`` package.  A class given directly must
    resolve back from its own spec string, so a saved plan loads again.
    """
    if isinstance(name, type):
        if _resolve_error(_error_name(name)) is not name:
            raise ValueError(f"{name!r} does not load back from a fault spec")
        return name
    if not isinstance(name, str):
        raise ValueError(f"fault error must be a class or name, got {name!r}")
    if name == "FaultInjected":
        return FaultInjected
    resolved = getattr(builtins, name, None)
    if resolved is None and name.startswith("repro."):
        module_name, _, attribute = name.rpartition(".")
        try:
            resolved = getattr(importlib.import_module(module_name), attribute)
        except (ImportError, AttributeError):
            resolved = None
    if not (isinstance(resolved, type) and issubclass(resolved, Exception)):
        raise ValueError(f"unknown fault error class {name!r}")
    return resolved


@dataclass(frozen=True)
class FaultRule:
    """One per-site rule: what to inject, and on which hits.

    Parameters
    ----------
    site:
        The injection-site name the rule matches (exact string match).
    action:
        ``"raise"`` (raise ``error``) or ``"delay"`` (sleep ``delay_s``).
        ``"kill"`` is accepted as a synonym of ``raise`` with
        :class:`FaultInjected` and stored that way.
    error:
        Exception class (or its spec string) for ``raise`` rules.
    after:
        1-based hit number the rule first fires on.
    count:
        How many consecutive matching hits fire; ``None`` means every hit
        from ``after`` on.
    delay_s:
        Sleep duration for ``delay`` rules.
    probability:
        When set, each positionally matching hit additionally draws from
        the plan's seeded RNG and fires only with this probability.
    """

    site: str
    action: str = "raise"
    error: Union[str, type] = FaultInjected
    after: int = 1
    count: Optional[int] = 1
    delay_s: float = 0.0
    probability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; use one of {_ACTIONS}"
            )
        if self.after < 1:
            raise ValueError(f"after must be >= 1, got {self.after}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1 or None, got {self.count}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must lie in [0, 1], got {self.probability}"
            )
        if self.action == "kill":
            object.__setattr__(self, "action", "raise")
            object.__setattr__(self, "error", FaultInjected)
        object.__setattr__(self, "error", _resolve_error(self.error))

    def matches(self, hit: int) -> bool:
        """Whether the rule's positional window covers this hit number."""
        if hit < self.after:
            return False
        return self.count is None or hit < self.after + self.count

    def spec(self) -> dict:
        """A JSON-ready description (round-trips via :meth:`from_spec`)."""
        payload: dict = {"site": self.site, "action": self.action}
        if self.action == "raise":
            payload["error"] = _error_name(self.error)
        if self.after != 1:
            payload["after"] = self.after
        if self.count != 1:
            payload["count"] = self.count
        if self.delay_s:
            payload["delay_s"] = self.delay_s
        if self.probability is not None:
            payload["probability"] = self.probability
        return payload

    @classmethod
    def from_spec(cls, payload: dict) -> "FaultRule":
        """Rebuild a rule from :meth:`spec` output."""
        if not isinstance(payload, dict) or "site" not in payload:
            raise ValueError(f"not a fault-rule spec: {payload!r}")
        known = {"site", "action", "error", "after", "count", "delay_s", "probability"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown fault-rule fields: {unknown}")
        return cls(**payload)


@dataclass(eq=False)
class FaultPlan:
    """A deterministic, thread-safe set of fault rules.

    Components holding a plan call :meth:`fire` at each named site; the
    plan counts the hit, evaluates the site's rules in order and acts on
    the first that fires.  ``raise`` rules raise, ``delay`` rules sleep.
    All bookkeeping is guarded by a lock so one plan can be shared by a
    session, its backend pool threads and its persister.

    >>> plan = FaultPlan([FaultRule("wal.fsync", after=2)])
    >>> plan.fire("wal.fsync")          # first hit: no rule matches
    >>> plan.fire("wal.fsync")
    Traceback (most recent call last):
        ...
    repro.faults.plan.FaultInjected: injected fault at wal.fsync (hit 2)
    """

    rules: Sequence[FaultRule] = ()
    seed: int = 0
    #: Per-site hit counters (every ``fire`` call, fired or not).
    hits: Dict[str, int] = field(default_factory=dict)
    #: Per-site counters of hits that actually injected a fault.
    fired: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rules = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_spec(rule)
            for rule in self.rules
        )
        self._rng = Random(self.seed)
        self._lock = threading.Lock()

    def fire(self, site: str) -> None:
        """Record one hit at ``site`` and act on the first firing rule.

        Returns once no rule fires or a ``delay`` rule has slept; raises
        the configured exception for ``raise`` rules.
        """
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
            chosen: Optional[FaultRule] = None
            for rule in self.rules:
                if rule.site != site or not rule.matches(hit):
                    continue
                if (
                    rule.probability is not None
                    and self._rng.random() >= rule.probability
                ):
                    continue
                chosen = rule
                break
            if chosen is None:
                return
            self.fired[site] = self.fired.get(site, 0) + 1
        if chosen.action == "delay":
            time.sleep(chosen.delay_s)
            return
        raise chosen.error(f"injected fault at {site} (hit {hit})")

    def spec(self) -> dict:
        """A JSON-ready description (round-trips via :meth:`from_spec`)."""
        return {"seed": self.seed, "rules": [rule.spec() for rule in self.rules]}

    @classmethod
    def from_spec(cls, payload: Union[str, dict, list]) -> "FaultPlan":
        """Rebuild a plan from :meth:`spec` output (or its JSON string).

        A bare list is accepted as shorthand for ``{"rules": [...]}``.
        """
        if isinstance(payload, str):
            try:
                payload = json.loads(payload)
            except ValueError as error:
                raise ValueError(f"malformed fault-plan JSON: {error}") from error
        if isinstance(payload, list):
            payload = {"rules": payload}
        if not isinstance(payload, dict):
            raise ValueError(f"not a fault-plan spec: {payload!r}")
        unknown = sorted(set(payload) - {"seed", "rules"})
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {unknown}")
        rules = [FaultRule.from_spec(rule) for rule in payload.get("rules", [])]
        return cls(rules=rules, seed=int(payload.get("seed", 0)))

    def stats(self) -> dict:
        """Hit/fired counters for health blocks and test assertions."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.rules),
                "hits": dict(self.hits),
                "fired": dict(self.fired),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sites = sorted({rule.site for rule in self.rules})
        return f"FaultPlan(sites={sites}, seed={self.seed})"
