"""``repro.faults`` — the deterministic fault-injection plane.

Robustness only counts when failure is a *testable input*: this package
defines seeded, replayable fault plans (:class:`FaultPlan` /
:class:`FaultRule`) and the named injection sites threaded through the
sharded compute backend (``shard.submit`` / ``shard.result``), the
write-ahead log (``wal.append`` / ``wal.commit`` /
``wal.fsync``), the snapshot store (``snapshot.replace``), the
persistence circuit breaker's probe (``persist.probe``) and the gateway
worker dispatch (``gateway.dispatch``).

Activate a plan per session with ``SessionConfig(fault_plan=...)``, per
gateway with ``GatewayConfig(fault_plan=...)``, or process-wide through
the ``REPRO_FAULTS`` environment variable (a JSON :meth:`FaultPlan.spec`
document), which both configs read as their default.  The acceptance
contract the chaos suite (``tests/faults/``) pins: under any single-site
plan, every request either returns a result bit-identical to the
fault-free run or a typed error — never corrupt state, never a wedged
session.

>>> from repro.faults import FaultPlan, FaultRule
>>> plan = FaultPlan([FaultRule("wal.fsync", error=OSError)])
>>> plan.fire("wal.fsync")
Traceback (most recent call last):
    ...
OSError: injected fault at wal.fsync (hit 1)
>>> plan.stats()["fired"]
{'wal.fsync': 1}
"""

from .plan import (
    ALL_SITES,
    FaultInjected,
    FaultPlan,
    FaultRule,
    GATEWAY_DISPATCH,
    PERSIST_PROBE,
    SHARD_RESULT,
    SHARD_SUBMIT,
    SNAPSHOT_REPLACE,
    WAL_APPEND,
    WAL_COMMIT,
    WAL_FSYNC,
)

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
