"""The backend a config saved by the retired remote shard executor gets.

Releases before 3.0 could send every shard over TCP to worker processes
(``shard_executor: "remote"`` plus a ``cluster`` of hosts).  That executor
is gone: such a config now loads with both keys dropped and runs its shards
on the thread pool.  The differential suites keep a ``sharded-remote`` slot
for exactly that backend — built by a :class:`FlexSession` from the saved
config, so its inner backend sits behind the session's matrix cache — and
pin it against the reference like every other backend.
"""

from __future__ import annotations

from repro.backend import ShardedBackend, register_backend
from repro.backend.dispatch import _REGISTRY
from repro.service import FlexSession, SessionConfig

#: Registry name of the slot.
NAME = "sharded-remote"


def legacy_remote_config(shards: int = 3) -> dict[str, object]:
    """A saved config as the remote executor wrote it (hosts never dialled)."""
    return {
        "backend": "sharded",
        "shards": shards,
        "shard_min_population": 1,
        "shard_executor": "remote",
        "cluster": {"hosts": ["127.0.0.1:1", "127.0.0.1:2"]},
    }


def register_legacy_remote(shards: int = 3) -> FlexSession:
    """Register the recovered config's backend as ``sharded-remote``.

    Returns the owning session; pass it to :func:`unregister_legacy_remote`
    when done.
    """
    session = FlexSession(SessionConfig.from_dict(legacy_remote_config(shards)))
    backend = session._backend
    assert type(backend) is ShardedBackend
    assert (backend.shards, backend.min_population) == (shards, 1)
    backend.name = NAME
    register_backend(backend)
    return session


def unregister_legacy_remote(session: FlexSession) -> None:
    """Drop the slot and close the session (and with it the pool)."""
    _REGISTRY.pop(NAME, None)
    session.close()
