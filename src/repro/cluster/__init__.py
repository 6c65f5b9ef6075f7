"""``repro.cluster`` — multi-host shard execution over framed TCP.

The distribution layer for the sharded compute backend: long-lived
:mod:`worker <repro.cluster.worker>` processes execute the by-name shard
functions, a :class:`RemoteShardExecutor` satisfies the
``concurrent.futures`` submit/result contract the backend already speaks
(so ``ShardedBackend(cluster=...)`` is the whole
integration), and :class:`ClusterSpec` / ``REPRO_CLUSTER`` name the
hosts.  Everything is stdlib-only — sockets, threads, pickle and the
CRC frame format the write-ahead log already uses on disk.

Failure is a first-class input here exactly as everywhere else in the
library: the wire path fires the ``cluster.connect`` / ``cluster.send``
/ ``cluster.recv`` injection sites of :mod:`repro.faults`, hosts cycle
through up → suspect → down with probe-gated recovery, and a lost
connection redispatches the shard to another host inside the backend's
existing bounded-retry budget.

>>> from repro.cluster import ClusterSpec
>>> ClusterSpec.from_spec("127.0.0.1:7001,127.0.0.1:7002").hosts
('127.0.0.1:7001', '127.0.0.1:7002')
"""

from .cluster import ClusterError, ClusterSpec, LocalCluster
from .executor import HostUnavailable, RemoteShardExecutor
from .framing import ShardRef, WireError, recv_frame, send_frame, shard_key


def __getattr__(name):  # pragma: no cover - trivial lazy import
    # ``worker`` stays unimported here so ``python -m repro.cluster.worker``
    # does not re-execute a module runpy already finds in ``sys.modules``.
    if name == "WorkerServer":
        from .worker import WorkerServer

        return WorkerServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ClusterError",
    "ClusterSpec",
    "HostUnavailable",
    "LocalCluster",
    "RemoteShardExecutor",
    "ShardRef",
    "WireError",
    "WorkerServer",
    "recv_frame",
    "send_frame",
    "shard_key",
]
