"""Cluster topology: the spec that names hosts, and a loopback harness.

:class:`ClusterSpec` is the configuration object for distributed shard
execution — an ordered host list plus the connect deadline.  It
follows the same conventions every other config object in the library
does: frozen, JSON :meth:`spec` round-trip (like
:meth:`repro.faults.FaultPlan.spec`), explicit constructor arguments that
fail fast.  Only :class:`~repro.service.SessionConfig` reads the
``REPRO_CLUSTER`` environment variable into one.

:class:`LocalCluster` is the test/bench harness: it spawns real
``python -m repro.cluster.worker`` subprocesses bound to ephemeral
loopback ports, so everything above it — framing, interning, health
states, redispatch — is exercised over genuine sockets and process
boundaries, not mocks.

>>> spec = ClusterSpec.from_spec("127.0.0.1:7001,127.0.0.1:7002")
>>> spec.hosts
('127.0.0.1:7001', '127.0.0.1:7002')
>>> ClusterSpec.from_spec(spec.spec()) == spec
True
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.errors import FlexError

__all__ = ["ClusterError", "ClusterSpec", "LocalCluster"]


class ClusterError(FlexError):
    """Invalid cluster configuration or a harness-level failure."""


#: Spec keys of earlier releases that saved configs and ``REPRO_CLUSTER``
#: documents may still carry.  The connection pool size and the down-host
#: probe interval are constants of :mod:`repro.cluster.executor` now;
#: neither ever changed an answer.
_RETIRED_KEYS = ("connections_per_host", "probe_interval_s")


def _check_host(host: str) -> str:
    """Validate one ``host:port`` entry and normalise whitespace."""
    if not isinstance(host, str):
        raise ClusterError(f"cluster host {host!r} is not a 'host:port' string")
    entry = host.strip()
    address, colon, port = entry.rpartition(":")
    if not colon or not address:
        raise ClusterError(
            f"cluster host {host!r} is not of the form 'host:port'"
        )
    try:
        port_number = int(port)
    except ValueError:
        port_number = -1
    if not 0 < port_number < 65536:
        raise ClusterError(f"cluster host {host!r} has invalid port {port!r}")
    return entry


@dataclass(frozen=True)
class ClusterSpec:
    """Where the workers are, and how long to wait for one to answer.

    Parameters
    ----------
    hosts:
        Ordered ``host:port`` worker addresses.  Order matters only as the
        round-robin starting arrangement; placement is least-outstanding.
    connect_timeout_s:
        TCP connect deadline before a host is declared unreachable: a
        finite positive number of seconds.
    """

    hosts: Tuple[str, ...]
    connect_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if not isinstance(self.hosts, (list, tuple)):
            raise ClusterError(
                "hosts must be a sequence of 'host:port' strings; "
                "use ClusterSpec.from_spec() for the comma shorthand"
            )
        checked = tuple(_check_host(host) for host in self.hosts)
        if not checked:
            raise ClusterError("a cluster needs at least one host")
        object.__setattr__(self, "hosts", checked)
        timeout = self.connect_timeout_s
        if not (
            isinstance(timeout, (int, float))
            and not isinstance(timeout, bool)
            and math.isfinite(timeout)
            and timeout > 0
        ):
            raise ClusterError(
                "connect_timeout_s must be a finite number > 0, "
                f"got {timeout!r}"
            )

    def spec(self) -> dict:
        """A JSON-ready description (round-trips via :meth:`from_spec`)."""
        payload: dict = {"hosts": list(self.hosts)}
        if self.connect_timeout_s != 5.0:
            payload["connect_timeout_s"] = self.connect_timeout_s
        return payload

    @classmethod
    def from_spec(
        cls, payload: Union[str, dict, list, "ClusterSpec"]
    ) -> "ClusterSpec":
        """Rebuild a spec from :meth:`spec` output or shorthand.

        Accepts a spec dict, a bare host list, a JSON string of either,
        or the ``"host:port,host:port"`` comma shorthand.  A spec of an
        earlier release loads with its retired keys dropped.
        """
        if isinstance(payload, ClusterSpec):
            return payload
        if isinstance(payload, str):
            text = payload.strip()
            if not text:
                raise ClusterError("empty cluster spec")
            if text[0] in "[{":
                try:
                    payload = json.loads(text)
                except ValueError as error:
                    raise ClusterError(
                        f"malformed cluster-spec JSON: {error}"
                    ) from error
            else:
                payload = [host for host in text.split(",") if host.strip()]
        if isinstance(payload, (list, tuple)):
            payload = {"hosts": list(payload)}
        if not isinstance(payload, dict):
            raise ClusterError(f"not a cluster spec: {payload!r}")
        unknown = sorted(
            set(payload) - {"hosts", "connect_timeout_s", *_RETIRED_KEYS}
        )
        if unknown:
            raise ClusterError(f"unknown cluster-spec fields: {unknown}")
        if "hosts" not in payload:
            raise ClusterError("cluster spec is missing 'hosts'")
        return cls(
            hosts=payload["hosts"],
            connect_timeout_s=payload.get("connect_timeout_s", 5.0),
        )


def _drain(stream, sink: List[str]) -> None:
    """Mirror a worker's output into a list (and keep the pipe from filling)."""
    for line in iter(stream.readline, ""):
        sink.append(line.rstrip("\n"))
    stream.close()


@dataclass
class LocalCluster:
    """Loopback worker subprocesses for tests and benchmarks.

    Spawns ``workers`` copies of ``python -m repro.cluster.worker`` bound
    to ephemeral ``127.0.0.1`` ports, reads each worker's ``LISTENING``
    banner to learn the port, and exposes the resulting addresses through
    :meth:`spec`.  Context-managed::

        with LocalCluster(workers=4) as cluster:
            backend = ShardedBackend(cluster=cluster.spec())

    ``kill(index)`` hard-kills one worker — the chaos suite's way of
    taking a host down mid-request.
    """

    workers: int = 2
    start_timeout_s: float = 20.0
    _processes: List[subprocess.Popen] = field(default_factory=list, repr=False)
    _addresses: List[str] = field(default_factory=list, repr=False)
    _output: List[List[str]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ClusterError(f"workers must be >= 1, got {self.workers}")
        try:
            for _ in range(self.workers):
                self._spawn()
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _worker_environment() -> dict:
        """The subprocess environment: repro importable, no inherited chaos.

        Workers must not inherit the driver's fault plan or cluster spec —
        injection belongs to the client side of the wire, and a worker
        that dialled further workers would recurse.
        """
        source_root = str(Path(__file__).resolve().parent.parent.parent)
        environment = dict(os.environ)
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            source_root + os.pathsep + existing if existing else source_root
        )
        environment.pop("REPRO_FAULTS", None)
        environment.pop("REPRO_CLUSTER", None)
        return environment

    def _spawn(self) -> None:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.worker", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self._worker_environment(),
        )
        self._processes.append(process)
        lines: List[str] = []
        self._output.append(lines)
        banner: List[Optional[str]] = [None]
        announced_event = threading.Event()

        def wait_for_banner() -> None:
            # Interpreter noise (runpy warnings, site messages) may precede
            # the banner on the merged stream; scan until it appears.
            for line in iter(process.stdout.readline, ""):
                text = line.strip()
                if text.startswith(("LISTENING ", "ERROR ")):
                    banner[0] = text
                    announced_event.set()
                    break
                lines.append(text)
            else:
                announced_event.set()
            _drain(process.stdout, lines)

        reader = threading.Thread(target=wait_for_banner, daemon=True)
        reader.start()
        announced_event.wait(self.start_timeout_s)
        announced = banner[0]
        if not announced or not announced.startswith("LISTENING "):
            process.kill()
            raise ClusterError(
                f"worker failed to start (banner={announced!r}, "
                f"output={lines[:5]!r})"
            )
        self._addresses.append(announced.split(" ", 1)[1])

    @property
    def addresses(self) -> Tuple[str, ...]:
        """The ``host:port`` addresses the live workers bound."""
        return tuple(self._addresses)

    def spec(self) -> ClusterSpec:
        """A :class:`ClusterSpec` over this cluster's workers."""
        return ClusterSpec(hosts=self.addresses)

    def kill(self, index: int) -> None:
        """Hard-kill worker ``index`` (SIGKILL); its address stays listed."""
        self._processes[index].kill()
        self._processes[index].wait()

    def output(self, index: int) -> List[str]:
        """Captured stdout/stderr lines of worker ``index`` (diagnostics)."""
        return list(self._output[index])

    def close(self) -> None:
        """Kill every worker and reap the subprocesses."""
        for process in self._processes:
            if process.poll() is None:
                process.kill()
        for process in self._processes:
            process.wait()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
