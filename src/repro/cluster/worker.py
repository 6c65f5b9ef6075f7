"""The long-lived TCP shard worker: ``python -m repro.cluster.worker``.

A worker binds one listening socket, prints ``LISTENING host:port`` (the
harness/operator contract — port 0 resolves to an ephemeral port), and
serves each accepted connection on its own thread.  A connection speaks
the frame protocol from :mod:`repro.cluster.framing` and supports:

``hello``
    Handshake: verifies the protocol version, returns ``welcome`` with
    the worker's pid.  Optional but recommended — the executor sends it
    on connect so version skew fails loudly at dial time.
``ping`` → ``pong``
    Health probe; used by probe-gated host recovery.
``task``
    Execute a by-name shard worker function.  The frame carries
    ``fn`` (``"module:attribute"``, module restricted to the ``repro``
    package), ``args``, an optional ``ship`` dict of interned shard
    chunks, and an ``id`` echoed in the result.  Arguments may contain
    :class:`~repro.cluster.framing.ShardRef` placeholders; they resolve
    against the per-connection cache populated by earlier ``ship``
    entries.  Unknown refs don't fail the task — the worker answers with
    the missing keys and the executor re-ships.
``shutdown``
    Acknowledge and stop the whole worker (used by orderly teardown).

Application exceptions raised by the shard function travel back pickled
and are re-raised executor-side, preserving the backend's error-parity
contract; everything protocol-shaped raises typed error frames instead.

The per-connection cache makes interning *correct by construction*: a
connection is owned by exactly one executor, and the executor tracks
which keys it has shipped on it, so there is no cross-tenant cache
coherence to reason about.  Worker functions still share the process-wide
:class:`~repro.backend.cache.MatrixCache`, so repeated tasks over the
same offers also reuse packed matrices across calls.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pickle
import socket
import sys
import threading
import traceback
from typing import Dict, Optional, Sequence

from .framing import (
    PROTOCOL_VERSION,
    ShardRef,
    WireError,
    recv_frame,
    send_frame,
)

__all__ = ["WorkerServer", "main", "resolve_function"]


def resolve_function(name: str):
    """Import a shard worker function from its ``module:attribute`` name.

    Only ``repro``-package modules are importable — the wire must not be
    a generic remote-code-execution endpoint.
    """
    module_name, separator, attribute = name.partition(":")
    if not separator or not attribute:
        raise ValueError(f"function name {name!r} is not 'module:attribute'")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ValueError(f"refusing to import non-repro module {module_name!r}")
    function = getattr(importlib.import_module(module_name), attribute, None)
    if not callable(function):
        raise ValueError(f"{name!r} does not resolve to a callable")
    return function


def _substitute(value, cache: Dict[str, Sequence], missing: set):
    """Resolve :class:`ShardRef` placeholders inside one task argument."""
    if isinstance(value, ShardRef):
        if value.key not in cache:
            missing.add(value.key)
            return None
        return cache[value.key]
    return value


class _Connection(threading.Thread):
    """One client connection: its frame loop, ref cache and counters."""

    def __init__(self, server: "WorkerServer", sock: socket.socket) -> None:
        super().__init__(daemon=True, name="cluster-worker-conn")
        self.server = server
        self.sock = sock
        self.cache: Dict[str, Sequence] = {}

    def run(self) -> None:
        try:
            while True:
                try:
                    message = recv_frame(self.sock)
                except WireError:
                    break
                if message is None:
                    break
                if not self._handle(message):
                    break
        except OSError:
            pass
        finally:
            try:
                self.sock.close()
            except OSError:
                pass

    def _handle(self, message: dict) -> bool:
        """Dispatch one frame; returns False to end the connection."""
        operation = message.get("op")
        if operation == "hello":
            version = message.get("version")
            compatible = version == PROTOCOL_VERSION
            send_frame(
                self.sock,
                {
                    "op": "welcome" if compatible else "error",
                    "version": PROTOCOL_VERSION,
                    "pid": self.server.pid,
                    **(
                        {}
                        if compatible
                        else {"reason": f"protocol version {version!r} unsupported"}
                    ),
                },
            )
            return compatible
        if operation == "ping":
            send_frame(self.sock, {"op": "pong"})
            return True
        if operation == "task":
            self._run_task(message)
            return True
        if operation == "stats":
            with self.server._lock:
                send_frame(
                    self.sock,
                    {
                        "op": "stats",
                        "tasks": self.server.tasks,
                        "shipped_keys": self.server.shipped_keys,
                        "ref_hits": self.server.ref_hits,
                        "cached_keys": len(self.cache),
                    },
                )
            return True
        if operation == "shutdown":
            send_frame(self.sock, {"op": "bye"})
            self.server.stop()
            return False
        send_frame(
            self.sock,
            {"op": "error", "reason": f"unknown operation {operation!r}"},
        )
        return False

    def _run_task(self, message: dict) -> None:
        task_id = message.get("id")
        shipped = message.get("ship") or {}
        for key, chunk in shipped.items():
            self.cache[key] = chunk
        with self.server._lock:
            self.server.shipped_keys += len(shipped)
        missing: set = set()
        arguments = [
            _substitute(value, self.cache, missing)
            for value in message.get("args", [])
        ]
        if missing:
            # Not an error: the executor's view of this connection's cache
            # was stale (fresh connection, evicted worker).  Ask for bytes.
            send_frame(
                self.sock,
                {"op": "result", "id": task_id, "ok": False,
                 "missing": sorted(missing)},
                pickled=True,
            )
            return
        with self.server._lock:
            self.server.tasks += 1
            self.server.ref_hits += sum(
                1
                for value in message.get("args", [])
                if isinstance(value, ShardRef) and value.key not in shipped
            )
        try:
            function = resolve_function(message.get("fn", ""))
            value = function(*arguments)
            reply = {"op": "result", "id": task_id, "ok": True, "value": value}
        except BaseException as error:  # noqa: BLE001 - transported to client
            reply = {
                "op": "result",
                "id": task_id,
                "ok": False,
                "error": error,
                "traceback": traceback.format_exc(),
            }
        # Serialise BEFORE framing: an unpicklable result must degrade to
        # a typed error frame, never to a torn stream.
        try:
            pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # pragma: no cover - exotic payloads
            reply = {
                "op": "result",
                "id": task_id,
                "ok": False,
                "error": ValueError(
                    f"worker result is not picklable: {error}"
                ),
                "traceback": traceback.format_exc(),
            }
        send_frame(self.sock, reply, pickled=True)


class WorkerServer:
    """The accept loop plus process-wide counters."""

    def __init__(self, bind: str = "127.0.0.1:0") -> None:
        # Register every backend the host supports before accepting work:
        # shard functions resolve inner backends by name, and doing it here
        # (single-threaded) keeps the first concurrent tasks off the slow
        # NumPy-import path.
        importlib.import_module("repro.backend").available_backends()
        host, _, port = bind.rpartition(":")
        if not host or not port:
            raise ValueError(f"bind address {bind!r} is not 'host:port'")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(64)
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self.tasks = 0
        self.shipped_keys = 0
        self.ref_hits = 0
        self.pid = os.getpid()

    @property
    def address(self) -> str:
        """The bound ``host:port`` (ephemeral port resolved)."""
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def stop(self) -> None:
        """Ask the accept loop to exit; idempotent.

        ``shutdown`` before ``close``: closing a listener another thread
        is blocked in ``accept`` on does not reliably wake it, while
        shutting the socket down does.
        """
        if not self._stopping.is_set():
            self._stopping.set()
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close race
                pass

    def serve_forever(self, announce: bool = True) -> None:
        """Accept connections until :meth:`stop`; optionally print the banner."""
        if announce:
            print(f"LISTENING {self.address}", flush=True)
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _Connection(self, sock).start()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.cluster.worker --bind host:port``."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="Long-lived TCP shard worker for the repro cluster.",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="host:port to listen on (port 0 picks an ephemeral port)",
    )
    options = parser.parse_args(argv)
    try:
        server = WorkerServer(bind=options.bind)
    except (OSError, ValueError) as error:
        print(f"ERROR {error}", flush=True)
        return 2
    server.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
