"""Wire framing for the cluster protocol: the WAL idiom over a socket.

Every message between a :class:`~repro.cluster.executor.RemoteShardExecutor`
and a :mod:`repro.cluster.worker` travels as one *frame*::

    <length: uint32 LE> <crc32(payload): uint32 LE> <payload>
    payload = <kind: 1 byte> <body>

— exactly the length-prefixed, CRC-checked record framing the write-ahead
log (:mod:`repro.persist.wal`) uses on disk, applied to a TCP stream.  The
CRC turns a torn or corrupted frame into a detected :class:`WireError`
(a :class:`ConnectionError`, so it enters the same reconnect/redispatch
paths a genuine connection loss does) instead of silently mis-parsed work.

Two payload kinds coexist on one connection:

``J`` (JSON)
    Control traffic — handshakes, pings, shutdown — human-debuggable with
    ``tcpdump`` and versionable without pickling concerns.
``P`` (pickle)
    Task and result frames.  Shard tasks carry measures, flex-offers and
    arbitrary per-shard results; those are exactly the objects the process
    executor already pickles today, so the wire inherits the same
    picklability contract.

Large arguments are *interned* rather than re-shipped: a sequence of
flex-offers is replaced by a :class:`ShardRef` naming its fingerprint
digest, and the bytes travel only when the receiving connection has not
seen that key yet (see the executor/worker modules).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import socket
import struct
import zlib
from typing import Optional, Sequence

from ..faults.plan import FaultPlan

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ShardRef",
    "WireError",
    "recv_frame",
    "send_frame",
    "shard_key",
]

#: Per-frame header: payload length, then the payload's CRC-32 (WAL idiom).
_HEADER = struct.Struct("<II")

#: Hard upper bound on a single frame.  A 1M-offer shard pickles to well
#: under this; anything larger is a corrupted length word, not a task.
MAX_FRAME_BYTES = 1 << 31

#: Bumped on incompatible message-shape changes; checked in the handshake.
PROTOCOL_VERSION = 1

_KIND_JSON = b"J"
_KIND_PICKLE = b"P"


class WireError(ConnectionError):
    """A framing violation: truncated frame, CRC mismatch, bad payload.

    Subclasses :class:`ConnectionError` deliberately — once a stream
    mis-frames there is no way to resynchronise, so callers must treat the
    connection exactly like one the peer closed: discard it, reconnect,
    redispatch.
    """


class ShardRef:
    """A by-key reference to an interned shard argument.

    The executor replaces a shard's flex-offer chunk with its
    :func:`shard_key` before pickling the task frame; the worker resolves
    the key against its per-connection cache.  Pickles to just the key
    string, which is the entire point.
    """

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key

    def __reduce__(self):
        return (ShardRef, (self.key,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRef({self.key[:12]}…)"


def shard_key(flex_offers: Sequence) -> str:
    """The interning key of a shard chunk: a digest of its content.

    Mirrors :meth:`repro.backend.cache.MatrixCache.key_of` — per-offer
    structural fingerprint *plus* name (fingerprints are name-blind, but
    worker-side code may consult ``supports`` overrides that see names) —
    folded through BLAKE2b so the wire carries a short hex string instead
    of a tuple of 64-bit integers.
    """
    digest = hashlib.blake2b(digest_size=16)
    for flex_offer in flex_offers:
        digest.update(flex_offer.fingerprint.to_bytes(8, "little"))
        name = flex_offer.name
        if name is not None:
            digest.update(str(name).encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def send_frame(
    sock: socket.socket,
    message: dict,
    *,
    pickled: bool = False,
    faults: Optional[FaultPlan] = None,
    site: Optional[str] = None,
) -> int:
    """Serialise and send one message; returns the payload byte count.

    ``pickled`` selects the payload kind.  The fault site (``cluster.send``
    on the executor side) fires *before* any byte hits the socket, so an
    injected failure behaves like a connection that died between frames —
    the peer never sees a torn frame.
    """
    if pickled:
        payload = _KIND_PICKLE + pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    else:
        payload = _KIND_JSON + json.dumps(
            message, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds the cap")
    if faults is not None and site is not None:
        faults.fire(site)
    sock.sendall(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
    return len(payload)


def _recv_exact(sock: socket.socket, count: int, at_boundary: bool) -> Optional[bytes]:
    """Exactly ``count`` bytes, ``None`` on clean EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == count:
                return None
            raise WireError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
    *,
    faults: Optional[FaultPlan] = None,
    site: Optional[str] = None,
) -> Optional[dict]:
    """Receive one message, or ``None`` when the peer closed cleanly.

    Every validation failure — oversized length word, CRC mismatch,
    unknown payload kind, unparseable body, a non-dict message — raises
    :class:`WireError`; a frame is either exactly what the peer framed or
    the connection is dead.
    """
    if faults is not None and site is not None:
        faults.fire(site)
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    length, crc = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise WireError(f"implausible frame length {length}")
    payload = _recv_exact(sock, length, at_boundary=False)
    if zlib.crc32(payload) != crc:
        raise WireError("frame CRC mismatch")
    kind, body = payload[:1], payload[1:]
    try:
        if kind == _KIND_JSON:
            message = json.loads(body.decode("utf-8"))
        elif kind == _KIND_PICKLE:
            message = pickle.loads(body)
        else:
            raise ValueError(f"unknown payload kind {kind!r}")
    except WireError:
        raise
    except Exception as error:
        raise WireError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict):
        raise WireError(f"frame payload is not a message dict: {type(message)}")
    return message
