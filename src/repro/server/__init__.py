"""``repro.server`` — the async multi-tenant HTTP/JSON gateway.

One process, one event loop, many isolated tenants: each named session
owns its own :class:`~repro.service.FlexSession` (engine, backend,
cache budgets), requests travel as the kind-tagged :mod:`repro.io` wire
format, and overload is answered with bounded queues and 429s instead of
unbounded growth.

>>> import asyncio
>>> from repro.server import Gateway, GatewayClient
>>> async def demo():
...     gateway = Gateway(max_sessions=4)
...     try:
...         client = GatewayClient.in_process(gateway)
...         created = await client.create_session(
...             "tenant-a", {"backend": "reference"}
...         )
...         health = await client.health()
...         await client.close()
...         return created.status, health.payload["status"]
...     finally:
...         gateway.close()
>>> asyncio.run(demo())
(201, 'ok')
"""

from .app import Gateway, GatewayConfig, GatewayServer, Response, serve
from .client import ClientResponse, GatewayClient
from .limits import (
    BadRequestError,
    ConcurrencyGate,
    GatewayError,
    InternalError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    RegistryFullError,
    SaturatedError,
    SessionExistsError,
    UnknownSessionError,
)
from .registry import SessionEntry, SessionRegistry

__all__ = [
    # gateway
    "serve",
    "Gateway",
    "GatewayConfig",
    "GatewayServer",
    "Response",
    # client
    "GatewayClient",
    "ClientResponse",
    # registry
    "SessionRegistry",
    "SessionEntry",
    # backpressure
    "ConcurrencyGate",
    # errors
    "GatewayError",
    "BadRequestError",
    "UnknownSessionError",
    "NotFoundError",
    "MethodNotAllowedError",
    "SessionExistsError",
    "PayloadTooLargeError",
    "SaturatedError",
    "RegistryFullError",
    "InternalError",
]
