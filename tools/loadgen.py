#!/usr/bin/env python3
"""Asyncio load generator for the :mod:`repro.server` gateway.

Drives thousands of concurrent tenants — each with its own named session
and keep-alive connection — through a closed-loop mix of
``stream`` / ``evaluate`` / ``schedule`` / ``trade`` traffic, and reports
latency percentiles (p50/p95/p99) plus sustained RPS.  This is the
"millions of users" proof harness of the ROADMAP: per-tenant isolation at
gateway scale, backpressure instead of queue growth, and a measurable
latency distribution.

Two transports:

* ``memory`` (default) — the gateway's in-process asyncio transport.  No
  sockets, no file descriptors per tenant, so 1k+ concurrent tenants fit
  in any CI box; every byte still travels the full HTTP parse/serve path.
* ``tcp`` — real sockets against a gateway started in-process (or an
  external one via ``--host``/``--port``).

Usage::

    PYTHONPATH=src python tools/loadgen.py --tenants 1000 --requests 4
    PYTHONPATH=src python tools/loadgen.py --transport tcp --tenants 200
    PYTHONPATH=src python tools/loadgen.py --json   # machine-readable

Requests rejected with 429 are retried after the server's ``Retry-After``
hint (counted in the summary); any other non-2xx is a hard failure.

``--fault-rate P`` arms the gateway's deterministic fault plane with two
probabilistic ``gateway.dispatch`` rules — half the budget surfaces as a
typed 429 (``SaturatedError``, which must carry a ``Retry-After`` hint),
half as an injected 500.  Both are transient, so tenants retry them; the
summary then separates *injected* rejections from real failures, proving
the 429/5xx accounting and backpressure hints hold up under failure.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import FlexOffer  # noqa: E402
from repro.faults import GATEWAY_DISPATCH, FaultPlan, FaultRule  # noqa: E402
from repro.io import request_to_dict  # noqa: E402
from repro.server import Gateway, GatewayClient, GatewayConfig, serve  # noqa: E402
from repro.service import (  # noqa: E402
    EvaluateRequest,
    ScheduleRequest,
    SessionConfig,
    StreamRequest,
    TradeRequest,
)
from repro.stream import Tick, population_events  # noqa: E402

#: The per-tenant closed-loop traffic cycle (after the initial ingest).
MIX = ("evaluate", "schedule", "trade", "stream")


def fault_plan(rate: float, seed: int = 0) -> FaultPlan:
    """A dispatch-site plan injecting transient 429s and 500s at ``rate``.

    The budget is split evenly: a typed ``SaturatedError`` (the gateway
    must keep its 429 status and attach a ``Retry-After`` hint) and a
    default ``FaultInjected`` (surfaces as a 500 whose detail names the
    injection site).  Rules are unbounded (``count=None``) so the fault
    pressure is sustained for the whole run.
    """
    return FaultPlan(
        [
            FaultRule(
                GATEWAY_DISPATCH,
                error="repro.server.limits.SaturatedError",
                count=None,
                probability=rate / 2,
            ),
            FaultRule(GATEWAY_DISPATCH, count=None, probability=rate / 2),
        ],
        seed=seed,
    )


def _is_injected(response) -> bool:
    """True when a 5xx came from the fault plane, not a real defect."""
    detail = (
        response.payload.get("detail", "")
        if isinstance(response.payload, dict)
        else ""
    )
    return "injected" in str(detail)


def tenant_population(index: int, size: int) -> List[FlexOffer]:
    """A small deterministic population unique to one tenant."""
    offers = []
    for i in range(size):
        start = 1 + (index + i) % 8
        width = 2 + (index + 3 * i) % 4
        offers.append(
            FlexOffer(
                start,
                start + width,
                [(1 + i % 2, 3 + i % 3), (2, 4)],
                name=f"tenant{index}-offer{i}",
            )
        )
    return offers


def tenant_requests(index: int, count: int, offers_per_tenant: int):
    """The tenant's wire-format request bodies: ingest, then the mix."""
    offers = tenant_population(index, offers_per_tenant)
    bodies = [
        request_to_dict(
            StreamRequest(events=tuple(population_events(offers)), bulk=True)
        )
    ]
    clock = 0
    for step in range(max(0, count - 1)):
        kind = MIX[(index + step) % len(MIX)]
        if kind == "evaluate":
            bodies.append(request_to_dict(EvaluateRequest()))
        elif kind == "schedule":
            bodies.append(request_to_dict(ScheduleRequest("earliest")))
        elif kind == "trade":
            bodies.append(request_to_dict(TradeRequest(budget=1e9)))
        else:
            clock += 1
            bodies.append(request_to_dict(StreamRequest(events=(Tick(clock),))))
    return bodies[:count]


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending list, linear interpolation."""
    if not sorted_values:
        return float("nan")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


async def _drive_tenant(
    client_factory,
    index: int,
    requests: int,
    offers_per_tenant: int,
    session_config: Optional[dict],
    latencies_ms: List[float],
    counters: dict,
    max_retries: int = 50,
) -> None:
    """One tenant's closed loop: create the session, run the mix, evict.

    ``session_config`` of ``None`` creates the session with no explicit
    config, so the gateway's ``session_defaults`` apply.
    """
    client: GatewayClient = await client_factory()
    name = f"tenant-{index}"
    try:
        response = await client.create_session(name, session_config)
        while response.status == 429 and counters["retries"] < 10**6:
            counters["retries"] += 1
            await asyncio.sleep(response.retry_after or 0.01)
            response = await client.create_session(name, session_config)
        if response.status != 201:
            counters["failures"] += 1
            return
        for body in tenant_requests(index, requests, offers_per_tenant):
            attempts = 0
            while True:
                started = time.perf_counter()
                response = await client.submit(name, body)
                injected = _is_injected(response)
                transient = response.status == 429 or (
                    response.status >= 500 and injected
                )
                if transient and attempts < max_retries:
                    attempts += 1
                    if response.status == 429:
                        counters["retries"] += 1
                        if injected:
                            counters["injected_429"] += 1
                        # Every backoff-shaped rejection must carry a hint.
                        if response.retry_after is None:
                            counters["missing_retry_after"] += 1
                    else:
                        counters["injected_5xx"] += 1
                    await asyncio.sleep(response.retry_after or 0.01)
                    continue
                break
            if response.ok:
                latencies_ms.append((time.perf_counter() - started) * 1e3)
                counters["completed"] += 1
            else:
                counters["failures"] += 1
    except (ConnectionError, OSError):
        counters["failures"] += 1
    finally:
        try:
            await client.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def run_load(
    tenants: int = 1000,
    requests: int = 4,
    offers_per_tenant: int = 4,
    backend: str = "reference",
    transport: str = "memory",
    host: Optional[str] = None,
    port: Optional[int] = None,
    workers: Optional[int] = None,
    max_pending: Optional[int] = None,
    session_queue_depth: int = 8,
    access_log=None,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
) -> dict:
    """Run the mixed-traffic load and return the latency/throughput summary.

    When ``host``/``port`` are not given, a gateway is started in-process
    with a session cap sized to the tenant count and ``max_pending``
    defaulting to one waiting slot per tenant (bounded, closed-loop: each
    tenant holds at most one request in flight, so the wait queue cannot
    exceed the tenant count — anything above it is a saturation bug and
    should 429).
    """
    latencies_ms: List[float] = []
    counters = {
        "completed": 0,
        "failures": 0,
        "retries": 0,
        "injected_429": 0,
        "injected_5xx": 0,
        "missing_retry_after": 0,
    }
    external = host is not None and port is not None
    if fault_rate and external:
        raise ValueError("--fault-rate needs an in-process gateway")
    session_defaults = SessionConfig(backend=backend)

    gateway = None
    server = None
    if not external:
        config = GatewayConfig(
            max_sessions=max(tenants + 8, 16),
            workers=workers,
            max_pending=tenants + 64 if max_pending is None else max_pending,
            session_queue_depth=session_queue_depth,
            session_defaults=session_defaults,
            access_log=access_log,
            fault_plan=fault_plan(fault_rate, fault_seed) if fault_rate else None,
        )
        if transport == "memory":
            gateway = Gateway(config)
        else:
            server = await serve(config)
            gateway = server.gateway
            host, port = server.host, server.port

    if transport == "memory":

        async def client_factory():
            return GatewayClient.in_process(gateway)

    else:

        async def client_factory():
            return await GatewayClient.open_tcp(host, port)

    started = time.perf_counter()
    try:
        await asyncio.gather(
            *(
                _drive_tenant(
                    client_factory,
                    index,
                    requests,
                    offers_per_tenant,
                    {"backend": backend},
                    latencies_ms,
                    counters,
                )
                for index in range(tenants)
            )
        )
    finally:
        elapsed = time.perf_counter() - started
        gateway_stats = gateway.stats() if gateway is not None else {}
        if server is not None:
            await server.close()
        elif gateway is not None:
            gateway.close()

    latencies_ms.sort()
    return {
        "tenants": tenants,
        "requests_per_tenant": requests,
        "transport": transport,
        "backend": backend,
        "completed": counters["completed"],
        "failures": counters["failures"],
        "retries_429": counters["retries"],
        "fault_rate": fault_rate,
        "injected_429": counters["injected_429"],
        "injected_5xx": counters["injected_5xx"],
        "missing_retry_after": counters["missing_retry_after"],
        "elapsed_s": elapsed,
        "rps": counters["completed"] / elapsed if elapsed > 0 else 0.0,
        "p50_ms": percentile(latencies_ms, 0.50),
        "p95_ms": percentile(latencies_ms, 0.95),
        "p99_ms": percentile(latencies_ms, 0.99),
        "max_ms": latencies_ms[-1] if latencies_ms else float("nan"),
        "gateway": gateway_stats,
    }


def format_summary(summary: dict) -> str:
    """A human-readable one-screen report of one load run."""
    lines = [
        f"tenants            {summary['tenants']}",
        f"transport          {summary['transport']} ({summary['backend']} backend)",
        f"completed          {summary['completed']} "
        f"({summary['failures']} failed, {summary['retries_429']} retried on 429)",
    ]
    if summary.get("fault_rate"):
        lines += [
            f"fault rate         {summary['fault_rate']:.2f} "
            f"({summary['injected_429']} injected 429, "
            f"{summary['injected_5xx']} injected 5xx, "
            f"{summary['missing_retry_after']} missing Retry-After)",
        ]
    gateway = summary.get("gateway") or {}
    if "inline" in gateway:
        lines += [
            f"on the event loop  {gateway['inline']} of {gateway['served']} submits"
        ]
    lines += [
        f"elapsed            {summary['elapsed_s']:.2f} s",
        f"throughput         {summary['rps']:.0f} req/s",
        f"latency p50        {summary['p50_ms']:.1f} ms",
        f"latency p95        {summary['p95_ms']:.1f} ms",
        f"latency p99        {summary['p99_ms']:.1f} ms",
        f"latency max        {summary['max_ms']:.1f} ms",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Mixed-traffic load generator for the repro.server gateway"
    )
    parser.add_argument("--tenants", type=int, default=1000)
    parser.add_argument(
        "--requests", type=int, default=4, help="requests per tenant"
    )
    parser.add_argument("--offers", type=int, default=4, help="offers per tenant")
    parser.add_argument(
        "--backend", default="reference", help="per-tenant session backend"
    )
    parser.add_argument(
        "--transport", choices=("memory", "tcp"), default="memory"
    )
    parser.add_argument("--host", default=None, help="external gateway host")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--max-pending", type=int, default=None)
    parser.add_argument("--access-log", default=None)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="probability of an injected dispatch fault per request "
        "(half typed 429s, half 500s; tenants retry both)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="fault plan RNG seed"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    args = parser.parse_args(argv)

    summary = asyncio.run(
        run_load(
            tenants=args.tenants,
            requests=args.requests,
            offers_per_tenant=args.offers,
            backend=args.backend,
            transport=args.transport,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
            access_log=args.access_log,
            fault_rate=args.fault_rate,
            fault_seed=args.fault_seed,
        )
    )
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_summary(summary))
    healthy = summary["failures"] == 0 and summary["missing_retry_after"] == 0
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main())
