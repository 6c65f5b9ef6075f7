"""S-GATEWAY — latency and throughput of the multi-tenant asyncio gateway.

The ROADMAP's "millions of users" proof point: one gateway process serving
1,000+ concurrent tenants, each with an isolated session, over the full
HTTP wire path (parse → ``request_from_dict`` → submit, on the event
loop for a cheap request and on the worker pool otherwise →
``result_envelope`` → ``Response.encode``), with mixed
evaluate/schedule/trade/stream traffic
driven by :mod:`tools.loadgen` over the in-process asyncio transport.

Three CI gates:

* **sustained throughput + bounded tail** — 1,000 concurrent tenants,
  4 mixed requests each, must complete with zero failures at >= 200 req/s
  with p99 latency <= 10 s (measured ~1,200 req/s and p99 ~1.2 s on a
  single-core dev box; the gate leaves ~6x/8x headroom for noisy CI
  runners).
* **saturation behaviour** — a deliberately tiny gateway (1 execution
  slot, 1 waiting slot, zero per-session queue) flooded with concurrent
  requests must answer 429 + ``Retry-After`` for the overflow and keep
  every queue within its configured bound: backpressure, never unbounded
  queue growth.
* **cheap requests on the loop** — 200 tenants each send one bulk ingest
  and 15 mix requests.  The ingest and each kind's first request go to
  the worker pool; the other 11 of the 16 follow a cheap request of
  their kind and run on the event loop.  At least half of the served
  submits must be counted in the gateway's ``inline``, with zero
  failures.

``bench_records()`` feeds p50/p95/p99 and RPS into the cumulative
BENCH_PR6.json dashboard; ``speedup`` is the concurrency gain of the
closed-loop fleet over one solo tenant issuing the same mix sequentially.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from loadgen import run_load  # noqa: E402

try:
    from conftest import report
except ImportError:  # pragma: no cover - loaded by path (bench_to_json)

    def report(title: str, lines) -> None:
        """Plain-stdout stand-in when pytest's conftest is not importable."""
        print(f"\n=== {title} ===")
        for line in lines:
            print(f"  {line}")


#: The CI smoke scale (the ISSUE acceptance floor) and its gates.
GATE_TENANTS = 1_000
GATE_REQUESTS = 4
GATE_MIN_RPS = 200.0
GATE_MAX_P99_MS = 10_000.0

#: The placement gate's scale: 1 bulk ingest + 15 mix requests per tenant.
PLACEMENT_TENANTS = 200
PLACEMENT_REQUESTS = 16
PLACEMENT_MIN_INLINE = 0.5


def _summary_lines(summary: dict) -> list:
    return [
        f"tenants={summary['tenants']} completed={summary['completed']} "
        f"failures={summary['failures']} retries_429={summary['retries_429']}",
        f"rps={summary['rps']:.0f} p50={summary['p50_ms']:.1f}ms "
        f"p95={summary['p95_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms",
    ]


def run_scale(tenants: int, requests: int = GATE_REQUESTS) -> dict:
    """One closed-loop mixed-traffic run at the given tenant count."""
    return asyncio.run(run_load(tenants=tenants, requests=requests))


def test_gateway_sustains_1000_concurrent_tenants():
    """ISSUE acceptance: >= 1,000 concurrent tenants, mixed traffic, zero
    failures, sustained throughput and a bounded p99."""
    summary = run_scale(GATE_TENANTS)
    report(
        f"gateway mixed traffic @ {GATE_TENANTS} tenants",
        _summary_lines(summary),
    )
    assert summary["completed"] == GATE_TENANTS * GATE_REQUESTS
    assert summary["failures"] == 0
    assert summary["rps"] >= GATE_MIN_RPS, (
        f"sustained throughput {summary['rps']:.0f} req/s below the "
        f"{GATE_MIN_RPS:.0f} req/s gate"
    )
    assert summary["p99_ms"] <= GATE_MAX_P99_MS, (
        f"p99 latency {summary['p99_ms']:.0f} ms above the "
        f"{GATE_MAX_P99_MS:.0f} ms gate"
    )


def test_cheap_requests_are_served_on_the_event_loop():
    """A live tenant's request whose predecessor of the same kind took at
    most one switch interval skips the worker pool's two thread crossings."""
    summary = run_scale(PLACEMENT_TENANTS, PLACEMENT_REQUESTS)
    served, inline = summary["gateway"]["served"], summary["gateway"]["inline"]
    report(
        f"request placement @ {PLACEMENT_TENANTS} tenants x "
        f"{PLACEMENT_REQUESTS} requests",
        _summary_lines(summary) + [f"served={served} inline={inline}"],
    )
    assert summary["failures"] == 0
    assert served == PLACEMENT_TENANTS * PLACEMENT_REQUESTS
    assert inline >= PLACEMENT_MIN_INLINE * served, (
        f"{inline} of {served} submits ran on the event loop, below the "
        f"{PLACEMENT_MIN_INLINE:.0%} gate"
    )


def test_saturated_gateway_rejects_with_429_and_bounded_queues():
    """Flooding a one-slot gateway yields 429 + Retry-After for the
    overflow — bounded queues, no unbounded growth, no errors."""
    from repro.server import Gateway, GatewayClient, GatewayConfig
    from repro.service import EvaluateRequest, SessionConfig

    flood = 40

    async def scenario():
        gateway = Gateway(
            GatewayConfig(
                max_pending=1,
                session_queue_depth=0,
                workers=1,
                session_defaults=SessionConfig(backend="reference"),
            )
        )
        try:
            setup = GatewayClient.in_process(gateway)
            for name in ("flood-a", "flood-b"):
                created = await setup.create_session(name)
                assert created.status == 201

            async def one(index: int):
                client = GatewayClient.in_process(gateway)
                name = "flood-a" if index % 2 else "flood-b"
                response = await client.submit(name, EvaluateRequest())
                await client.close()
                return response

            responses = await asyncio.gather(
                *(one(index) for index in range(flood))
            )
            await setup.close()
            session_rejected = sum(
                gateway.registry.entry(name).gate.rejected
                for name in ("flood-a", "flood-b")
            )
            return responses, gateway.stats(), session_rejected
        finally:
            gateway.close()

    responses, stats, session_rejected = asyncio.run(scenario())
    statuses = sorted({response.status for response in responses})
    rejected = [r for r in responses if r.status == 429]
    report(
        f"saturation flood ({flood} concurrent, 1 slot)",
        [
            f"statuses={statuses} rejected={len(rejected)}",
            f"gate={stats['gate']} session_rejected={session_rejected}",
        ],
    )
    assert set(statuses) <= {200, 429}
    assert rejected, "a one-slot gateway must shed a 40-request flood"
    assert all(r.retry_after is not None for r in rejected)
    assert all(r.payload["error"] == "saturated" for r in rejected)
    # The bounded-queue invariant: nothing ever waited beyond the limits.
    # Each request is refused by its tenant's gate, or then refused or
    # admitted by the global one.
    assert stats["gate"]["waiting"] == 0
    gate = stats["gate"]
    assert session_rejected + gate["rejected"] + gate["admitted"] >= flood


def bench_records(gate_scale: bool = False) -> list:
    """Machine-readable records for the cumulative BENCH_PR*.json dashboard.

    ``speedup`` is the concurrency gain: fleet RPS over the RPS of a
    single tenant issuing the same request mix sequentially.
    """
    tenants = GATE_TENANTS if gate_scale else 200
    solo = asyncio.run(run_load(tenants=1, requests=64))
    fleet = run_scale(tenants)
    return [
        {
            "name": f"gateway_mixed_{tenants}_tenants",
            "tenants": tenants,
            "requests": fleet["completed"],
            "failures": fleet["failures"],
            "ops_per_s": fleet["rps"],
            "speedup": fleet["rps"] / solo["rps"] if solo["rps"] else float("nan"),
            "p50_ms": fleet["p50_ms"],
            "p95_ms": fleet["p95_ms"],
            "p99_ms": fleet["p99_ms"],
            "solo_rps": solo["rps"],
        }
    ]


if __name__ == "__main__":
    for record in bench_records(gate_scale="--gate-scale" in sys.argv):
        print(record)
