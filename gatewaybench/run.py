"""End-to-end benchmark of the ``repro.server`` gateway.

    python3 gatewaybench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Run from the repository root.  The gateway runs in its own process
(``gatewaybench/server.py``) on a loopback TCP port with durable tenants;
this process is the client.  Each tenant holds one keep-alive connection
and runs a closed loop — it sends its next request when the previous
answer arrived — through the request cycle of :mod:`workloads`.  Inputs
are generated from ``--seed``; the gateway only ever sees the requests.

A run sets the gateway up :data:`SETUPS` times (start the process, create
the tenants, bulk-ingest their populations) and reports the median set-up
time; the last set-up serves the measured run.  One untimed warm-up cycle
per tenant precedes ``--seconds`` of measurement.  Every response is
checked against the client's own model of each tenant's live population,
and after the run:

* each tenant's evaluate, schedule and trade results must equal
  ``evaluate_set``, the ``earliest`` scheduler and a trading session
  clearing the batch aggregates, all on the reference backend over the
  offers the client knows are live, bit for bit;
* the gateway is killed (SIGKILL: no shutdown checkpoint), a fresh
  gateway process is started on the same state directory, and every
  tenant must recover — from its snapshot, if any, and the WAL since — to
  the same three results, with every tick it was sent counted.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones: the median latency of evaluate and of schedule
requests, the 95th percentile over all requests, throughput and set-up
time.  With
``--trace 1`` the gateway records layer spans (see :mod:`tracing`) and
the metrics are per request: each layer's self time, the time outside
every server span (transport), and the layer counters.

Which layer metric should move which end-to-end metric:

* ``measure_self_ms``, ``publish_self_ms``, ``cache_key_offers`` —
  ``evaluate_p50_ms`` and ``schedule_p50_ms``, most on ``sharded``,
  where the live population is large; ``shard_tasks`` counts the fan-out;
* ``scheduler_self_ms`` — ``schedule_p50_ms``;
* ``market_self_ms``, ``aggregates_self_ms`` (trade requests) and
  ``apply_self_ms``, ``wal_self_ms`` (stream requests) —
  ``throughput_rps`` and ``p95_ms``;
* ``gateway_self_ms``, ``queue_wait_ms``, ``decode_self_ms``,
  ``encode_self_ms``, ``transport_ms`` — every metric, most visibly on
  ``fleet``, where per-request work is tiny and requests queue in the
  gateway's admission gate (counted in ``gateway_self_ms``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run state directories (removed
#: at the end of the run) and the last trace of each workload and seed.
WORK = ROOT / ".gatewaybench"

SETUPS = 3
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: The gateway's environment: no REPRO_* knob of the caller's leaks into
#: the configuration under test, and one hash seed keeps set and dict
#: orders inside the program the same from run to run.
GATEWAY_ENV = {
    key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
}
GATEWAY_ENV["PYTHONHASHSEED"] = "0"

if not (SRC / "repro").is_dir():
    sys.exit(f"no program to benchmark: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

from repro.aggregation import GroupingParameters, aggregate_all, group_by_grid  # noqa: E402
from repro.backend import use_backend  # noqa: E402
from repro.io import request_to_dict  # noqa: E402
from repro.market import FlexibilityPricer, TradingSession  # noqa: E402
from repro.measures import evaluate_set  # noqa: E402
from repro.scheduling import EarliestStartScheduler  # noqa: E402
from repro.server import GatewayClient  # noqa: E402
from repro.service import (  # noqa: E402
    EvaluateRequest,
    ScheduleRequest,
    StreamRequest,
    TradeRequest,
)
from repro.stream import OfferArrived, Tick  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import KINDS, MIX, TRADE_BUDGET, WORKLOADS  # noqa: E402

#: The request body of each kind but ``stream`` (which carries the clock).
BODIES = {
    "evaluate": request_to_dict(EvaluateRequest()),
    "schedule": request_to_dict(ScheduleRequest("earliest")),
    "trade": request_to_dict(TradeRequest(budget=TRADE_BUDGET)),
}


class BenchError(Exception):
    """The program answered wrongly or could not be run."""


class GatewayProcess:
    """A ``server.py`` child process and the port it listens on."""

    def __init__(self, state: Path, workload, trace_out=None) -> None:
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--persist-root",
            str(state),
            "--session",
            json.dumps(workload.session_config()),
            "--tenants",
            str(workload.tenants),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=GATEWAY_ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.kill()
            raise BenchError("the gateway process exited before listening")
        self.port = json.loads(line)["port"]

    def command(self, line: str) -> None:
        """Send one stdin command and wait until the gateway applied it."""
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        if self.process.stdout.readline().strip() != "ok":
            raise BenchError(f"the gateway did not acknowledge {line!r}")

    def stop(self) -> None:
        """Shut the gateway down cleanly (end of input) and wait for it."""
        self.process.stdin.close()
        try:
            code = self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("the gateway process did not shut down") from None
        finally:
            self.process.stdout.close()
        if code != 0:
            raise BenchError(f"the gateway process exited with code {code}")

    def kill(self) -> None:
        """SIGKILL the gateway (if still running) and wait for it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


class Tenant:
    """One tenant: its connection, population and request position."""

    def __init__(self, index: int, workload, seed: int) -> None:
        self.name = f"tenant-{index}"
        self.live = workload.tenant_offers(seed, index, self.name)
        # Built once: encoding the offers is the client's work, not set-up.
        events = tuple(OfferArrived(offer.name, offer) for offer in self.live)
        self.ingest = request_to_dict(StreamRequest(events=events, bulk=True))
        self.clock = 0
        self.order = random.Random(f"order-{seed}-{index}")
        self.pending = []
        self.client = None

    def next_kind(self) -> str:
        """The next request kind: every cycle sends each kind of ``MIX``
        once, in a seeded random order (see :mod:`workloads`)."""
        if not self.pending:
            self.pending = list(MIX)
            self.order.shuffle(self.pending)
        return self.pending.pop()

    def body(self, kind: str) -> dict:
        """The request body of the tenant's next ``kind`` request."""
        if kind != "stream":
            return BODIES[kind]
        self.clock += 1
        return request_to_dict(StreamRequest(events=(Tick(self.clock),)))

    async def submit(self, body: dict):
        return await asyncio.wait_for(
            self.client.request("POST", f"/sessions/{self.name}/requests", body),
            REQUEST_TIMEOUT_S,
        )

    def check(self, kind: str, response, applied: int = 1) -> None:
        """Raise :class:`BenchError` unless ``response`` is right for ``kind``."""
        if response.status != 200:
            raise BenchError(f"{self.name} {kind}: HTTP {response.status}")
        payload = response.payload
        live = len(self.live)
        if kind in ("stream", "ingest"):
            if (payload["applied"], payload["live"]) != (applied, live):
                raise BenchError(f"{self.name} {kind}: {payload['live']} live")
            # Every tick the tenant sent is counted, across restarts too.
            ticks = payload["engine_stats"]["ticks"]
            if kind == "stream" and (payload["time"], ticks) != (self.clock,) * 2:
                raise BenchError(f"{self.name} stream: {ticks} of {self.clock} ticks")
        elif kind == "evaluate":
            if payload["report"]["size"] != live or not payload["report"]["values"]:
                raise BenchError(f"{self.name} evaluate: wrong report")
        elif kind == "schedule":
            if len(payload["schedule"]["assignments"]) != live:
                raise BenchError(f"{self.name} schedule: wrong length")
        elif not payload["accepted"]:
            raise BenchError(f"{self.name} trade: nothing accepted")

    def reference(self) -> tuple:
        """Evaluate, schedule and trade outcomes on the reference backend."""
        trade = TradeRequest(budget=TRADE_BUDGET)
        with use_backend("reference"):
            report = evaluate_set(self.live)
            schedule = EarliestStartScheduler().schedule(self.live, None)
            lots = aggregate_all(group_by_grid(self.live, GroupingParameters()))
            accepted, rejected = TradingSession(
                FlexibilityPricer(
                    trade.measure, trade.energy_price, trade.premium_per_unit
                ),
                budget=trade.budget,
            ).clear(lots)
        revenue = float(sum(bid.total_price for bid in accepted))
        return outcome(report, schedule, accepted, rejected, revenue)


def outcome(report, schedule, accepted, rejected, revenue) -> tuple:
    """The parts of a tenant's three results that must match exactly."""
    return (
        report.values,
        report.skipped,
        schedule.assignments,
        tuple(accepted),
        tuple(rejected),
        revenue,
    )


async def served_outcome(tenant) -> tuple:
    """The tenant's evaluate, schedule and trade results via the gateway."""
    results = {}
    for kind in ("evaluate", "schedule", "trade"):
        response = await tenant.submit(BODIES[kind])
        tenant.check(kind, response)
        results[kind] = response.result()
    trade = results["trade"]
    return outcome(
        results["evaluate"].report,
        results["schedule"].schedule,
        trade.accepted,
        trade.rejected,
        trade.revenue,
    )


async def connect(tenants, port: int) -> None:
    for tenant in tenants:
        tenant.client = await GatewayClient.open_tcp("127.0.0.1", port)


async def close_clients(tenants) -> None:
    for tenant in tenants:
        if tenant.client is not None:
            await tenant.client.close()
            tenant.client = None


async def set_up(workload, tenants, state: Path, trace_out=None):
    """Start a gateway, create every tenant and ingest its population.

    Returns the gateway process and the seconds it took.
    """
    started = time.perf_counter()
    gateway = GatewayProcess(state, workload, trace_out)
    try:

        async def one(tenant):
            tenant.clock = 0
            tenant.client = await GatewayClient.open_tcp("127.0.0.1", gateway.port)
            created = await asyncio.wait_for(
                tenant.client.request("PUT", f"/sessions/{tenant.name}"),
                REQUEST_TIMEOUT_S,
            )
            if created.status != 201:
                raise BenchError(f"{tenant.name}: create gave {created.status}")
            response = await tenant.submit(tenant.ingest)
            tenant.check("ingest", response, len(tenant.live))

        await asyncio.gather(*(one(tenant) for tenant in tenants))
    except BaseException:
        gateway.kill()
        raise
    return gateway, time.perf_counter() - started


async def drive(tenant, samples: dict, deadline: float, steps=None):
    """The tenant's closed loop until ``deadline`` or after ``steps``."""
    done = 0
    while done != steps and time.perf_counter() < deadline:
        kind = tenant.next_kind()
        body = tenant.body(kind)
        started = time.perf_counter()
        response = await tenant.submit(body)
        samples[kind].append(time.perf_counter() - started)
        tenant.check(kind, response)
        if "stats" in response.payload:
            samples["stats"].append(response.payload["stats"])
        done += 1


#: Request kinds with a median latency metric of their own.  Trade and
#: stream requests count in ``p95_ms`` and ``throughput_rps`` only: on
#: ``sharded`` a trade's median flips with how many trades a full
#: collection of the gateway's heap lands in, and a ~2 ms stream request
#: is within the host's scheduling noise (measured IQR/median over 10
#: seeds: 0.33 and 0.29).
MEDIAN_KINDS = ("evaluate", "schedule")


def end_to_end_metrics(samples: dict, elapsed: float, setup_times) -> dict:
    latencies = [value for kind in KINDS for value in samples[kind]]
    metrics = {
        f"{kind}_p50_ms": (statistics.median(samples[kind]) * 1e3, "ms")
        for kind in MEDIAN_KINDS
    }
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[-1]
    metrics["p95_ms"] = (p95 * 1e3, "ms")
    metrics["throughput_rps"] = (len(latencies) / elapsed, "1/s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    return metrics


def per_layer_metrics(trace_out: Path, samples: dict) -> dict:
    latencies = [value for kind in KINDS for value in samples[kind]]
    traced = json.loads(trace_out.read_text())
    requests = sum(1 for span in traced["spans"] if span[2] == "server.handle")
    layers = layer_metrics(traced["spans"], traced["counts"], requests)
    # Client-observed time no server span covers: TCP, HTTP framing and
    # the client's own JSON work.
    layers["transport_ms"] = (
        statistics.fmean(latencies) * 1e3 - layers.pop("traced_ms")
    )
    for counter in ("cache_hits", "cache_misses"):
        layers[counter] = sum(block[counter] for block in samples["stats"]) / len(
            latencies
        )
    return {
        name: (value, "ms" if name.endswith("_ms") else "count")
        for name, value in layers.items()
    }


async def bench(workload, seed: int, seconds: float, trace: bool) -> dict:
    tenants = [Tenant(index, workload, seed) for index in range(workload.tenants)]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    state = run_dir / f"state-{SETUPS - 1}"
    trace_out = WORK / f"trace-{workload.name}-{seed}.json" if trace else None
    gateway = None
    try:
        setup_times = []
        for attempt in range(SETUPS):
            last = attempt == SETUPS - 1
            gateway, elapsed = await set_up(
                workload,
                tenants,
                run_dir / f"state-{attempt}",
                trace_out if last else None,
            )
            setup_times.append(elapsed)
            if not last:
                await close_clients(tenants)
                gateway.stop()
                gateway = None

        # Warm-up: one untimed cycle per tenant.
        ignored = {kind: [] for kind in (*KINDS, "stats")}
        await asyncio.gather(
            *(drive(tenant, ignored, math.inf, len(MIX)) for tenant in tenants)
        )

        samples = {kind: [] for kind in (*KINDS, "stats")}
        if trace:
            gateway.command("trace on")
        started = time.perf_counter()
        await asyncio.gather(
            *(drive(tenant, samples, started + seconds) for tenant in tenants)
        )
        elapsed = time.perf_counter() - started
        if trace:
            gateway.command("trace off")

        served = {}
        for tenant in tenants:
            served[tenant.name] = await served_outcome(tenant)
            if served[tenant.name] != tenant.reference():
                raise BenchError(f"{tenant.name}: results differ from reference")
        await close_clients(tenants)
        gateway.kill()

        gateway = GatewayProcess(state, workload)
        await connect(tenants, gateway.port)
        for tenant in tenants:
            if await served_outcome(tenant) != served[tenant.name]:
                raise BenchError(f"{tenant.name}: recovered state differs")
            tenant.check("stream", await tenant.submit(tenant.body("stream")))
        await close_clients(tenants)
        gateway.stop()
        gateway = None
    finally:
        if gateway is not None:
            gateway.kill()
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(trace_out, samples)
    else:
        metrics = end_to_end_metrics(samples, elapsed, setup_times)
    return {
        "correct": True,
        "attempted": sum(len(samples[kind]) for kind in KINDS),
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="gateway end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The client's own cyclic collections, which walk every generated
    # offer, would otherwise land inside timed requests.  Response
    # payloads are plain JSON trees and are freed by reference counting.
    gc.disable()
    try:
        result = asyncio.run(
            bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        )
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
