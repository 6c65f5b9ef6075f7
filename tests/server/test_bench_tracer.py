"""The gateway benchmark's tracer still finds every layer it wraps.

``gatewaybench/tracing.py`` patches the gateway from outside: it swaps
``app.ThreadPoolExecutor`` and wraps ``Gateway.handle``,
``Response.encode`` and ``FlexSession.submit`` by name.  A refactor of
the hand-off that renames or bypasses one of them would leave a traced
run with missing spans, so this test installs the tracer in a fresh
interpreter, serves an evaluate and a schedule through an in-process
client, and checks the spans that were recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import asyncio, json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)

    from repro.server import Gateway, GatewayClient, GatewayConfig
    from repro.service import EvaluateRequest, ScheduleRequest, StreamRequest
    from repro.stream import population_events
    from repro.workloads import neighbourhood_scenario

    offers = neighbourhood_scenario(households=4, seed=21, horizon=24).flex_offers

    async def main():
        gateway = Gateway(GatewayConfig(workers=2))
        try:
            client = GatewayClient.in_process(gateway)
            await client.create_session("t", {"backend": "reference"})
            await client.submit(
                "t", StreamRequest(events=tuple(population_events(offers)))
            )
            tracer.enabled = True
            statuses = [
                (await client.submit("t", request)).status
                for request in (EvaluateRequest(), ScheduleRequest("earliest"))
            ]
            tracer.enabled = False
            await client.close()
            return statuses
        finally:
            gateway.close()

    statuses = asyncio.run(main())
    names = sorted({span[2] for span in tracer.spans})
    print(json.dumps({"statuses": statuses, "names": names}))
    """
)


def test_the_bench_tracer_records_the_gateway_layers():
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(ROOT / "gatewaybench"),
            str(ROOT / "src"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["statuses"] == [200, 200]
    for name in ("server.handle", "server.queue", "service.session", "io.encode"):
        assert name in report["names"], report["names"]
