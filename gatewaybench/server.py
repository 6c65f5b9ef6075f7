"""The gateway process the benchmark drives over TCP.

    python3 gatewaybench/server.py --persist-root DIR --session JSON \\
        --tenants N [--trace-out FILE]

Starts a :func:`repro.server.serve` gateway on a free loopback port whose
tenants are durable under ``--persist-root`` and default to the
``--session`` SessionConfig fields, then prints ``{"port": N}`` on one
line.  Session cap and wait queue are sized to ``--tenants`` the way
``tools/loadgen.py`` sizes them.  It reads commands from stdin, one per
line, and answers each with ``ok``: ``trace on`` starts span recording,
``trace off`` stops it and writes the recorded spans and counters to
``--trace-out`` as JSON (with ``--trace-out`` only).  End of input shuts
the gateway down cleanly; every tenant closes, which checkpoints it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

#: Gateway worker threads: fixed, so the host's core count does not
#: change the admission limit the workloads run against.
WORKERS = 4


async def serve_until_eof(config, tracer, trace_out) -> None:
    from repro.server import serve

    server = await serve(config)
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            if tracer is not None:
                tracer.enabled = line.strip() == "trace on"
                if not tracer.enabled:
                    Path(trace_out).write_text(
                        json.dumps({"spans": tracer.spans, "counts": tracer.counts})
                    )
            print("ok", flush=True)
    finally:
        await server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--persist-root", required=True)
    parser.add_argument("--session", required=True, help="SessionConfig JSON")
    parser.add_argument("--tenants", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro.server import GatewayConfig
    from repro.service import SessionConfig

    config = GatewayConfig(
        max_sessions=max(args.tenants + 8, 16),
        max_pending=args.tenants + 64,
        workers=WORKERS,
        persist_root=args.persist_root,
        session_defaults=SessionConfig.from_dict(json.loads(args.session)),
    )
    asyncio.run(serve_until_eof(config, tracer, args.trace_out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
