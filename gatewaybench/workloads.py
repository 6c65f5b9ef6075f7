"""The benchmark's workloads and the seeded inputs they send.

The traffic is the repository's own gateway traffic, not a new mix:

* every tenant runs the closed-loop cycle of ``tools/loadgen.py``
  (:data:`MIX`: evaluate, schedule with the ``earliest`` scheduler, trade
  with a budget of 1e9, and a stream request carrying one ``Tick``) after
  one bulk ingest of its population.  Each cycle sends the four kinds in
  a seeded random order rather than loadgen's fixed rotation: the
  gateway's full garbage collections recur with the allocation pattern,
  and a strictly periodic request sequence would pin them to the same
  request kind, whose median would then depend on the seed;
* tenants are durable and checkpoint only by the session's own policy
  (the default ``checkpoint_events=1024``); no request asks for one.

Ticks expire nothing (``auto_expire`` is off by default), so each
tenant's live population, and with it every per-request cost, stays the
same from the first cycle to the last.  The two workloads differ in
scale, each taken from an existing benchmark of the repository:

* ``fleet`` — 200 tenants of 4 offers on the reference backend, each on
  its own keep-alive connection, all concurrent: the scale of
  ``benchmarks/bench_server_latency.py``'s dashboard records and of
  loadgen's TCP example, with loadgen's offer shape.  Per-request work is
  tiny, so time goes to the gateway's admission gates, the worker
  hand-off, wire encoding and per-request WAL commits.
* ``sharded`` — one tenant of 20,000 offers on the sharded backend with
  2 shards, the default thread executor and the default
  ``shard_min_population`` (4096), so
  every evaluate and trade fans out across shards: the scale and shard
  count of ``benchmarks/bench_sharded_scaling.py``'s dashboard records,
  with its narrow offer shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: One tenant's request cycle: ``MIX`` of ``tools/loadgen.py``.
MIX = ("evaluate", "schedule", "trade", "stream")

#: Request kinds in metric order (each gets its own latency metric).
KINDS = MIX

#: The trade budget loadgen sends.
TRADE_BUDGET = 1e9


def loadgen_offers(rng: random.Random, size: int, tenant: str) -> list:
    """``tools/loadgen.py``'s tenant population, with seeded parameters.

    Loadgen derives start, width and slice bounds from the tenant and
    offer index; here the same ranges are drawn from ``rng``.
    """
    from repro.core import FlexOffer

    offers = []
    for index in range(size):
        start = 1 + rng.randrange(8)
        offers.append(
            FlexOffer(
                start,
                start + 2 + rng.randrange(4),
                [(1 + rng.randrange(2), 3 + rng.randrange(3)), (2, 4)],
                name=f"{tenant}-offer{index}",
            )
        )
    return offers


def narrow_offers(rng: random.Random, size: int, tenant: str) -> list:
    """``narrow_population`` of ``benchmarks/bench_sharded_scaling.py``.

    1-2 slices and a time flexibility of at most 2 keep the dense measure
    kernels vectorised at this scale.
    """
    from repro.core import FlexOffer

    offers = []
    for index in range(size):
        earliest = rng.randrange(0, 96)
        slices = [(1, 1 + rng.randint(0, 4))]
        if rng.random() < 0.5:
            slices.append((0, rng.randint(1, 3)))
        profile_min = sum(low for low, _ in slices)
        profile_max = sum(high for _, high in slices)
        cmin = rng.randint(profile_min, profile_max)
        offers.append(
            FlexOffer(
                earliest,
                earliest + rng.randint(0, 2),
                slices,
                cmin,
                rng.randint(cmin, profile_max),
                name=f"{tenant}-offer{index}",
            )
        )
    return offers


@dataclass(frozen=True)
class Workload:
    """One traffic shape: tenants, offers each, their shape, backend."""

    name: str
    tenants: int
    population: int
    offers: Callable
    session: dict

    def session_config(self) -> dict:
        """The tenants' SessionConfig fields (sent to the gateway)."""
        # fsync is off so the numbers measure the program, not the host's
        # disk; every other field keeps its default.
        return {"persist_fsync": False, **self.session}

    def tenant_offers(self, seed: int, tenant: int, name: str) -> list:
        """The tenant's seeded population."""
        rng = random.Random(seed * 100_003 + tenant)
        return self.offers(rng, self.population, name)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fleet", 200, 4, loadgen_offers, {"backend": "reference"}),
        Workload(
            "sharded",
            1,
            20_000,
            narrow_offers,
            {"backend": "sharded", "shards": 2},
        ),
    )
}
