"""Golden tick fixtures: per-tick window summaries must stay byte-stable.

``tests/fixtures/streaming_ticks_1k.json`` records a seeded 1,000-offer
streaming run — arrivals in chunks of 50, a :class:`~repro.stream.Tick`
advancing the clock by 3 after each chunk, auto-expiry on, a 32-sample
window per tracked measure — together with every tick's
:meth:`~repro.stream.window.WindowTracker.summary` exactly as the scalar
window kernel on the reference backend computed it when the fixture was
written.  The regression test replays the identical run on **every**
backend (``reference`` / ``numpy`` / ``sharded`` — scalar and array window
kernels alike) and requires exact equality with the stored JSON numbers
(floats round-trip losslessly through JSON), so

* a PR that drifts tick sampling, window statistics, auto-expiry order or
  the measure fold fails loudly, and
* the array window kernel and the bulk ``cumsum`` sampling path are pinned
  to the recorded scalar values, not merely to whatever the scalar path
  produces today.

Regenerate (only after an *intentional* semantics change) with::

    PYTHONPATH=src python tests/stream/test_golden_ticks.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.backend import NUMPY_AVAILABLE, available_backends
from repro.stream import StreamingEngine, Tick
from repro.workloads.generator import PopulationSpec, generate_population

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE = "streaming_ticks_1k.json"

#: The seeded 1,000-offer population behind the fixture.
SPEC = PopulationSpec(
    counts={
        "ev": 250,
        "heat_pump": 150,
        "dishwasher": 150,
        "washing_machine": 100,
        "refrigerator": 100,
        "solar": 100,
        "wind": 50,
        "v2g": 100,
    },
    seed=8080,
    horizon=48,
)

#: Streaming protocol: chunked arrivals, the clock stepping between chunks.
CHUNK = 50
TICK_STEP = 3
WINDOW_CAPACITY = 32

#: Tracked measures, pinned explicitly: the registry may carry extra
#: measures registered by other test modules.
MEASURES = ("time", "energy", "product", "vector", "assignments")

BACKENDS = [
    "reference",
    "sharded",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not NUMPY_AVAILABLE, reason="NumPy backend not available"
        ),
    ),
    # Sharded again, but with every shard crossing a TCP wire to loopback
    # worker subprocesses: the streaming fold must survive serialization.
    "sharded-remote",
]


@pytest.fixture(scope="module")
def remote_backend_registered():
    """Register ``sharded-remote`` backed by a loopback worker cluster.

    Requested lazily (``request.getfixturevalue``) by the one parametrized
    case that needs it, so the other backends never pay the subprocess
    spin-up.
    """
    from repro.backend import ShardedBackend, register_backend
    from repro.backend.dispatch import _REGISTRY
    from repro.cluster import LocalCluster

    class _RemoteSharded(ShardedBackend):
        name = "sharded-remote"

    with LocalCluster(workers=2) as cluster:
        backend = _RemoteSharded(
            shards=3, executor="remote", min_population=1,
            cluster=cluster.spec(),
        )
        register_backend(backend)
        try:
            yield backend.name
        finally:
            backend.close()
            _REGISTRY.pop(backend.name, None)


def run_streaming(backend: str) -> list[dict]:
    """Replay the fixture protocol; one record per tick."""
    population = generate_population(SPEC)
    assert len(population) == 1000
    engine = StreamingEngine(
        measures=MEASURES,
        window_capacity=WINDOW_CAPACITY,
        auto_expire=True,
        backend=backend,
    )
    if backend == "reference":
        # The fixture records the scalar kernel, the reference backend's pick.
        assert engine.window_kernel == "scalar"
    ticks: list[dict] = []
    time = 0
    for start in range(0, len(population), CHUNK):
        chunk = population[start : start + CHUNK]
        engine.bulk_arrive(
            (f"offer-{start + index:04d}", offer)
            for index, offer in enumerate(chunk)
        )
        time += TICK_STEP
        engine.apply(Tick(time))
        ticks.append(
            {
                "time": time,
                "live": len(engine),
                "windows": engine.tracker.summary(),
            }
        )
    return ticks


def build_fixture() -> dict:
    """The fixture payload (reference backend, scalar window kernel)."""
    return {
        "spec": {
            "counts": dict(SPEC.counts),
            "seed": SPEC.seed,
            "horizon": SPEC.horizon,
        },
        "protocol": {
            "chunk": CHUNK,
            "tick_step": TICK_STEP,
            "window_capacity": WINDOW_CAPACITY,
            "measures": list(MEASURES),
        },
        "ticks": run_streaming("reference"),
    }


def _load() -> dict:
    return json.loads((FIXTURE_DIR / FIXTURE).read_text())


def test_fixture_matches_its_generating_protocol():
    """The stored spec/protocol block still describes this module's run."""
    stored = _load()
    assert stored["spec"] == {
        "counts": dict(SPEC.counts),
        "seed": SPEC.seed,
        "horizon": SPEC.horizon,
    }
    assert stored["protocol"] == {
        "chunk": CHUNK,
        "tick_step": TICK_STEP,
        "window_capacity": WINDOW_CAPACITY,
        "measures": list(MEASURES),
    }
    assert len(stored["ticks"]) == 1000 // CHUNK


@pytest.mark.parametrize("backend", BACKENDS)
def test_tick_summaries_are_byte_stable(backend, request):
    """Every per-tick window summary is reproduced exactly, per backend.

    No tolerance anywhere: the array kernel's ``cumsum``/deque/sort paths
    and the engine's bulk sampling fold are designed to reproduce the
    scalar floats bit for bit, and this is where that claim is enforced
    against a *committed* artifact rather than a freshly computed one.
    """
    if backend == "sharded-remote":
        request.getfixturevalue("remote_backend_registered")
    assert backend in available_backends()
    stored = _load()["ticks"]
    replayed = run_streaming(backend)
    assert len(replayed) == len(stored)
    for expected, actual in zip(stored, replayed):
        assert actual["time"] == expected["time"]
        assert actual["live"] == expected["live"]
        assert actual["windows"] == expected["windows"]


def test_fixture_is_current():
    """Rebuilding the fixture reproduces the committed file verbatim."""
    assert build_fixture() == _load()


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    payload = build_fixture()
    target = FIXTURE_DIR / FIXTURE
    target.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {target} ({len(payload['ticks'])} ticks)")
