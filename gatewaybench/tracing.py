"""Layer spans for the gateway benchmark, recorded from outside the program.

:func:`install` wraps the calls into each layer of a gateway process —
HTTP handling, wire decode/encode, the worker hand-off, the session, the
engine, the measure kernel, the scheduler, the market and the write-ahead
log — with timing wrappers.  Nothing in ``src/`` is edited: the wrappers
are set on the classes and module attributes the gateway calls through.

A span is ``(id, parent, name, start, end)``.  Its parent is the span that
was current when it started, carried in a :mod:`contextvars` variable;
the gateway's thread pool is swapped for a pool that runs each task in
the submitter's context, so a worker thread's spans hang under the
request that handed the work over.  Shard tasks are only counted: the
sharded backend's fan-out, with its wait for the shard pool, is time
spent inside the measure kernel's span.  Spans stay in memory and are
written out once, when the gateway process shuts down;
:func:`layer_metrics` turns them into per-layer self times.

Counters are kept at the same boundaries: offers hashed into matrix-cache
keys, shard tasks fanned out, WAL records appended.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_current = contextvars.ContextVar("gatewaybench_span", default=None)


class Tracer:
    """In-memory span and counter store; records only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans = []
        self.counts = {"cache_key_offers": 0, "shard_tasks": 0, "wal_records": 0}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def begin(self, name: str):
        """Start a span under the current one; returns the reset handle."""
        if not self.enabled:
            return None
        span = [next(self._ids), _current.get(), name, time.perf_counter(), None]
        return span, _current.set(span[0])

    def end(self, handle) -> None:
        if handle is None:
            return
        span, token = handle
        span[4] = time.perf_counter()
        _current.reset(token)
        with self._lock:
            self.spans.append(tuple(span))

    def record(self, name: str, start: float, end: float, parent) -> None:
        """A span measured by the caller (a queue wait has no frame of its own)."""
        if self.enabled:
            with self._lock:
                self.spans.append((next(self._ids), parent, name, start, end))


def _wrap(tracer: Tracer, function, name: str):
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            handle = tracer.begin(name)
            try:
                return await function(*args, **kwargs)
            finally:
                tracer.end(handle)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        handle = tracer.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.end(handle)

    return traced


def _context_pool(tracer: Tracer):
    """A ThreadPoolExecutor whose tasks run in the submitter's context.

    The wait between ``submit`` and the task starting is recorded as a
    ``server.queue`` span under the submitter's current span.
    """

    class ContextThreadPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            parent = _current.get()
            submitted = time.perf_counter()

            def run():
                tracer.record("server.queue", submitted, time.perf_counter(), parent)
                return fn(*args, **kwargs)

            return super().submit(context.run, run)

    return ContextThreadPool


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary.  Call before the gateway is built."""
    from repro.backend import sharded
    from repro.backend.cache import MatrixCache
    from repro.market.trading import TradingSession
    from repro.persist.persister import SessionPersister
    from repro.scheduling.greedy import EarliestStartScheduler
    from repro.server import app
    from repro.service import session
    from repro.stream.engine import StreamingEngine

    app.ThreadPoolExecutor = _context_pool(tracer)

    app.Gateway.handle = _wrap(tracer, app.Gateway.handle, "server.handle")
    app.Gateway._parse_json = staticmethod(
        _wrap(tracer, app.Gateway._parse_json, "io.decode")
    )
    app.request_from_dict = _wrap(tracer, app.request_from_dict, "io.decode")
    app.result_to_dict = _wrap(tracer, app.result_to_dict, "io.encode")
    app.Response.encode = _wrap(tracer, app.Response.encode, "io.encode")

    session.FlexSession.submit = _wrap(
        tracer, session.FlexSession.submit, "service.session"
    )
    session.evaluate_set = _wrap(tracer, session.evaluate_set, "measures.evaluate")

    StreamingEngine.apply = _wrap(tracer, StreamingEngine.apply, "stream.apply")
    StreamingEngine.live_matrix = _wrap(
        tracer, StreamingEngine.live_matrix, "stream.publish"
    )
    StreamingEngine.aggregates = _wrap(
        tracer, StreamingEngine.aggregates, "stream.aggregates"
    )
    EarliestStartScheduler.schedule = _wrap(
        tracer, EarliestStartScheduler.schedule, "scheduling.schedule"
    )
    TradingSession.clear = _wrap(tracer, TradingSession.clear, "market.clear")

    log_event = SessionPersister.log_event

    def counted_log_event(self, event):
        tracer.count("wal_records")
        return log_event(self, event)

    SessionPersister.log_event = _wrap(tracer, counted_log_event, "persist.wal")
    SessionPersister.commit = _wrap(tracer, SessionPersister.commit, "persist.wal")

    key_of = MatrixCache.key_of

    def counted_key_of(flex_offers):
        key = key_of(flex_offers)
        tracer.count("cache_key_offers", len(key))
        return key

    MatrixCache.key_of = staticmethod(counted_key_of)

    submit_shard = sharded.ShardedBackend._submit_shard

    def counted_submit_shard(self, worker, args):
        tracer.count("shard_tasks")
        return submit_shard(self, worker, args)

    sharded.ShardedBackend._submit_shard = counted_submit_shard


#: Per-layer self-time metrics: ``metric name -> span name``.
LAYERS = {
    "gateway_self_ms": "server.handle",
    "queue_wait_ms": "server.queue",
    "decode_self_ms": "io.decode",
    "encode_self_ms": "io.encode",
    "session_self_ms": "service.session",
    "apply_self_ms": "stream.apply",
    "publish_self_ms": "stream.publish",
    "measure_self_ms": "measures.evaluate",
    "aggregates_self_ms": "stream.aggregates",
    "scheduler_self_ms": "scheduling.schedule",
    "market_self_ms": "market.clear",
    "wal_self_ms": "persist.wal",
}


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """``{span name: summed self time in seconds}``.

    A span's self time is its duration minus the part of it that its
    children cover.
    """
    by_id = {span[0]: span for span in spans}
    children = {}
    for span in spans:
        if span[1] in by_id:
            children.setdefault(span[1], []).append(span)
    totals: dict = {}
    for span in spans:
        _, _, name, start, end = span
        inner = [
            (max(start, child[3]), min(end, child[4]))
            for child in children.get(span[0], ())
        ]
        own = (end - start) - _covered([i for i in inner if i[1] > i[0]])
        totals[name] = totals.get(name, 0.0) + own
    return totals


def layer_metrics(spans, counts: dict, requests: int) -> dict:
    """Per-request layer self times (ms) and counts, by metric name."""
    totals = self_times(spans)
    metrics = {
        metric: totals.get(name, 0.0) * 1e3 / requests
        for metric, name in LAYERS.items()
    }
    for name, total in counts.items():
        metrics[name] = total / requests
    metrics["traced_ms"] = sum(totals.values()) * 1e3 / requests
    return metrics
