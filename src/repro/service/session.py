"""The :class:`FlexSession` façade: one session-scoped service entry point.

Before PR 5 every workload wired :class:`~repro.stream.StreamingEngine`,
schedulers, pricers and compute backends together by hand, in a different
order each time, against process-global state (the default backend, the
shared matrix cache, the env knobs).  A :class:`FlexSession` owns all of
that per instance:

* a :class:`~repro.service.SessionConfig` — the env knobs, read once;
* a private :class:`~repro.backend.cache.MatrixCache` with the config's
  retention budgets;
* a private compute backend routed through that cache (for ``numpy`` /
  ``sharded``; the stateless ``reference`` backend is shared);
* one :class:`~repro.stream.StreamingEngine` maintaining the live
  population and its packed matrix in O(Δ) per event.

Requests (:class:`~repro.service.EvaluateRequest`, …) go in; frozen
``*Result`` objects with timings, backend provenance and cache-hit stats
come out.  Every request runs inside a
:func:`~repro.backend.use_backend` activation of the session backend, so
all downstream bulk calls — ``evaluate_set``, the batch assignment
helpers, ``of_generation``, bulk pricing — dispatch to the session's
backend and cache without any global mutation.  Two sessions with
different configs therefore coexist in one process and produce results
bit-identical to each running alone, which the old process-global knobs
made impossible.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Union

from ..aggregation.alignment import aggregate_all
from ..aggregation.base import AggregatedFlexOffer
from ..aggregation.grouping import group_by_grid
from ..backend.cache import MatrixCache
from ..backend.dispatch import ComputeBackend, get_backend, use_backend
from ..core.flexoffer import FlexOffer
from ..market.trading import FlexibilityPricer, TradingSession
from ..measures.setwise import evaluate_set
from ..scheduling.evolutionary import EvolutionaryScheduler
from ..scheduling.greedy import EarliestStartScheduler, GreedyImbalanceScheduler
from ..scheduling.objective import ImbalanceObjective
from ..scheduling.stochastic import HillClimbingScheduler
from ..stream.engine import StreamingEngine
from ..stream.events import OfferArrived, Tick
from ..stream.replay import population_events
from .config import ServiceError, SessionConfig
from .requests import (
    AggregateRequest,
    EvaluateRequest,
    Request,
    ScheduleRequest,
    StreamRequest,
    TradeRequest,
)
from .results import (
    AggregateResult,
    EvaluateResult,
    RequestStats,
    ScheduleResult,
    StreamResult,
    TradeResult,
)

__all__ = ["FlexSession"]

#: Scheduler names accepted by :class:`ScheduleRequest`:
#: ``name -> (class, takes a seed, takes an objective)``.  The session
#: injects its configured seed and the request's objective only where the
#: constructor accepts them.
_SCHEDULERS = {
    "earliest": (EarliestStartScheduler, False, False),
    "greedy": (GreedyImbalanceScheduler, False, True),
    "hill-climbing": (HillClimbingScheduler, True, True),
    "evolutionary": (EvolutionaryScheduler, True, True),
}


class FlexSession:
    """Session-scoped request/response façade over the whole library.

    Parameters
    ----------
    config:
        The session's :class:`SessionConfig`; ``None`` builds one from the
        environment defaults.  Keyword arguments are accepted as a
        shorthand for ``FlexSession(SessionConfig(**kwargs))``.

    Usage::

        with FlexSession(backend="numpy") as session:
            session.ingest(population)
            report = session.evaluate().report
            schedule = session.schedule(
                ScheduleRequest("hill-climbing", reference=wind)
            ).schedule
    """

    def __init__(self, config: Optional[SessionConfig] = None, **overrides) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            raise ServiceError(
                "pass either a SessionConfig or keyword overrides, not both"
            )
        self.config = config
        self.cache = MatrixCache(
            capacity=config.cache_entries, cell_budget=config.cache_cells
        )
        #: Whether close() may tear the backend down: only backends this
        #: session constructed — never a shared registered instance.
        self._owns_backend = False
        self._backend = self._build_backend(config)
        self.engine = StreamingEngine(
            parameters=config.grouping,
            measures=config.measures,
            window_capacity=config.window_capacity,
            auto_expire=config.auto_expire,
            tracked_measures=config.tracked_measures,
            backend=self._backend,
        )
        self.requests_served = 0
        self._closed = False
        #: :class:`~repro.persist.RecoveryStats` when this session was
        #: rebuilt from a persisted directory, else ``None``.
        self.recovery = None
        self._persister = None
        if config.persist_dir is not None:
            from ..persist import SessionPersister, save_config

            self._persister = SessionPersister(
                config.persist_dir,
                fsync=config.persist_fsync,
                checkpoint_events=config.checkpoint_events,
                checkpoint_age_s=config.checkpoint_age_s,
                faults=config.fault_plan,
            )
            save_config(config.persist_dir, config.as_dict())
            if self._persister.has_state():
                with use_backend(self._backend):
                    stats, extra = self._persister.recover(self.engine)
                self.recovery = stats
                served = extra.get("requests_served")
                if isinstance(served, int):
                    self.requests_served = served

    # ------------------------------------------------------------------ #
    # Construction / lifecycle
    # ------------------------------------------------------------------ #
    def _build_backend(self, config: SessionConfig) -> ComputeBackend:
        """The session's private backend, routed through the session cache.

        ``numpy`` and ``sharded`` get fresh instances bound to
        :attr:`cache`; any other name (``reference``, custom registrations)
        resolves to the registered instance, which the session treats as
        borrowed — reads only, never :meth:`close`.
        """
        if config.backend == "numpy":
            from ..backend.numpy_backend import NumpyBackend

            self._owns_backend = True
            return NumpyBackend(cache=self.cache)
        if config.backend == "sharded":
            from ..backend.dispatch import available_backends
            from ..backend.sharded import ShardedBackend

            inner: Optional[Union[str, ComputeBackend]] = None
            if "numpy" in available_backends():
                from ..backend.numpy_backend import NumpyBackend

                # Session-cached inner instance for every code path
                # (delegation and thread-pool workers).
                inner = NumpyBackend(cache=self.cache)
            self._owns_backend = True
            return ShardedBackend(
                shards=config.shards,
                min_population=config.shard_min_population,
                inner=inner,
                faults=config.fault_plan,
            )
        return get_backend(config.backend)

    @property
    def backend_name(self) -> str:
        """Name of the session's compute backend (response provenance)."""
        return self._backend.name

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran."""
        return self._closed

    def close(self) -> None:
        """Release session resources (the sharded pool, the cache).

        Idempotent.  The session must not serve further requests after
        closing.
        """
        if self._closed:
            return
        self._closed = True
        if self._persister is not None:
            with use_backend(self._backend):
                self._persister.close(self.engine, self._persist_extra())
        close = getattr(self._backend, "close", None)
        if self._owns_backend and callable(close):
            close()
        self.cache.clear()

    def __enter__(self) -> "FlexSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def activate(self):
        """Activate the session backend for arbitrary library calls.

        Everything inside the ``with`` block — ``evaluate_set``, batch
        assignment helpers, schedulers called directly — dispatches through
        the session's backend and cache, exactly like a served request.
        Yields the session.
        """
        self._check_open()
        with use_backend(self._backend):
            yield self

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the session is closed")

    @contextmanager
    def _serve(self, kind: str, population: int):
        """Shared request plumbing: activation, timing, cache deltas."""
        self._check_open()
        hits, misses = self.cache.hits, self.cache.misses
        started = time.perf_counter()

        def finish(count: Optional[int] = None) -> RequestStats:
            return RequestStats(
                kind=kind,
                backend=self.backend_name,
                duration_s=time.perf_counter() - started,
                population=population if count is None else count,
                cache_hits=self.cache.hits - hits,
                cache_misses=self.cache.misses - misses,
            )

        with use_backend(self._backend):
            yield finish
        self.requests_served += 1

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def submit(
        self, request: Request
    ) -> Union[
        EvaluateResult, AggregateResult, ScheduleResult, TradeResult, StreamResult
    ]:
        """Serve any request (the io-driven entry point)."""
        if isinstance(request, EvaluateRequest):
            return self.evaluate(request)
        if isinstance(request, AggregateRequest):
            return self.aggregate(request)
        if isinstance(request, ScheduleRequest):
            return self.schedule(request)
        if isinstance(request, TradeRequest):
            return self.trade(request)
        if isinstance(request, StreamRequest):
            return self.stream(request)
        raise ServiceError(f"not a service request: {request!r}")

    def evaluate(self, request: Optional[EvaluateRequest] = None) -> EvaluateResult:
        """Set-wise flexibility of the live (or an explicit) population.

        A live-population request over the session's own measures is
        answered from the engine's maintained :meth:`StreamingEngine.report`
        — bit-identical to ``evaluate_set`` over the live offers.  Only a
        ``skip_unsupported=False`` request whose report skipped a measure
        re-runs ``evaluate_set``, so it raises exactly what that raises.
        """
        request = request if request is not None else EvaluateRequest()
        live = request.offers is None
        population = len(self.engine) if live else len(request.offers)
        with self._serve("evaluate", population) as finish:
            if live and request.measures is None:
                report = self.engine.report()
                if request.skip_unsupported or not report.skipped:
                    return EvaluateResult(report=report, stats=finish())
            offers = self.engine.live_offers() if live else list(request.offers)
            measures = (
                request.measures
                if request.measures is not None
                else self.engine.measures
            )
            report = evaluate_set(offers, measures, request.skip_unsupported)
            return EvaluateResult(report=report, stats=finish())

    def aggregate(self, request: Optional[AggregateRequest] = None) -> AggregateResult:
        """Grid-group and aggregate the live (or an explicit) population."""
        request = request if request is not None else AggregateRequest()
        if request.offers is None:
            with self._serve("aggregate", len(self.engine)) as finish:
                aggregates = tuple(self.engine.aggregates(request.prefix))
                # Each lot's members are its group: a kept lot's tuple is
                # shared, not listed again.
                groups = tuple(lot.members for lot in aggregates)
                return AggregateResult(
                    groups=groups, aggregates=aggregates, stats=finish()
                )
        offers = list(request.offers)
        with self._serve("aggregate", len(offers)) as finish:
            groups = tuple(
                tuple(group)
                for group in group_by_grid(offers, self.config.grouping)
            )
            aggregates = tuple(aggregate_all(groups, prefix=request.prefix))
            return AggregateResult(
                groups=groups, aggregates=aggregates, stats=finish()
            )

    def schedule(self, request: Optional[ScheduleRequest] = None) -> ScheduleResult:
        """Schedule the live (or an explicit) population.

        The request's timer covers everything the request does: resolving
        the scheduler, its options and the objective, reading the live
        population, scheduling and scoring.
        """
        request = request if request is not None else ScheduleRequest()
        live = request.offers is None
        population = len(self.engine) if live else len(request.offers)
        with self._serve("schedule", population) as finish:
            try:
                scheduler_class, seeded, takes_objective = _SCHEDULERS[
                    request.scheduler
                ]
            except KeyError:
                raise ServiceError(
                    f"unknown scheduler {request.scheduler!r}; "
                    f"available: {sorted(_SCHEDULERS)}"
                ) from None
            options = dict(request.options)
            objective = ImbalanceObjective(request.metric, request.reference)
            if takes_objective:
                objective = options.setdefault("objective", objective)
            if seeded:
                options.setdefault("seed", self.config.seed)
            # Score with the objective the scheduler actually optimises: a
            # caller-supplied options["objective"] wins inside the
            # scheduler, and an explicit request reference overrides its
            # reference there (the Scheduler.schedule contract) — mirror
            # both here so ``objective_value`` always measures the
            # optimised objective.
            if request.reference is not None:
                objective = ImbalanceObjective(objective.metric, request.reference)
            scheduler = scheduler_class(**options)
            offers = None
            if live and scheduler_class is EarliestStartScheduler:
                # The engine's packed live matrix: scheduled as it is,
                # never packed again.  None without the packed state.
                offers = self.engine.live_matrix()
            if offers is None:
                offers = (
                    self.engine.live_offers() if live else list(request.offers)
                )
            schedule = scheduler.schedule(offers, request.reference)
            # One batch_objectives pass through the session's backend:
            # bit-identical to objective.of_schedule(schedule).
            value = objective.of_generation([schedule])[0]
            return ScheduleResult(
                schedule=schedule,
                objective_value=value,
                scheduler=request.scheduler,
                stats=finish(),
            )

    def trade(self, request: Optional[TradeRequest] = None) -> TradeResult:
        """Price and clear a book of lots (live aggregates by default)."""
        request = request if request is not None else TradeRequest()
        with self._serve("trade", 0) as finish:
            pricer = FlexibilityPricer(
                measure=request.measure,
                energy_price=request.energy_price,
                premium_per_unit=request.premium_per_unit,
            )
            market = TradingSession(pricer, budget=request.budget)
            if request.lots is None:
                lots: list[Union[FlexOffer, AggregatedFlexOffer]] = list(
                    self.engine.aggregates()
                )
            else:
                lots = list(request.lots)
            accepted, rejected = market.clear(lots)
            revenue = float(sum(bid.total_price for bid in accepted))
            return TradeResult(
                accepted=tuple(accepted),
                rejected=tuple(rejected),
                revenue=revenue,
                stats=finish(len(lots)),
            )

    def stream(self, request: Optional[StreamRequest] = None) -> StreamResult:
        """Apply a batch of events to the session engine.

        On a durable session every **applied** event is appended to the
        write-ahead log (log-after-apply: a mid-batch failure logs exactly
        the prefix that mutated the engine), and the log commits once per
        request, which makes the request durable.  When the configured
        size or age policy fires, the request then captures the engine for
        a checkpoint; the persister's writer thread encodes and writes the
        snapshot after the response.  A bulk all-arrival request lands
        all-or-nothing through :meth:`StreamingEngine.bulk_arrive` and is
        logged as one batch record.
        """
        request = request if request is not None else StreamRequest()
        with self._serve("stream", len(request.events)) as finish:
            try:
                if request.bulk and request.events and all(
                    isinstance(event, OfferArrived) for event in request.events
                ):
                    # All-or-nothing, so the whole request is one record.
                    self.engine.bulk_arrive(request.events)
                    if self._persister is not None:
                        self._persister.log_event(request.events)
                else:
                    for event in request.events:
                        self.engine.apply(event)
                        if self._persister is not None:
                            self._persister.log_event(event)
            finally:
                if self._persister is not None:
                    self._persister.commit()
            result = StreamResult(
                applied=len(request.events),
                live=len(self.engine),
                time=self.engine.time,
                stats=finish(),
                engine_stats=self.engine.stats.as_dict(),
            )
        if self._persister is not None:
            self._persister.maybe_checkpoint(self.engine, self._persist_extra())
        return result

    # ------------------------------------------------------------------ #
    # Conveniences
    # ------------------------------------------------------------------ #
    def ingest(self, flex_offers, bulk: bool = True) -> StreamResult:
        """Stream a batch population in (ids via ``offer_identifier``).

        The successor of the removed module-level ``replay_population``:
        same ids, same final engine state, but the engine, backend and
        cache are the session's own.  ``bulk=True`` batches the per-offer
        measure evaluation through the session backend.
        """
        events = tuple(
            population_events(list(flex_offers), start_index=self.engine.stats.arrived)
        )
        return self.stream(StreamRequest(events=events, bulk=bulk))

    def tick(self, time_value: int) -> StreamResult:
        """Advance the session clock (auto-expiry + window sampling)."""
        return self.stream(StreamRequest(events=(Tick(time_value),)))

    def report(self):
        """Shorthand: the live population's :class:`FlexibilitySetReport`."""
        return self.evaluate().report

    def checkpoint(self) -> dict[str, object]:
        """Snapshot the durable session now; returns the checkpoint stats.

        Raises :class:`ServiceError` on a session without a
        ``persist_dir`` — there is nothing to checkpoint to.
        """
        self._check_open()
        if self._persister is None:
            raise ServiceError("the session has no persist_dir configured")
        with use_backend(self._backend):
            return self._persister.checkpoint(self.engine, self._persist_extra())

    def _persist_extra(self) -> dict[str, object]:
        """Session bookkeeping stored alongside the engine snapshot."""
        return {"requests_served": self.requests_served}

    def snapshot(self, prefix: str = "aggregate"):
        """A batch-equivalent :class:`~repro.stream.EngineSnapshot`."""
        self._check_open()
        with use_backend(self._backend):
            return self.engine.snapshot(prefix)

    def stats(self) -> dict[str, object]:
        """Session-level counters: requests, engine events, cache health."""
        payload: dict[str, object] = {
            "backend": self.backend_name,
            "requests_served": self.requests_served,
            "live": len(self.engine),
            "engine": self.engine.stats.as_dict(),
            "cache": self.cache.stats(),
            "closed": self._closed,
        }
        if self.engine.tracker is not None:
            payload["windows"] = self.engine.tracker.summary()
        if self.config.fault_plan is not None:
            payload["faults"] = self.config.fault_plan.stats()
        if self._persister is not None:
            payload["persistence"] = self._persister.stats()
        if self.recovery is not None:
            payload["recovery"] = self.recovery.as_dict()
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self.engine)} live"
        return (
            f"FlexSession(backend={self.backend_name!r}, {state}, "
            f"{self.requests_served} requests)"
        )
