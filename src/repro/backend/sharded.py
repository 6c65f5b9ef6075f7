"""The sharded compute backend: shard-parallel fan-out of the bulk operations.

A :class:`ShardedBackend` partitions a population into ``K`` contiguous
shards, runs every bulk operation of the backend contract shard-by-shard on
an *inner* backend (the NumPy backend when available, the reference backend
otherwise) through a ``concurrent.futures`` pool, and merges the shard
results exactly:

* per-offer results (``measure_values``, ``per_offer_values``,
  ``feasible_profiles``, ``assignment_feasibility``, ``measure_support``)
  concatenate in shard order — bit-identical to the single-process result
  because shards preserve population order.  An already packed
  ``feasible_profiles`` population (the engine's live matrix) is not
  sharded: it runs on the inner backend in the calling thread, as does
  ``packed_feasible_profiles``;
* set values combine the *concatenated* per-offer value lists through the
  measure's :meth:`~repro.measures.base.FlexibilityMeasure.combine_values`
  hook — the same list, in the same order, a single-process backend would
  combine, so even float paths agree to the last bit;
* start-aligned aggregation re-anchors each shard's column sums at the
  global earliest start and adds them — exact integer arithmetic;
* measures that override ``set_value`` (a non-decomposable set semantics)
  fall back to their own override on the full population, exactly like the
  reference backend.

Error parity is positional: when an operation raises for some offer, the
exception surfaces from the lowest-indexed shard that failed — i.e. the
same first-offending-offer (and for ``evaluate_population`` the same
first-offending-*measure*) the reference backend's scalar loops would have
hit, with the same exception class.  One documented exception: support
checks are evaluated eagerly per shard (see
:meth:`~repro.backend.dispatch.ComputeBackend.measure_support`), so a
custom ``supports`` override that raises on a later offer of the *same
shard* as an earlier unsupported offer surfaces its exception where the
reference's lazily short-circuiting ``all()`` would have skipped the
measure; across shards the short-circuit is honoured.

Executor
--------
A shared :class:`~concurrent.futures.ThreadPoolExecutor` of at most
``os.cpu_count()`` workers; ``shards`` sets the partition count, not the
thread count, and merges follow shard order, so the worker count never
changes a result.  The NumPy kernels release the GIL, so shard evaluation
overlaps on multicore hosts, and the inner backend's fingerprint-keyed
matrix cache keeps each shard chunk's packed arrays warm across calls.

Self-healing
------------
``_map`` — the one fan-out/merge primitive every operation funnels
through — retries each shard independently on an injected
:class:`~repro.faults.FaultInjected` (bounded by ``retries``, with linear
backoff), re-dispatching only the shards whose futures failed (completed
shards keep their results).  Application errors — an offer a measure
rejects — are never retried.  Shard results are consumed in submission
order, so the first-offending-offer error-parity contract above survives
every recovery path.

Like every backend, the sharded backend is pinned observationally
equivalent to the reference implementation by the differential conformance
suite (``tests/backend/test_conformance.py``) and the golden fixtures.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, ClassVar, Optional, Union

from ..core.errors import BackendError
from ..core.flexoffer import FlexOffer
from ..faults.plan import SHARD_RESULT, SHARD_SUBMIT, FaultInjected, FaultPlan
from .dispatch import (
    ComputeBackend,
    get_backend,
    is_packed,
    register_backend,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..measures.base import FlexibilityMeasure

__all__ = [
    "ShardedBackend",
    "DEFAULT_MIN_POPULATION",
    "DEFAULT_RETRIES",
]

#: Below this population size the whole operation runs on the inner backend:
#: pool dispatch plus per-shard packing costs more than it saves.
DEFAULT_MIN_POPULATION = 4096

#: Default per-shard retry budget for infrastructure failures.
DEFAULT_RETRIES = 2

#: Exceptions the shard loop treats as infrastructure (retryable): an
#: injected fault standing in for a lost worker.
_RETRYABLE = (FaultInjected,)

#: Base sleep before a shard retry, multiplied by the attempt number.
_RETRY_BACKOFF_S = 0.01


class _FailedSubmit:
    """A future-shaped sentinel for a submission that already failed.

    Submission errors (an injected ``shard.submit`` fault) must not abort
    the whole fan-out — later shards still get submitted, and this shard's
    error is raised when *its* turn to be consumed comes, entering the
    same retry loop a failed ``result()`` would.
    """

    def __init__(self, error: BaseException) -> None:
        self._error = error

    def result(self):
        raise self._error


# --------------------------------------------------------------------- #
# Shard workers.  Each resolves the inner backend (a registered name or
# an instance) inside the pool thread.
# --------------------------------------------------------------------- #
def _values_outcome(backend, measure, population):
    """``("ok", values)`` or ``("error", exc)`` of one shard's measure values."""
    try:
        return "ok", backend.measure_values(measure, population)
    except Exception as error:  # noqa: BLE001 - re-raised in shard order
        return "error", error


def _shard_values_outcome(inner: str, measure, flex_offers):
    """Value outcome of a single measure over one shard."""
    return _values_outcome(get_backend(inner), measure, flex_offers)


def _shard_evaluate(inner: str, measures, value_mask, flex_offers, skip_unsupported):
    """One shard's evaluation round: support outcomes plus value outcomes.

    Returns, per measure, ``(support_outcome, value_outcome_or_None)``,
    each outcome an ``("ok", payload)`` / ``("error", exc)`` pair — support
    checks are captured like value evaluations so a later measure's raising
    ``supports`` cannot preempt an earlier measure's error at assembly (the
    reference backend evaluates measure-major).  The population is packed
    once through :meth:`ComputeBackend.prepare` and the handle reused for
    every measure — the shard's dominant fixed cost.  Values are computed
    only when the mask allows (measures with an overridden ``set_value``
    are evaluated whole by the caller) and when the shard's own support
    verdict — or ``skip_unsupported=False`` — says the evaluation would
    also run under the reference backend's semantics.
    """
    backend = get_backend(inner)
    prepared = backend.prepare(flex_offers)
    rows = []
    for measure, wants_values in zip(measures, value_mask):
        try:
            support = ("ok", all(backend.measure_support(measure, prepared)))
        except Exception as error:  # noqa: BLE001 - re-raised at assembly
            support = ("error", error)
        outcome = None
        if wants_values and (
            not skip_unsupported or support == ("ok", True)
        ):
            # With skip_unsupported=False the assembly may consume values
            # even when this shard's support probe raised (another shard's
            # unsupported verdict short-circuits the probe error away), so
            # the outcome must exist unconditionally on that path.
            outcome = _values_outcome(backend, measure, prepared)
        rows.append((support, outcome))
    return rows


def _shard_support(inner: str, measure, flex_offers):
    """Per-offer support verdicts of one shard."""
    return get_backend(inner).measure_support(measure, flex_offers)


def _shard_per_offer(inner: str, measures, flex_offers):
    """Per-offer ``{measure_key: value}`` dicts of one shard."""
    return get_backend(inner).per_offer_values(measures, flex_offers)


def _shard_aggregate(inner: str, flex_offers):
    """One shard's start-aligned column sums (merged by the caller)."""
    return get_backend(inner).aggregate_columns(flex_offers)


def _shard_profiles(inner: str, flex_offers, target: str):
    """One shard's extreme feasible profiles and their verdicts."""
    return get_backend(inner).feasible_profiles(flex_offers, target)


def _shard_feasibility(inner: str, flex_offers, starts, values):
    """One shard's Definition 2 feasibility verdicts."""
    return get_backend(inner).assignment_feasibility(flex_offers, starts, values)


def _shard_objectives(inner: str, schedules, reference, metric):
    """One shard's (schedule-partitioned) imbalance objective values."""
    return get_backend(inner).batch_objectives(schedules, reference, metric)


class ShardedBackend(ComputeBackend):
    """Fan bulk operations across population shards on a worker pool.

    Parameters
    ----------
    shards:
        Number of shards a fanned-out population is split into.  ``None``
        means ``os.cpu_count()``.  The pool runs at most
        ``os.cpu_count()`` of them at once, however many there are.
    min_population:
        Populations smaller than this run whole on the inner backend.
    inner:
        The inner backend: a registered name, or an explicit
        :class:`ComputeBackend` instance — the service layer hands a
        session-scoped ``NumpyBackend`` here so shard workers hit the
        session's cache.  ``None`` picks ``numpy`` when registered, else
        ``reference``.
    retries:
        Per-shard retry budget for infrastructure failures; ``0`` fails
        fast with a typed :class:`~repro.core.errors.BackendError`.
    faults:
        Optional :class:`repro.faults.FaultPlan`; when set the fan-out
        fires the ``shard.submit`` / ``shard.result`` injection sites.
    """

    name: ClassVar[str] = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        min_population: int = DEFAULT_MIN_POPULATION,
        inner: Optional[Union[str, ComputeBackend]] = None,
        retries: int = DEFAULT_RETRIES,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if shards is None:
            shards = os.cpu_count() or 1
        elif shards < 1:
            raise BackendError(f"shard count must be >= 1, got {shards}")
        if min_population < 0:
            raise BackendError(
                f"min_population must be >= 0, got {min_population}"
            )
        if isinstance(inner, ComputeBackend):
            if inner is self or inner.name == self.name:
                raise BackendError(
                    "the sharded backend cannot be its own inner backend"
                )
        elif inner is not None:
            if inner == self.name:
                raise BackendError(
                    "the sharded backend cannot be its own inner backend"
                )
            get_backend(inner)  # unknown names fail here, not at first use
        if retries < 0:
            raise BackendError(f"retries must be >= 0, got {retries}")
        self.shards = shards
        self.min_population = min_population
        self.retries = retries
        self._faults = faults
        self._inner_spec = inner
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # Self-healing counters, surfaced via resilience_stats().
        self.retried = 0

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def inner(self) -> ComputeBackend:
        """The backend every shard runs on (resolved late, per call)."""
        return get_backend(self._inner_ref())

    def _inner_ref(self) -> Union[str, ComputeBackend]:
        """What in-process code resolves the inner backend from."""
        if self._inner_spec is not None:
            return self._inner_spec
        from .dispatch import available_backends

        return "numpy" if "numpy" in available_backends() else "reference"

    def _executor(self) -> ThreadPoolExecutor:
        """The lazily created, shared worker pool (double-checked lock).

        Its worker count is bounded by the host's cores, not by
        ``shards``: a tenant may ask for any number of shards, and one
        thread per shard would let a single request start that many.
        """
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=min(self.shards, os.cpu_count() or 1),
                        thread_name_prefix="repro-shard",
                    )
                    self._pool = pool
        return pool

    def close(self) -> None:
        """Shut the worker pool down (it is recreated on next use)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def _delegates(self, flex_offers: Sequence[FlexOffer]) -> bool:
        """Whether the population is too small to be worth fanning out."""
        return (
            self.shards == 1
            or len(flex_offers) < self.min_population
            or len(flex_offers) < self.shards
        )

    def _partition(self, items: Sequence) -> list[Sequence]:
        """Split a sequence into ``shards`` contiguous, near-even chunks."""
        count = len(items)
        base, extra = divmod(count, self.shards)
        chunks = []
        start = 0
        for index in range(self.shards):
            size = base + (1 if index < extra else 0)
            if size == 0:
                break
            chunks.append(items[start : start + size])
            start += size
        return chunks

    def _map(self, worker, arg_lists: Sequence[tuple]) -> list:
        """Run the worker over every shard; results in shard order.

        Results are consumed in submission order, so an exception from
        shard ``i`` surfaces before any later shard's — preserving the
        reference backend's first-offending-offer error positions.  Around
        that contract sits the self-healing loop: infrastructure errors
        (:data:`_RETRYABLE`) re-dispatch just the failed shard up to the
        retry budget, and application errors propagate untouched on the
        first attempt.
        """
        futures = [self._submit_shard(worker, args) for args in arg_lists]
        return [
            self._consume_shard(index, future, worker, args)
            for index, (future, args) in enumerate(zip(futures, arg_lists))
        ]

    def _submit_shard(self, worker, args: tuple):
        """Submit one shard; a retryable failure becomes a deferred error."""
        try:
            if self._faults is not None:
                self._faults.fire(SHARD_SUBMIT)
            return self._executor().submit(worker, *args)
        except _RETRYABLE as error:
            return _FailedSubmit(error)

    def _consume_shard(self, index: int, future, worker, args: tuple):
        """One shard's result, retrying infrastructure failures in place."""
        attempts = 0
        while True:
            try:
                result = future.result()
                if self._faults is not None:
                    self._faults.fire(SHARD_RESULT)
                return result
            except _RETRYABLE as error:
                attempts += 1
                if attempts > self.retries:
                    raise BackendError(
                        f"shard {index} failed after {attempts} attempt(s): "
                        f"{error}"
                    ) from error
                self.retried += 1
                time.sleep(_RETRY_BACKOFF_S * attempts)
                future = self._submit_shard(worker, args)

    def resilience_stats(self) -> dict:
        """Self-healing counters for health blocks and chaos assertions."""
        return {
            "retries": self.retries,
            "retried": self.retried,
        }

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #
    def measure_values(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence[FlexOffer]
    ) -> list[float]:
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.measure_values(measure, flex_offers)
        inner = self._inner_ref()
        outcomes = self._map(
            _shard_values_outcome,
            [(inner, measure, chunk) for chunk in self._partition(flex_offers)],
        )
        values: list[float] = []
        for status, payload in outcomes:
            if status == "error":
                raise payload
            values.extend(payload)
        return values

    def measure_support(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence[FlexOffer]
    ) -> list[bool]:
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.measure_support(measure, flex_offers)
        inner = self._inner_ref()
        verdicts: list[bool] = []
        for shard in self._map(
            _shard_support,
            [(inner, measure, chunk) for chunk in self._partition(flex_offers)],
        ):
            verdicts.extend(shard)
        return verdicts

    def evaluate_population(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Sequence[FlexOffer],
        skip_unsupported: bool = True,
    ) -> tuple[dict[str, float], list[str]]:
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.evaluate_population(
                measures, flex_offers, skip_unsupported
            )
        inner = self._inner_ref()
        chunks = self._partition(flex_offers)
        # One fan-out per call: each shard packs once, then reports support
        # verdicts and value outcomes for every decomposable measure.
        # Non-decomposable measures (overridden ``set_value``) get support
        # verdicts only — their own override runs on the full population.
        value_mask = [not self._overrides_set_value(measure) for measure in measures]
        shard_rows = self._map(
            _shard_evaluate,
            [
                (inner, measures, value_mask, chunk, skip_unsupported)
                for chunk in chunks
            ],
        )
        # Assembly is measure-major, like the reference backend's loop, so
        # the skip list and the position at which any error surfaces (a
        # raising ``supports`` included) match: measure by measure, support
        # first — with shard-granular short-circuiting, so an unsupported
        # verdict in an earlier shard wins over a raising ``supports`` in a
        # later one, mirroring the lazily evaluated `all()` — then values,
        # lowest failing shard first.
        values: dict[str, float] = {}
        skipped: list[str] = []
        for index, measure in enumerate(measures):
            supported = True
            for rows in shard_rows:
                status, payload = rows[index][0]
                if status == "error":
                    raise payload
                if not payload:
                    supported = False
                    break
            if not supported and skip_unsupported:
                skipped.append(measure.key)
                continue
            if not value_mask[index]:
                values[measure.key] = measure.set_value(flex_offers)
                continue
            per_offer: list[float] = []
            for rows in shard_rows:
                status, payload = rows[index][1]
                if status == "error":
                    raise payload
                per_offer.extend(payload)
            values[measure.key] = measure.combine_values(per_offer)
        return values, skipped

    def per_offer_values(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Sequence[FlexOffer],
    ) -> list[dict[str, float]]:
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.per_offer_values(measures, flex_offers)
        inner = self._inner_ref()
        results: list[dict[str, float]] = []
        for shard in self._map(
            _shard_per_offer,
            [(inner, measures, chunk) for chunk in self._partition(flex_offers)],
        ):
            results.extend(shard)
        return results

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate_columns(
        self, members: Sequence[FlexOffer]
    ) -> tuple[int, list[int], list[tuple[int, int]]]:
        members = list(members)
        if self._delegates(members):
            return self.inner.aggregate_columns(members)
        inner = self._inner_ref()
        shards = self._map(
            _shard_aggregate,
            [(inner, chunk) for chunk in self._partition(members)],
        )
        # Re-anchor every shard at the global earliest start and add the
        # shifted column sums — pure integer arithmetic, so the merge equals
        # the single-pass result exactly.
        anchor = min(shard_anchor for shard_anchor, _, _ in shards)
        horizon = max(
            shard_anchor - anchor + len(columns)
            for shard_anchor, _, columns in shards
        )
        low = [0] * horizon
        high = [0] * horizon
        offsets: list[int] = []
        for shard_anchor, shard_offsets, columns in shards:
            shift = shard_anchor - anchor
            offsets.extend(offset + shift for offset in shard_offsets)
            for index, (column_low, column_high) in enumerate(columns):
                low[shift + index] += column_low
                high[shift + index] += column_high
        return anchor, offsets, list(zip(low, high))

    # ------------------------------------------------------------------ #
    # Assignments
    # ------------------------------------------------------------------ #
    def feasible_profiles(
        self, flex_offers: Sequence[FlexOffer], target: str
    ) -> tuple[list[tuple[int, ...]], list[bool]]:
        if target not in ("min", "max"):
            raise ValueError(f"unknown target {target!r}")
        if is_packed(flex_offers):
            # Already packed (the engine's live matrix): one kernel pass in
            # the calling thread.  Thread shards would only add GIL
            # hand-offs.
            return self.inner.feasible_profiles(flex_offers, target)
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.feasible_profiles(flex_offers, target)
        inner = self._inner_ref()
        profiles: list[tuple[int, ...]] = []
        feasible: list[bool] = []
        for shard_profiles, shard_feasible in self._map(
            _shard_profiles,
            [(inner, chunk, target) for chunk in self._partition(flex_offers)],
        ):
            profiles.extend(shard_profiles)
            feasible.extend(shard_feasible)
        return profiles, feasible

    def packed_feasible_profiles(self, matrix, target: str):
        # Packed already: one kernel pass on the inner backend in the
        # calling thread, like feasible_profiles on a matrix.
        return self.inner.packed_feasible_profiles(matrix, target)

    def assignment_feasibility(
        self,
        flex_offers: Sequence[FlexOffer],
        starts: Sequence[int],
        values: Sequence[Sequence[int]],
    ) -> list[bool]:
        # Pair triples before partitioning: mismatched input lengths must
        # truncate like the reference backend's zip, not skew the shard
        # boundaries into silently checking offer i against candidate i-1.
        count = min(len(flex_offers), len(starts), len(values))
        flex_offers = list(flex_offers)[:count]
        starts = list(starts)[:count]
        values = list(values)[:count]
        if self._delegates(flex_offers):
            return self.inner.assignment_feasibility(flex_offers, starts, values)
        inner = self._inner_ref()
        offer_chunks = self._partition(flex_offers)
        start_chunks = self._partition(starts)
        value_chunks = self._partition(values)
        verdicts: list[bool] = []
        for shard in self._map(
            _shard_feasibility,
            [
                (inner, offers, shard_starts, shard_values)
                for offers, shard_starts, shard_values in zip(
                    offer_chunks, start_chunks, value_chunks
                )
            ],
        ):
            verdicts.extend(shard)
        return verdicts

    # ------------------------------------------------------------------ #
    # Scheduling objectives
    # ------------------------------------------------------------------ #
    def batch_objectives(
        self,
        schedules: Sequence[Sequence[tuple[int, Sequence[int]]]],
        reference=None,
        metric: str = "absolute",
    ) -> list[float]:
        """Schedule-partitioned fan-out of the generation objective.

        Each schedule's objective is independent of the others, so the
        generation is partitioned like a population and the per-shard
        results concatenate in shard order — bit-identical to the inner
        backend's single-call result.  Typical generations are far below
        ``min_population`` and delegate whole; the fan-out matters for
        tournament-sized sweeps scored in one call.
        """
        if metric not in ("absolute", "squared"):
            raise ValueError(f"unknown imbalance metric {metric!r}")
        schedules = list(schedules)
        if self._delegates(schedules):
            return self.inner.batch_objectives(schedules, reference, metric)
        inner = self._inner_ref()
        results: list[float] = []
        for shard in self._map(
            _shard_objectives,
            [
                (inner, chunk, reference, metric)
                for chunk in self._partition(schedules)
            ],
        ):
            results.extend(shard)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedBackend shards={self.shards} "
            f"inner={self._inner_ref()!r} "
            f"min_population={self.min_population}>"
        )


register_backend(ShardedBackend())
