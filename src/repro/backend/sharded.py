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

Faults
------
``_map`` — the one fan-out/merge primitive every operation funnels
through — fires the ``shard.submit`` fault site before it hands a shard
to the pool and ``shard.result`` after it takes a shard's result.  An
injected failure propagates as raised: the call returns no partial
result, and the backend holds no state the failure could leave behind,
so the next call answers exactly like a fault-free one.

Like every backend, the sharded backend is pinned observationally
equivalent to the reference implementation by the differential conformance
suite (``tests/backend/test_conformance.py``) and the golden fixtures.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, ClassVar, Optional, Union

from ..core.errors import BackendError
from ..core.flexoffer import FlexOffer
from ..faults.plan import SHARD_RESULT, SHARD_SUBMIT, FaultPlan
from .dispatch import (
    ComputeBackend,
    available_backends,
    get_backend,
    is_packed,
    register_backend,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..measures.base import FlexibilityMeasure

__all__ = [
    "ShardedBackend",
    "DEFAULT_MIN_POPULATION",
]

#: Below this population size the whole operation runs on the inner backend:
#: pool dispatch plus per-shard packing costs more than it saves.
DEFAULT_MIN_POPULATION = 4096


# --------------------------------------------------------------------- #
# The evaluate worker.  Every other operation maps a bound method of the
# inner backend over the shards.
# --------------------------------------------------------------------- #
def _values_outcome(backend, measure, population):
    """``("ok", values)`` or ``("error", exc)`` of one shard's measure values."""
    try:
        return "ok", backend.measure_values(measure, population)
    except Exception as error:  # noqa: BLE001 - re-raised in shard order
        return "error", error


def _shard_evaluate(backend, measures, value_mask, flex_offers, skip_unsupported):
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
        self.shards = shards
        self.min_population = min_population
        self._faults = faults
        self._inner_spec = inner
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def inner(self) -> ComputeBackend:
        """The backend every shard runs on (resolved late, per call)."""
        spec = self._inner_spec
        if spec is None:
            spec = "numpy" if "numpy" in available_backends() else "reference"
        return get_backend(spec)

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
        reference backend's first-offending-offer error positions.
        """
        futures: list = []
        try:
            for args in arg_lists:
                futures.append(self._submit_shard(worker, args))
            results = []
            for future in futures:
                results.append(future.result())
                if self._faults is not None:
                    self._faults.fire(SHARD_RESULT)
            return results
        finally:
            # A failed call still waits for the shards it handed over, so
            # none runs on after the error reaches the caller.
            wait(futures)

    def _submit_shard(self, worker, args: tuple):
        """Hand one shard to the pool (the ``shard.submit`` fault site)."""
        if self._faults is not None:
            self._faults.fire(SHARD_SUBMIT)
        return self._executor().submit(worker, *args)

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #
    def measure_values(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence[FlexOffer]
    ) -> list[float]:
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.measure_values(measure, flex_offers)
        values: list[float] = []
        for shard in self._map(
            self.inner.measure_values,
            [(measure, chunk) for chunk in self._partition(flex_offers)],
        ):
            values.extend(shard)
        return values

    def measure_support(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence[FlexOffer]
    ) -> list[bool]:
        flex_offers = list(flex_offers)
        if self._delegates(flex_offers):
            return self.inner.measure_support(measure, flex_offers)
        verdicts: list[bool] = []
        for shard in self._map(
            self.inner.measure_support,
            [(measure, chunk) for chunk in self._partition(flex_offers)],
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
        inner = self.inner
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
        results: list[dict[str, float]] = []
        for shard in self._map(
            self.inner.per_offer_values,
            [(measures, chunk) for chunk in self._partition(flex_offers)],
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
        shards = self._map(
            self.inner.aggregate_columns,
            [(chunk,) for chunk in self._partition(members)],
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
        profiles: list[tuple[int, ...]] = []
        feasible: list[bool] = []
        for shard_profiles, shard_feasible in self._map(
            self.inner.feasible_profiles,
            [(chunk, target) for chunk in self._partition(flex_offers)],
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
        verdicts: list[bool] = []
        for shard in self._map(
            self.inner.assignment_feasibility,
            list(
                zip(
                    self._partition(flex_offers),
                    self._partition(starts),
                    self._partition(values),
                )
            ),
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
        results: list[float] = []
        for shard in self._map(
            self.inner.batch_objectives,
            [(chunk, reference, metric) for chunk in self._partition(schedules)],
        ):
            results.extend(shard)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedBackend shards={self.shards} "
            f"inner={self.inner.name!r} "
            f"min_population={self.min_population}>"
        )


register_backend(ShardedBackend())
