"""The vectorized NumPy compute backend.

Packs the population into a :class:`~repro.backend.matrix.ProfileMatrix`
once per bulk call — through the fingerprint-keyed
:data:`~repro.backend.cache.matrix_cache`, so repeated bulk calls on a
stable population reuse the packed arrays instead of re-packing, while
one-shot inputs (the streaming engine's arrival batches, scheduler
candidates) are packed directly and never enter the cache — and evaluates
measures through their
:meth:`~repro.measures.base.FlexibilityMeasure.batch_values` hooks — each
registered measure vectorizes its own arithmetic over the packed arrays,
and measures that never opted in transparently fall back to the scalar
``value`` loop through the hook's default implementation.

Exactness contract (pinned by ``tests/backend/test_conformance.py``):

* integer-valued paths (time, energy, product, assignments, absolute area,
  aggregation columns, feasible profiles, feasibility checks) match the
  reference backend **exactly**;
* float paths (norms, relative area) perform the final floating-point
  operations on Python floats in the same order as the scalar code, so they
  agree to the last bit on every input the conformance suite generates and
  to 1e-9 by contract;
* inputs the packed ``int64`` representation cannot hold (the scalar model
  allows arbitrary Python integers) fall back to the reference backend
  instead of overflowing silently.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, ClassVar, Union

import numpy as np

from ..core.flexoffer import FlexOffer
from .cache import cached_matrix
from .dispatch import ComputeBackend, register_backend, schedule_pairs
from .matrix import DENSE_CELL_LIMIT, VALUE_LIMIT, ProfileMatrix
from .reference import ReferenceBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..measures.base import FlexibilityMeasure

__all__ = ["NumpyBackend"]

#: Shared scalar fallback for inputs the packed representation cannot hold.
_FALLBACK = ReferenceBackend()


def _as_matrix(
    flex_offers: Union[Sequence[FlexOffer], ProfileMatrix], cache=None
) -> ProfileMatrix:
    """The packed matrix of a population-or-handle argument.

    Every bulk operation accepts either a raw offer sequence or an
    already-packed :class:`ProfileMatrix` (the ``prepare()`` / sharded
    slice handles); this is the single place that coercion lives.
    ``cache`` selects the memoisation store (``None`` → the process-wide
    :data:`~repro.backend.cache.matrix_cache`).  Propagates the packer's
    ``OverflowError`` so each call site keeps its own reference-backend
    fallback.
    """
    if isinstance(flex_offers, ProfileMatrix):
        return flex_offers
    return cached_matrix(flex_offers, cache)


def _support_mask(measure: "FlexibilityMeasure", matrix: ProfileMatrix) -> np.ndarray:
    """Per-offer :meth:`FlexibilityMeasure.supports` over a population.

    The default ``supports`` derives from the measure's characteristics and
    the offers' sign classes, which the packed masks evaluate without
    touching Python objects; a measure that *overrides* ``supports`` (a
    public extension point) is consulted per offer so both backends see the
    same applicability.
    """
    if ComputeBackend._overrides_supports(measure):
        return np.array(
            [measure.supports(flex_offer) for flex_offer in matrix.offers],
            dtype=bool,
        )
    characteristics = measure.characteristics
    return np.where(
        matrix.is_mixed,
        characteristics.captures_mixed,
        np.where(
            matrix.is_production,
            characteristics.captures_negative,
            characteristics.captures_positive,
        ),
    )


def _screen(
    matrix: ProfileMatrix, starts: np.ndarray, packed: np.ndarray
) -> np.ndarray:
    """Per-offer Definition 2 verdicts of packed candidate assignments.

    ``starts`` holds one start time per row and ``packed`` the candidate
    values in the matrix's slice layout; the three predicates are those of
    :func:`~repro.core.assignment.assignment_violations`: the start lies in
    ``[tes, tls]``, every value in its slice's range, the total in
    ``[cmin, cmax]``.
    """
    start_ok = (matrix.tes <= starts) & (starts <= matrix.tls)
    in_range = (matrix.amin <= packed) & (packed <= matrix.amax)
    slices_ok = matrix._reduce(np.logical_and, in_range)
    totals = matrix._reduce(np.add, packed)
    total_ok = (matrix.cmin <= totals) & (totals <= matrix.cmax)
    return start_ok & slices_ok & total_ok


class NumpyBackend(ComputeBackend):
    """Bulk operations over packed ``(amin, amax)`` arrays.

    Parameters
    ----------
    cache:
        The :class:`~repro.backend.cache.MatrixCache` memoising packed
        matrices for this instance; ``None`` (the registered default
        instance) shares the process-wide
        :data:`~repro.backend.cache.matrix_cache`.  The service layer
        constructs one backend per session with the session's own cache,
        so two sessions' retention budgets never compete.
    """

    name: ClassVar[str] = "numpy"

    def __init__(self, cache=None) -> None:
        self._cache = cache

    def _matrix(
        self, flex_offers: Union[Sequence[FlexOffer], ProfileMatrix]
    ) -> ProfileMatrix:
        """This instance's cache-routed :func:`_as_matrix`."""
        return _as_matrix(flex_offers, self._cache)

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #
    def measure_values(
        self,
        measure: "FlexibilityMeasure",
        flex_offers: Union[Sequence[FlexOffer], ProfileMatrix],
    ) -> list[float]:
        try:
            matrix = self._matrix(flex_offers)
        except OverflowError:
            return _FALLBACK.measure_values(measure, flex_offers)
        return measure.batch_values(matrix)

    def prepare(
        self, flex_offers: Union[Sequence[FlexOffer], ProfileMatrix]
    ) -> Union[Sequence[FlexOffer], ProfileMatrix]:
        """Pack once, reuse across calls; unpackable populations pass through
        (each bulk call then re-attempts and takes its reference fallback)."""
        if isinstance(flex_offers, ProfileMatrix):
            return flex_offers
        try:
            return cached_matrix(flex_offers, self._cache)
        except OverflowError:
            return flex_offers

    def measure_support(
        self,
        measure: "FlexibilityMeasure",
        flex_offers: Union[Sequence[FlexOffer], ProfileMatrix],
    ) -> list[bool]:
        try:
            matrix = self._matrix(flex_offers)
        except OverflowError:
            return _FALLBACK.measure_support(measure, flex_offers)
        return [bool(flag) for flag in _support_mask(measure, matrix)]

    def evaluate_population(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Union[Sequence[FlexOffer], ProfileMatrix],
        skip_unsupported: bool = True,
    ) -> tuple[dict[str, float], list[str]]:
        try:
            matrix = self._matrix(flex_offers)
        except OverflowError:
            return _FALLBACK.evaluate_population(measures, flex_offers, skip_unsupported)
        values: dict[str, float] = {}
        skipped: list[str] = []
        for measure in measures:
            if skip_unsupported and not bool(
                np.all(_support_mask(measure, matrix))
            ):
                skipped.append(measure.key)
                continue
            if self._overrides_set_value(measure):
                values[measure.key] = measure.set_value(matrix.offers)
            else:
                values[measure.key] = measure.combine_values(
                    measure.batch_values(matrix)
                )
        return values, skipped

    def per_offer_values(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Union[Sequence[FlexOffer], ProfileMatrix],
    ) -> list[dict[str, float]]:
        try:
            # Packed directly, not through the cache: the streaming engine
            # feeds this with one-shot arrival batches, which would only
            # evict reusable whole-population entries.
            matrix = (
                flex_offers
                if isinstance(flex_offers, ProfileMatrix)
                else ProfileMatrix(flex_offers)
            )
        except OverflowError:
            return _FALLBACK.per_offer_values(measures, flex_offers)
        results: list[dict[str, float]] = [{} for _ in range(matrix.size)]
        for measure in measures:
            mask = _support_mask(measure, matrix)
            if bool(np.all(mask)):
                indices: Sequence[int] = range(matrix.size)
                batch = measure.batch_values(matrix)
            else:
                indices = np.nonzero(mask)[0].tolist()
                batch = (
                    measure.batch_values(matrix.take(indices)) if indices else []
                )
            for index, value in zip(indices, batch):
                results[index][measure.key] = value
        return results

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate_columns(
        self, members: Union[Sequence[FlexOffer], ProfileMatrix]
    ) -> tuple[int, list[int], list[tuple[int, int]]]:
        try:
            matrix = self._matrix(members)
        except OverflowError:
            return _FALLBACK.aggregate_columns(members)
        if matrix.size > (1 << 22):
            # Column sums accumulate across members; beyond ~4M members the
            # per-column total could leave the exactly-representable range.
            return _FALLBACK.aggregate_columns(members)
        anchor = int(matrix.tes.min())
        member_offsets = matrix.tes - anchor
        horizon = int((member_offsets + matrix.durations).max())
        column = member_offsets[matrix.owner] + matrix.within
        low = np.zeros(horizon, dtype=np.int64)
        high = np.zeros(horizon, dtype=np.int64)
        np.add.at(low, column, matrix.effective_amin)
        np.add.at(high, column, matrix.effective_amax)
        return (
            anchor,
            member_offsets.tolist(),
            list(zip(low.tolist(), high.tolist())),
        )

    # ------------------------------------------------------------------ #
    # Assignments
    # ------------------------------------------------------------------ #
    def feasible_profiles(
        self,
        flex_offers: Union[Sequence[FlexOffer], ProfileMatrix],
        target: str,
    ) -> tuple[list[tuple[int, ...]], list[bool]]:
        if target not in ("min", "max"):
            raise ValueError(f"unknown target {target!r}")
        try:
            # A matrix (the engine's live one) is used as it is; offers are
            # packed directly, not through the cache: the bulk schedulers
            # feed this with one-shot candidate populations (a fresh list
            # per offer / per generation), which would churn the shared LRU
            # out of its genuinely reusable whole-population entries.
            matrix = (
                flex_offers
                if isinstance(flex_offers, ProfileMatrix)
                else ProfileMatrix(flex_offers)
            )
        except OverflowError:
            return _FALLBACK.feasible_profiles(flex_offers, target)
        if matrix.size == 0:
            return [], []
        packed, feasible = self.packed_feasible_profiles(matrix, target)
        return matrix.profiles(packed), feasible.tolist()

    def packed_feasible_profiles(
        self, matrix: ProfileMatrix, target: str
    ) -> tuple[np.ndarray, np.ndarray]:
        if target not in ("min", "max"):
            raise ValueError(f"unknown target {target!r}")
        room = matrix.amax - matrix.amin  # headroom == slack per slice
        # Room already consumed by earlier slices of the same offer (the
        # greedy scalar loop consumes capacity strictly in profile order).
        # The global cumsum may wrap on huge populations, but the *within-
        # segment* difference taken next is exact modulo 2^64 and its true
        # value fits int64 (ProfileMatrix bounds per-offer sums), so the
        # wrap cancels.
        cumulative = np.cumsum(room) - room
        consumed = cumulative - cumulative[matrix.starts][matrix.owner]
        if target == "min":
            need = matrix.cmin - matrix.profile_min  # deficit per offer
            bump = np.clip(need[matrix.owner] - consumed, 0, room)
            packed = matrix.amin + bump
            starts = matrix.tes
        else:
            surplus = matrix.profile_max - matrix.cmax
            drop = np.clip(surplus[matrix.owner] - consumed, 0, room)
            packed = matrix.amax - drop
            starts = matrix.tls
        return packed, _screen(matrix, starts, packed)

    def assignment_feasibility(
        self,
        flex_offers: Sequence[FlexOffer],
        starts: Sequence[int],
        values: Sequence[Sequence[int]],
    ) -> list[bool]:
        flex_offers = list(flex_offers)
        profiles = [tuple(profile) for profile in values]
        flat = [value for profile in profiles for value in profile]
        # The scalar checker rejects non-int (and bool) entries; the packed
        # arrays would silently coerce them, so route those to the loop.
        if not all(type(value) is int for value in flat) or not all(
            type(start) is int for start in starts
        ):
            return _FALLBACK.assignment_feasibility(flex_offers, starts, profiles)
        if any(
            len(profile) != flex_offer.duration
            for profile, flex_offer in zip(profiles, flex_offers)
        ):
            return _FALLBACK.assignment_feasibility(flex_offers, starts, profiles)
        try:
            # Direct packing for the same reason as feasible_profiles: the
            # screening populations are one-shot, so caching them only
            # evicts reusable entries.
            matrix = ProfileMatrix(flex_offers)
            packed = np.fromiter(flat, dtype=np.int64, count=len(flat))
            start_times = np.fromiter(
                starts, dtype=np.int64, count=len(flex_offers)
            )
        except OverflowError:
            return _FALLBACK.assignment_feasibility(flex_offers, starts, profiles)
        if packed.size and int(np.abs(packed).max()) > VALUE_LIMIT:
            # Candidate values are caller-supplied: keep their running totals
            # inside the exactly-representable range too.
            return _FALLBACK.assignment_feasibility(flex_offers, starts, profiles)
        return _screen(matrix, start_times, packed).tolist()

    # ------------------------------------------------------------------ #
    # Scheduling objectives
    # ------------------------------------------------------------------ #
    def batch_objectives(
        self,
        schedules: Sequence[Sequence[tuple[int, Sequence[int]]]],
        reference=None,
        metric: str = "absolute",
    ) -> list[float]:
        """Whole-generation imbalance objectives over one dense load grid.

        The expensive part of the scalar path — building one
        ``TimeSeries`` per assignment and summing them per schedule — is
        replaced by a single ``np.add.at`` scatter of every assignment's
        values into a ``(schedules × horizon)`` int64 grid.  A packed
        :class:`~repro.scheduling.Schedule` contributes its columns as
        they are; every other schedule is flattened into Python lists
        first.  The final per-schedule fold stays a sequential Python
        reduction over the (small) deviation row, in time order, so the
        float results match the scalar objective bit-for-bit; columns
        outside a schedule's own span are exact zeros and leave the fold
        unchanged.  Inputs the packed representation cannot evaluate
        exactly (non-int or oversized values, negative starts the scalar
        ``TimeSeries`` would reject, schedules so large their column sums
        could leave int64) take the scalar fallback.
        """
        from ..scheduling.base import Schedule

        if metric not in ("absolute", "squared"):
            raise ValueError(f"unknown imbalance metric {metric!r}")
        schedules = [
            schedule if isinstance(schedule, Schedule) else list(schedule)
            for schedule in schedules
        ]
        if not schedules:
            return []
        scalar = super().batch_objectives
        count = len(schedules)
        lengths: list[int] = []
        # The schedules built from assignments, flattened into lists ...
        starts: list[int] = []
        durations: list[int] = []
        flat: list[int] = []
        rows: list[int] = []
        # ... and the columns of the packed ones, as arrays.
        start_parts: list[np.ndarray] = []
        duration_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        for row, schedule in enumerate(schedules):
            columns = schedule.columns if isinstance(schedule, Schedule) else None
            if columns is not None:
                column_starts, values, offsets = columns
                start_parts.append(column_starts)
                duration_parts.append(np.diff(offsets))
                value_parts.append(values)
                row_parts.append(np.full(len(column_starts), row, dtype=np.int64))
                lengths.append(len(column_starts))
                continue
            pairs = schedule_pairs(schedule)
            lengths.append(len(pairs))
            rows.extend([row] * len(pairs))
            for start, values in pairs:
                starts.append(start)
                durations.append(len(values))
                flat.extend(values)
        if max(lengths) > (1 << 21):
            # Column sums accumulate per schedule; beyond ~2M assignments a
            # single column could leave the exactly-representable range.
            return scalar(schedules, reference, metric)
        # Validation mirrors the scalar TimeSeries path exactly — non-int
        # (and bool) entries and negative starts are rejected, magnitudes
        # must stay in the exact-sum range — but runs at C speed: a
        # ``set(map(type, ...))`` sweep distinguishes bool from int (they
        # are distinct types), the int64 conversion raises ``OverflowError``
        # on unbounded Python ints, and the bound checks are vectorized.
        # Packed columns are int64 arrays already and skip the type sweep.
        try:
            if starts and set(map(type, starts)) != {int}:
                return scalar(schedules, reference, metric)
            start_array = np.asarray(starts, dtype=np.int64)
            if flat and set(map(type, flat)) != {int}:
                return scalar(schedules, reference, metric)
            flat_array = np.asarray(flat, dtype=np.int64)
        except OverflowError:
            return scalar(schedules, reference, metric)
        start_array = np.concatenate([start_array, *start_parts])
        duration_array = np.concatenate(
            [np.asarray(durations, dtype=np.int64), *duration_parts]
        )
        flat_array = np.concatenate([flat_array, *value_parts])
        assignment_rows = np.concatenate(
            [np.asarray(rows, dtype=np.int64), *row_parts]
        )
        if start_array.size and int(start_array.min()) < 0:
            return scalar(schedules, reference, metric)
        if flat_array.size and int(np.abs(flat_array).max()) > VALUE_LIMIT:
            return scalar(schedules, reference, metric)
        reference_values = tuple(reference.values) if reference is not None else ()
        reference_ints = all(type(value) is int for value in reference_values)
        if reference_ints and reference_values and (
            max(map(abs, reference_values)) > VALUE_LIMIT
        ):
            return scalar(schedules, reference, metric)
        # The global grid covers every schedule's load span (and 0 for the
        # empty-schedule anchor) plus the reference span — a superset of
        # each schedule's own union span, with the extra columns exactly 0.
        any_starts = bool(start_array.size)
        low = int(start_array.min()) if any_starts else 0
        if not all(lengths):
            low = min(low, 0)
        high = (
            int((start_array + duration_array).max()) - 1
            if any_starts
            else low - 1
        )
        if reference is not None:
            low = min(low, reference.start)
            high = max(high, reference.end)
        horizon = high - low + 1
        if horizon <= 0:
            return [0.0] * count
        if count * horizon > DENSE_CELL_LIMIT:
            return scalar(schedules, reference, metric)
        dense = np.zeros((count, horizon), dtype=np.int64)
        if flat_array.size:
            segment = np.zeros(len(duration_array), dtype=np.int64)
            np.cumsum(duration_array[:-1], out=segment[1:])
            within = np.arange(flat_array.size, dtype=np.int64) - np.repeat(
                segment, duration_array
            )
            columns = np.repeat(start_array - low, duration_array) + within
            np.add.at(
                dense,
                (np.repeat(assignment_rows, duration_array), columns),
                flat_array,
            )
        if reference is not None and reference_values:
            reference_row = np.zeros(
                horizon, dtype=np.int64 if reference_ints else np.float64
            )
            offset = reference.start - low
            reference_row[offset : offset + len(reference_values)] = reference_values
            deviation = dense - reference_row
        else:
            deviation = dense
        results: list[float] = []
        for index in range(count):
            row = deviation[index].tolist()
            if metric == "absolute":
                results.append(float(sum(abs(value) for value in row)))
            else:
                results.append(float(sum(value * value for value in row)))
        return results


register_backend(NumpyBackend())
