"""Incrementally maintained packed state of the live population.

:class:`LivePopulation` is the streaming engine's columnar shadow of its
per-offer dictionaries: one live
:class:`~repro.backend.matrix.ProfileMatrix` over the surviving offers plus
a row-aligned ``float64`` column per configured measure.  Arrivals append
in amortized O(Δ), evictions tombstone in O(1), and compaction (triggered
by the matrix's tombstone-ratio threshold, ``compact_threshold``) keeps
both structures aligned through the same surviving-row gather — so after
any event interleaving the packed matrix is bit-identical to a fresh pack
of the survivors, without the O(population) re-pack the engine used to pay
on every mutation.

The value columns make the engine's per-tick folds vectorized: instead of
rebuilding a Python list out of ``{offer_id: {measure: value}}`` dictionary
lookups, a fold gathers the alive rows of one column and hands the same
values, in the same arrival order, to the measure's ``combine_values``
hook.  Exactness is preserved by construction — the fold refuses (returns
``None``, sending the engine down its dictionary path) whenever the
``float64`` column could disagree with the original Python values: a value
that does not round-trip through ``float64``, an int too large for the
``int64`` gather, or a measure that produced both int- and float-typed
values (whose sequential sum could round differently).

This module imports NumPy (via the packed matrix) at module level; the
engine imports it lazily and simply runs without the columnar fast path
when the import fails.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Optional

import numpy as np

from ..backend.matrix import ProfileMatrix
from ..core.flexoffer import FlexOffer

__all__ = ["LivePopulation"]

#: Ints beyond this cannot be gathered through the ``int64`` column path
#: even when their ``float64`` image is exact (powers of two past 2^62).
_INT64_SAFE = 1 << 62

#: Every int of at most this magnitude has an exact ``float64`` image.
_FLOAT_EXACT = 1 << 53


def _float_or_zero(value) -> float:
    """``float(value)``, or ``0.0`` for an int beyond the ``float64`` range.

    The zero is a placeholder: such a value marks its column inexact, so
    the column is never folded.
    """
    try:
        return float(value)
    except OverflowError:
        return 0.0


class LivePopulation:
    """Live matrix plus measure value columns, row-aligned and O(Δ)."""

    def __init__(self, measure_keys: list[str]) -> None:
        self.matrix = ProfileMatrix([])
        self._keys = list(measure_keys)
        self._column_of = {key: index for index, key in enumerate(self._keys)}
        width = len(self._keys)
        self._values = np.zeros((0, width), dtype=np.float64)
        self._ids: list[str] = []
        self._rows: dict[str, int] = {}
        # Sticky per-measure exactness bookkeeping (reset only with the
        # population): the fold may only serve a column whose float64 image
        # provably reproduces the dictionary path's Python values.
        self._saw_int = [False] * width
        self._saw_float = [False] * width
        self._inexact = [False] * width
        # Largest |value| ever stored per integer column: bounds the exact
        # range of an ``int64`` column sum (``max_abs * rows < 2^62`` ⇒ no
        # overflow), letting ``combined_values`` fold integer columns
        # without arbitrary-precision arithmetic.
        self._int_max_abs = [0.0] * width

    def __len__(self) -> int:
        """Number of surviving offers."""
        return self.matrix.live_count

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def extend(
        self,
        offer_ids: Sequence[str],
        flex_offers: Sequence[FlexOffer],
        values: Sequence[dict[str, float]],
    ) -> None:
        """Add a batch of arrivals: matrix rows plus their measure values.

        ``values[i]`` holds the measure values of the supporting measures
        only (the engine's arrival cache for ``flex_offers[i]``).  The
        matrix takes the batch in one append and every value column is
        written as one block; the exactness bookkeeping ends up exactly as
        if the rows had arrived one at a time.  Raises ``OverflowError`` —
        with no state change — when an offer is not packable; the engine
        then degrades to its dictionary-only path.
        """
        self.matrix.append(flex_offers)  # validates before writing
        if not offer_ids:
            return
        start = len(self._ids)
        end = start + len(offer_ids)
        if end > len(self._values):
            grown = np.zeros(
                (max(end, 2 * start, 8), len(self._keys)), dtype=np.float64
            )
            grown[:start] = self._values[:start]
            self._values = grown
        rows = [[cached.get(key, 0.0) for key in self._keys] for cached in values]
        try:
            self._values[start:end] = np.array(rows, dtype=np.float64)
        except OverflowError:  # an int too large for float64
            self._values[start:end] = [
                [_float_or_zero(value) for value in row] for row in rows
            ]
        for column, key in enumerate(self._keys):
            present = [cached[key] for cached in values if key in cached]
            if present:
                self._note_column(column, present)
        self._ids.extend(offer_ids)
        self._rows.update(zip(offer_ids, range(start, end)))

    def _note_column(self, column: int, values: list) -> None:
        """Fold one column's new values into its exactness flags.

        The flags track whether the column still reproduces the Python
        values: ints must lie within ``±2^62`` and round-trip through
        ``float64``, floats must not be NaN, and any other type makes the
        column inexact.
        """
        kinds = set(map(type, values))
        if int in kinds:
            self._saw_int[column] = True
            ints = values if len(kinds) == 1 else [
                value for value in values if type(value) is int
            ]
            if min(ints) < -_INT64_SAFE or max(ints) > _INT64_SAFE:
                self._inexact[column] = True
                ints = [
                    value for value in ints if -_INT64_SAFE <= value <= _INT64_SAFE
                ]
            if ints:
                magnitude = max(max(ints), -min(ints))
                if float(magnitude) > self._int_max_abs[column]:
                    self._int_max_abs[column] = float(magnitude)
                if magnitude > _FLOAT_EXACT and any(
                    float(value) != value for value in ints
                ):
                    self._inexact[column] = True
        if float in kinds:
            self._saw_float[column] = True
            floats = values if len(kinds) == 1 else [
                value for value in values if type(value) is float
            ]
            if any(map(math.isnan, floats)):
                self._inexact[column] = True
        if not kinds <= {int, float}:
            self._inexact[column] = True

    def remove(self, offer_id: str) -> None:
        """Tombstone one offer's row; compacts past the matrix threshold."""
        row = self._rows.pop(offer_id)
        self._ids[row] = ""
        kept = self.matrix.tombstone([row])
        if kept is not None:
            self._apply_compaction(kept)

    def _apply_compaction(self, kept: np.ndarray) -> None:
        """Re-align the columns and id map after a matrix compaction."""
        count = len(self._ids)
        self._values = self._values[:count][kept]
        self._ids = [self._ids[int(index)] for index in kept]
        self._rows = {offer_id: row for row, offer_id in enumerate(self._ids)}

    def population_matrix(self) -> ProfileMatrix:
        """The packed matrix of the survivors (compacted on demand)."""
        if self.matrix.dead_count:
            self._apply_compaction(self.matrix.compact())
        return self.matrix

    # ------------------------------------------------------------------ #
    # Folds
    # ------------------------------------------------------------------ #
    def fold(self, measure_key: str) -> Optional[list]:
        """The surviving offers' values of one measure, arrival order.

        Returns ``None`` when the column cannot reproduce the dictionary
        path exactly (see the class docstring) — callers fall back to the
        per-offer dictionaries.  Only valid for measures that support every
        survivor; the engine checks its unsupported counters first.
        """
        column = self._column_of[measure_key]
        if self._inexact[column]:
            return None
        integral = self._saw_int[column]
        if integral and self._saw_float[column]:
            return None
        count = len(self._ids)
        gathered = self._values[:count, column][self.matrix.alive]
        if integral:
            return gathered.astype(np.int64).tolist()
        return gathered.tolist()

    def combined_values(self, measures) -> dict[str, float]:
        """Exact set values of many measures in one pass over the columns.

        The vectorized form of ``measure.combine_values(fold(key))`` for
        every measure at once: the alive mask is gathered a single time,
        each eligible column is folded with one ``cumsum`` pass, and the
        results are bit-identical to the scalar fold — ``cumsum``
        accumulates strictly left to right in the same arrival order the
        dictionary path iterates, integer columns fold in exact ``int64``
        (guarded by the running ``max |value| * rows`` bound), and the
        sum/mean finalisation repeats the scalar expression.

        Measures the pass cannot serve exactly are simply absent from the
        returned dict — a measure with an overridden ``combine_values``
        (non-additive set semantics), an untracked key, an inexact or
        mixed int/float column, or an integer column whose sum could
        overflow ``int64`` — and the engine falls back to the per-measure
        scalar fold for those.
        """
        from ..measures.base import FlexibilityMeasure, SetAggregation

        combined: dict[str, float] = {}
        count = len(self._ids)
        alive = None
        dead = self.matrix.dead_count
        for measure in measures:
            if (
                type(measure).combine_values
                is not FlexibilityMeasure.combine_values
            ):
                continue
            column = self._column_of.get(measure.key)
            if column is None or self._inexact[column]:
                continue
            integral = self._saw_int[column]
            if integral and self._saw_float[column]:
                continue
            if dead:
                if alive is None:
                    alive = self.matrix.alive
                data = self._values[:count, column][alive]
            else:
                data = self._values[:count, column]
            size = int(data.size)
            if size == 0:
                combined[measure.key] = 0.0
                continue
            wants_mean = measure.set_aggregation is SetAggregation.MEAN
            if integral:
                if self._int_max_abs[column] * size >= float(_INT64_SAFE):
                    continue
                total = int(np.cumsum(data.astype(np.int64))[-1])
            else:
                total = np.cumsum(data)[-1]
            combined[measure.key] = (
                float(total / size) if wants_mean else float(total)
            )
        return combined

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LivePopulation({self.matrix.live_count} live rows, "
            f"{len(self._keys)} measure columns)"
        )
