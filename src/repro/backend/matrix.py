"""Packed NumPy representation of a flex-offer population.

A :class:`~repro.core.flexoffer.FlexOffer` population is *ragged*: every
offer has its own profile length.  :class:`ProfileMatrix` packs the whole
population into flat ``int64`` arrays plus an ``offsets`` index (the CSR
idiom), so per-slice quantities live in one contiguous ``amin``/``amax``
pair and per-offer reductions become single ``ufunc.reduceat`` calls:

* ``offsets[i]:offsets[i+1]`` is offer ``i``'s slice range inside the packed
  arrays;
* ``owner`` maps a packed position back to its offer index, ``within`` to
  its slice index — the two gather/scatter keys every vectorized hot path
  uses.

Derived quantities (profile sums, effective per-slice bounds under the total
constraints, sign-class masks) are computed lazily and cached; all of them
are exact integer arithmetic, which is what lets the NumPy backend match the
reference implementation bit-for-bit on integer paths.

Incremental lifecycle
---------------------
A matrix is no longer only a one-shot pack: it can be maintained *live*
under per-event population deltas, which is what the streaming engine does
instead of throwing the packed arrays away on every mutation:

* :meth:`ProfileMatrix.append` adds offers at the end in amortized O(Δ)
  (capacity-doubling storage, one Python sweep over the new offers only);
* :meth:`ProfileMatrix.tombstone` marks rows dead in O(Δ) without moving
  any data; dead rows are skipped through the :attr:`alive` mask;
* :meth:`ProfileMatrix.compact` drops the dead rows with one vectorized
  boolean gather, leaving arrays bit-identical to a fresh pack of the
  survivors.  Compaction triggers automatically once the tombstone ratio
  reaches ``compact_threshold``, so the per-event cost stays amortized
  O(Δ);
* :meth:`ProfileMatrix.snapshot` publishes a zero-copy frozen view of the
  current rows (safe because rows are never mutated in place — appends
  write beyond the view, compaction replaces the backing stores).

Bulk consumers (the compute backends) require a matrix without live
tombstones; the streaming engine compacts before snapshotting.

This module imports NumPy at module level and is therefore only imported by
the NumPy backend; everything else in the library must keep working when the
import fails.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import Optional

import numpy as np

from ..core.flexoffer import FlexOffer

__all__ = [
    "ProfileMatrix",
    "VALUE_LIMIT",
    "SLICE_LIMIT",
    "DENSE_CELL_LIMIT",
    "DEFAULT_COMPACT_THRESHOLD",
]

_INT64 = np.int64

#: Live-matrix tombstone ratio that triggers compaction: once a quarter of
#: the rows are dead.  Low enough that the O(live) gather stays amortized
#: O(1) per tombstone, high enough that eviction bursts do not compact on
#: every event.  Compaction never changes a result, only the layout.
DEFAULT_COMPACT_THRESHOLD = 0.25

#: Magnitude cap on every packed scalar (bounds, constraints, times) and
#: length cap on a single profile.  Individual values fitting ``int64`` is
#: not enough: derived *sums* (profile totals, aligned column sums, running
#: assignment totals) must stay exactly representable too.  With elements
#: bounded by 2^40 and profiles by 2^20 slices, every per-offer sum stays
#: below 2^61 — comfortably inside ``int64`` — so the NumPy backend can
#: promise bit-exact integer arithmetic; anything larger raises
#: ``OverflowError`` at construction and falls back to the reference
#: backend's Python big integers.
VALUE_LIMIT = 1 << 40
SLICE_LIMIT = 1 << 20

#: Cell cap for dense padded matrices (the series-difference and area-extent
#: kernels).  The kernels materialise up to ~5 transient arrays of this
#: shape (pads, extents, powers), so the cap is sized such that the total
#: stays in the hundreds of MB; populations beyond it are evaluated through
#: the scalar loops, which only need O(per-offer width) memory.
DENSE_CELL_LIMIT = 10_000_000

#: Per-offer int64 store names, gathered/grown together.
_OFFER_STORES = ("_tes", "_tls", "_cmin", "_cmax", "_durations")

#: Instance-dict names of every lazily cached derived quantity; popped on
#: each structural mutation so the next access recomputes over the new rows.
_DERIVED_CACHES = (
    "owner",
    "within",
    "profile_min",
    "profile_max",
    "time_flexibility",
    "energy_flexibility",
    "effective_amin",
    "effective_amax",
    "is_consumption",
    "is_production",
    "is_mixed",
    "area_sizes",
)


class ProfileMatrix:
    """A flex-offer population as packed ``(amin, amax)`` arrays.

    Parameters
    ----------
    flex_offers:
        The population, in evaluation order.  Order is preserved everywhere:
        row ``i`` of every per-offer array describes ``offers[i]``.

    Raises
    ------
    OverflowError
        When any bound or constraint does not fit ``int64`` (the library's
        scalar model allows arbitrary Python integers); callers fall back to
        the reference backend in that case.
    """

    #: Tombstone ratio in ``[0, 1]`` at which :meth:`tombstone` compacts
    #: automatically (``0`` compacts on every tombstone, ``1`` only once
    #: every row is dead).  Only relevant for matrices maintained live;
    #: tests set another ratio on the instance.
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD

    def __init__(self, flex_offers: Iterable[FlexOffer]) -> None:
        offers = list(flex_offers)
        arrays = self._sweep(offers)
        self._check_arrays(*arrays)
        self._offers: list[FlexOffer] = offers
        self._offers_tuple: Optional[tuple[FlexOffer, ...]] = None
        self._frozen = False
        self._dead = 0
        tes, tls, cmin, cmax, durations, amin, amax = arrays
        self._tes = tes
        self._tls = tls
        self._cmin = cmin
        self._cmax = cmax
        self._durations = durations
        n = len(offers)
        self._offsets = np.zeros(n + 1, dtype=_INT64)
        np.cumsum(durations, out=self._offsets[1:])
        self._amin = amin
        self._amax = amax
        self._alive = np.ones(n, dtype=bool)
        self.size = n
        self._refresh_views()

    # ------------------------------------------------------------------ #
    # Packing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sweep(offers: Sequence[FlexOffer]) -> tuple[np.ndarray, ...]:
        """One Python pass over ``offers`` into the seven packed arrays.

        The Python-level attribute reads dominate packing cost, so every
        per-offer and per-slice field is collected in one sweep before
        handing over to NumPy.  Shared by construction and :meth:`append`
        (which sweeps only the delta).
        """
        tes: list[int] = []
        tls: list[int] = []
        cmin: list[int] = []
        cmax: list[int] = []
        durations: list[int] = []
        amin: list[int] = []
        amax: list[int] = []
        for flex_offer in offers:
            tes.append(flex_offer.earliest_start)
            tls.append(flex_offer.latest_start)
            cmin.append(flex_offer.total_energy_min)
            cmax.append(flex_offer.total_energy_max)
            slices = flex_offer.slices
            durations.append(len(slices))
            for energy_slice in slices:
                amin.append(energy_slice.amin)
                amax.append(energy_slice.amax)
        return (
            np.array(tes, dtype=_INT64),
            np.array(tls, dtype=_INT64),
            np.array(cmin, dtype=_INT64),
            np.array(cmax, dtype=_INT64),
            np.array(durations, dtype=_INT64),
            np.array(amin, dtype=_INT64),
            np.array(amax, dtype=_INT64),
        )

    @staticmethod
    def _check_arrays(tes, tls, cmin, cmax, durations, amin, amax) -> None:
        """Reject rows whose *derived sums* could leave ``int64``."""
        for values in (tes, tls, cmin, cmax, amin, amax):
            if values.size and int(np.abs(values).max()) > VALUE_LIMIT:
                raise OverflowError(
                    f"flex-offer magnitudes beyond {VALUE_LIMIT} are not "
                    "packable without risking inexact int64 sums"
                )
        if durations.size and int(durations.max()) > SLICE_LIMIT:
            raise OverflowError(
                f"profiles longer than {SLICE_LIMIT} slices are not packable "
                "without risking inexact int64 sums"
            )

    def _refresh_views(self) -> None:
        """Re-point the public arrays at the live prefix of the stores.

        The kernels read plain attributes (no property indirection on the
        hot paths); after every structural mutation the attributes are
        re-sliced so they cover exactly the first ``size`` rows.
        """
        n = self.size
        total = int(self._offsets[n])
        self.tes = self._tes[:n]
        self.tls = self._tls[:n]
        self.cmin = self._cmin[:n]
        self.cmax = self._cmax[:n]
        self.durations = self._durations[:n]
        self.offsets = self._offsets[: n + 1]
        self.amin = self._amin[:total]
        self.amax = self._amax[:total]
        self.alive = self._alive[:n]

    def _invalidate_derived(self) -> None:
        for name in _DERIVED_CACHES:
            self.__dict__.pop(name, None)
        self._offers_tuple = None

    # ------------------------------------------------------------------ #
    # Incremental lifecycle
    # ------------------------------------------------------------------ #
    @property
    def offers(self) -> tuple[FlexOffer, ...]:
        """The packed offers, row-aligned (tombstoned rows included)."""
        if self._offers_tuple is None:
            self._offers_tuple = tuple(self._offers)
        return self._offers_tuple

    @property
    def dead_count(self) -> int:
        """Number of tombstoned rows awaiting compaction."""
        return self._dead

    @property
    def live_count(self) -> int:
        """Number of surviving (non-tombstoned) rows."""
        return self.size - self._dead

    def _require_mutable(self) -> None:
        if self._frozen:
            raise ValueError(
                "this ProfileMatrix is a frozen snapshot; mutate the live "
                "matrix it was taken from instead"
            )

    def _grow(self, extra_offers: int, extra_slices: int) -> None:
        """Ensure capacity for ``extra`` rows/slices (geometric growth)."""
        need = self.size + extra_offers
        if need > len(self._tes):
            new_cap = max(need, 2 * len(self._tes), 8)
            for name in _OFFER_STORES:
                store = getattr(self, name)
                grown = np.empty(new_cap, dtype=_INT64)
                grown[: self.size] = store[: self.size]
                setattr(self, name, grown)
            offsets = np.empty(new_cap + 1, dtype=_INT64)
            offsets[: self.size + 1] = self._offsets[: self.size + 1]
            self._offsets = offsets
            alive = np.empty(new_cap, dtype=bool)
            alive[: self.size] = self._alive[: self.size]
            self._alive = alive
        total = int(self._offsets[self.size])
        need = total + extra_slices
        if need > len(self._amin):
            new_cap = max(need, 2 * len(self._amin), 8)
            for name in ("_amin", "_amax"):
                store = getattr(self, name)
                grown = np.empty(new_cap, dtype=_INT64)
                grown[:total] = store[:total]
                setattr(self, name, grown)

    def _append_one(self, flex_offer: FlexOffer) -> None:
        """Scalar fast path of :meth:`append` for a single offer.

        The streaming engine appends one offer per arrival event; building
        seven one-element NumPy arrays (plus their vectorized validity
        checks) dominates that path, so the single-offer case validates
        with Python comparisons and writes scalars straight into the
        stores.  Semantics are identical to the batch path, including the
        validate-before-write atomicity.
        """
        tes = flex_offer.earliest_start
        tls = flex_offer.latest_start
        cmin = flex_offer.total_energy_min
        cmax = flex_offer.total_energy_max
        slices = flex_offer.slices
        limit = VALUE_LIMIT
        overflow = (
            tes > limit or tes < -limit
            or tls > limit or tls < -limit
            or cmin > limit or cmin < -limit
            or cmax > limit or cmax < -limit
        )
        if not overflow:
            for energy_slice in slices:
                amin = energy_slice.amin
                amax = energy_slice.amax
                if amin > limit or amin < -limit or amax > limit or amax < -limit:
                    overflow = True
                    break
        if overflow:
            raise OverflowError(
                f"flex-offer magnitudes beyond {limit} are not packable "
                "without risking inexact int64 sums"
            )
        if len(slices) > SLICE_LIMIT:
            raise OverflowError(
                f"profiles longer than {SLICE_LIMIT} slices are not packable "
                "without risking inexact int64 sums"
            )
        self._grow(1, len(slices))
        n = self.size
        self._tes[n] = tes
        self._tls[n] = tls
        self._cmin[n] = cmin
        self._cmax[n] = cmax
        self._durations[n] = len(slices)
        total = int(self._offsets[n])
        self._offsets[n + 1] = total + len(slices)
        for position, energy_slice in enumerate(slices, start=total):
            self._amin[position] = energy_slice.amin
            self._amax[position] = energy_slice.amax
        self._alive[n] = True
        self._offers.append(flex_offer)
        self.size = n + 1
        self._refresh_views()
        self._invalidate_derived()

    def append(self, flex_offers: Iterable[FlexOffer]) -> None:
        """Append offers at the end, amortized O(Δ).

        The new rows are swept and validated *before* anything is written,
        so an ``OverflowError`` (unpackable magnitudes) leaves the matrix
        exactly as it was — callers degrade to their scalar path without a
        torn state.
        """
        self._require_mutable()
        new = list(flex_offers)
        if not new:
            return
        if len(new) == 1:
            self._append_one(new[0])
            return
        arrays = self._sweep(new)
        self._check_arrays(*arrays)
        tes, tls, cmin, cmax, durations, amin, amax = arrays
        k = len(new)
        self._grow(k, len(amin))
        n = self.size
        self._tes[n : n + k] = tes
        self._tls[n : n + k] = tls
        self._cmin[n : n + k] = cmin
        self._cmax[n : n + k] = cmax
        self._durations[n : n + k] = durations
        np.cumsum(durations, out=self._offsets[n + 1 : n + k + 1])
        self._offsets[n + 1 : n + k + 1] += self._offsets[n]
        total = int(self._offsets[n])
        self._amin[total : total + len(amin)] = amin
        self._amax[total : total + len(amax)] = amax
        self._alive[n : n + k] = True
        self._offers.extend(new)
        self.size = n + k
        self._refresh_views()
        self._invalidate_derived()

    def tombstone(self, rows: Sequence[int]) -> Optional[np.ndarray]:
        """Mark rows dead in O(Δ); auto-compacts past the threshold.

        Returns the array of surviving old row indices when the tombstone
        ratio reached ``compact_threshold`` and a compaction ran, ``None``
        otherwise — callers maintaining row-aligned side structures (the
        streaming engine's value columns) gather by the same indices.
        Already-dead rows are ignored.  Tombstoning never touches row data,
        so the lazily cached derived arrays stay valid until compaction.
        """
        self._require_mutable()
        for row in rows:
            index = int(row)
            if not 0 <= index < self.size:
                raise IndexError(f"row {index} outside 0..{self.size - 1}")
            if self.alive[index]:
                self._alive[index] = False
                self._dead += 1
        if self._dead and self._dead >= self.compact_threshold * self.size:
            return self.compact()
        return None

    def compact(self) -> np.ndarray:
        """Drop tombstoned rows with one vectorized gather.

        Order-preserving, so the compacted arrays are bit-identical to a
        fresh pack of the surviving offers.  Returns the surviving old row
        indices (``arange(size)`` when nothing was dead).
        """
        self._require_mutable()
        if self._dead == 0:
            return np.arange(self.size, dtype=_INT64)
        keep = np.flatnonzero(self.alive)
        slice_keep = np.repeat(self.alive, self.durations)
        self._tes = self.tes[keep]
        self._tls = self.tls[keep]
        self._cmin = self.cmin[keep]
        self._cmax = self.cmax[keep]
        durations = self.durations[keep]
        self._durations = durations
        self._amin = self.amin[slice_keep]
        self._amax = self.amax[slice_keep]
        n = len(keep)
        self._offsets = np.zeros(n + 1, dtype=_INT64)
        np.cumsum(durations, out=self._offsets[1:])
        self._alive = np.ones(n, dtype=bool)
        self._offers = [self._offers[int(index)] for index in keep]
        self._dead = 0
        self.size = n
        self._refresh_views()
        self._invalidate_derived()
        return keep

    def snapshot(self) -> "ProfileMatrix":
        """A frozen zero-copy view of the current rows (compact first).

        Row data is never mutated in place — :meth:`append` writes beyond
        the snapshot's views and :meth:`compact` replaces the backing
        stores — so the snapshot stays bit-stable while the live matrix
        keeps evolving.  Snapshots refuse further mutation (they share
        storage with the live matrix) and are what the streaming engine's
        :meth:`~repro.stream.StreamingEngine.live_matrix` returns.
        """
        if self._dead:
            raise ValueError("compact() before snapshotting a live matrix")
        clone = object.__new__(ProfileMatrix)
        clone._offers = self._offers[:]
        clone._offers_tuple = None
        clone._frozen = True
        clone._dead = 0
        clone._tes = self.tes
        clone._tls = self.tls
        clone._cmin = self.cmin
        clone._cmax = self.cmax
        clone._durations = self.durations
        clone._offsets = self.offsets
        clone._amin = self.amin
        clone._amax = self.amax
        clone._alive = self.alive
        clone.size = self.size
        clone._refresh_views()
        return clone

    # ------------------------------------------------------------------ #
    # Packed indexing helpers
    # ------------------------------------------------------------------ #
    @property
    def starts(self) -> np.ndarray:
        """Segment start indices (``offsets`` without the trailing total)."""
        return self.offsets[:-1]

    @cached_property
    def owner(self) -> np.ndarray:
        """Offer index of every packed slice position."""
        return np.repeat(np.arange(self.size, dtype=_INT64), self.durations)

    @cached_property
    def within(self) -> np.ndarray:
        """Slice index (0-based, per offer) of every packed position."""
        total = int(self.offsets[-1]) if self.size else 0
        return np.arange(total, dtype=_INT64) - np.repeat(
            self.starts, self.durations
        )

    def _reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """Per-offer reduction of a packed array (empty-safe)."""
        if self.size == 0:
            return np.zeros(0, dtype=values.dtype)
        return ufunc.reduceat(values, self.starts)

    # ------------------------------------------------------------------ #
    # Per-offer derived quantities
    # ------------------------------------------------------------------ #
    @cached_property
    def profile_min(self) -> np.ndarray:
        """Sum of the per-slice minima per offer."""
        return self._reduce(np.add, self.amin)

    @cached_property
    def profile_max(self) -> np.ndarray:
        """Sum of the per-slice maxima per offer."""
        return self._reduce(np.add, self.amax)

    @cached_property
    def time_flexibility(self) -> np.ndarray:
        """``tls − tes`` per offer."""
        return self.tls - self.tes

    @cached_property
    def energy_flexibility(self) -> np.ndarray:
        """``cmax − cmin`` per offer."""
        return self.cmax - self.cmin

    # ------------------------------------------------------------------ #
    # Effective bounds under the total constraints
    # ------------------------------------------------------------------ #
    @cached_property
    def effective_amin(self) -> np.ndarray:
        """Packed effective slice minima (``FlexOffer.effective_slice_bounds``)."""
        rest_max = self.profile_max[self.owner] - self.amax
        return np.maximum(self.amin, self.cmin[self.owner] - rest_max)

    @cached_property
    def effective_amax(self) -> np.ndarray:
        """Packed effective slice maxima."""
        rest_min = self.profile_min[self.owner] - self.amin
        return np.minimum(self.amax, self.cmax[self.owner] - rest_min)

    # ------------------------------------------------------------------ #
    # Sign classification (Section 2)
    # ------------------------------------------------------------------ #
    @cached_property
    def is_consumption(self) -> np.ndarray:
        """Per-offer mask: every slice non-negative (checked first, like
        :attr:`FlexOffer.kind` — an all-zero offer classifies as consumption)."""
        return self._reduce(np.minimum, self.amin) >= 0

    @cached_property
    def is_production(self) -> np.ndarray:
        """Per-offer mask: not consumption and every slice non-positive."""
        return ~self.is_consumption & (self._reduce(np.maximum, self.amax) <= 0)

    @cached_property
    def is_mixed(self) -> np.ndarray:
        """Per-offer mask: neither pure consumption nor pure production."""
        return ~self.is_consumption & ~self.is_production

    # ------------------------------------------------------------------ #
    # Area geometry (Definitions 9–10)
    # ------------------------------------------------------------------ #
    @cached_property
    def area_sizes(self) -> list[int]:
        """Union-of-areas size per offer (``flexoffer_area_size``, batch).

        Per-column extents are accumulated across the start shifts with one
        masked ``maximum``/``minimum`` sweep per shift, each covering every
        offer simultaneously; all arithmetic is integer, so the results
        equal the scalar path exactly.  Populations whose padded column
        space would exceed :data:`DENSE_CELL_LIMIT` cells are evaluated
        through the scalar loop instead.  Cached — the absolute and relative
        area measures both need the sizes during one ``evaluate_set`` pass.
        """
        from ..core.area import flexoffer_area_size

        if self.size == 0:
            return []
        duration_max = int(self.durations.max())
        shift_max = int(self.time_flexibility.max())
        width = duration_max + shift_max
        # Beyond 2^21 columns a single offer's area (width × extent, extents
        # bounded by 2·VALUE_LIMIT) could leave the exactly-representable
        # int64 range, so those populations take the big-integer scalar loop
        # alongside the dense-matrix memory cap.
        if self.size * width > DENSE_CELL_LIMIT or width > (1 << 21):
            return [flexoffer_area_size(flex_offer) for flex_offer in self.offers]
        # Per-offer padded profile of the column contributions: the padding
        # value 0 is neutral (an uncovered column spans no cells either way).
        high_pad = np.zeros((self.size, duration_max), dtype=_INT64)
        low_pad = np.zeros((self.size, duration_max), dtype=_INT64)
        high_pad[self.owner, self.within] = np.maximum(self.effective_amax, 0)
        low_pad[self.owner, self.within] = np.minimum(self.effective_amin, 0)
        extent_high = np.zeros((self.size, width), dtype=_INT64)
        extent_low = np.zeros((self.size, width), dtype=_INT64)
        time_flex = self.time_flexibility
        for shift in range(shift_max + 1):
            active = (time_flex >= shift)[:, None]
            window_high = extent_high[:, shift : shift + duration_max]
            np.maximum(window_high, high_pad, out=window_high, where=active)
            window_low = extent_low[:, shift : shift + duration_max]
            np.minimum(window_low, low_pad, out=window_low, where=active)
        return (extent_high.sum(axis=1) - extent_low.sum(axis=1)).tolist()

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def take(self, indices: Sequence[int]) -> "ProfileMatrix":
        """A new matrix over the offers at ``indices`` (order preserved).

        Used when a measure supports only part of the population; rebuilt
        from the retained offers — simple, and the subset case is rare
        enough that cleverer packed gathering is not worth its surface.
        """
        return ProfileMatrix([self._offers[int(i)] for i in indices])

    def profiles(self, packed: np.ndarray) -> list[tuple[int, ...]]:
        """Split a packed per-slice array back into per-offer tuples."""
        bounds = self.offsets.tolist()
        values = packed.tolist()
        return [
            tuple(values[bounds[i] : bounds[i + 1]]) for i in range(self.size)
        ]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dead = f", {self._dead} dead" if self._dead else ""
        return (
            f"ProfileMatrix({self.size} offers, "
            f"{int(self.offsets[-1])} slices{dead})"
        )
