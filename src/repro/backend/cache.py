"""Fingerprint-keyed cache of packed population representations.

Packing a population into a :class:`~repro.backend.matrix.ProfileMatrix` is
a pure-Python sweep over every offer and every slice — for stable
populations evaluated repeatedly (a dashboard polling ``evaluate_set``, a
scheduler scoring candidate schedules against the same offers, the sharded
backend re-visiting its shards) it dominates the wall-clock of the
vectorized backends.  :class:`MatrixCache` memoises the packed matrix keyed
on the *content* of the population: the tuple of
:attr:`~repro.core.flexoffer.FlexOffer.fingerprint` values in population
order.  Fingerprints are cached on the (frozen) offers themselves, so a key
is O(population) integer reads instead of an O(slices) packing pass.

Because the key derives from the population's content, a cached matrix can
never be *stale* — a changed population simply has a different key — so the
cache needs no invalidation: the bounded LRU evicts cold entries on its own.
It serves explicit populations only (an ``evaluate_set`` call, an explicit
request's offers, trade lots).  The streaming engine's live population never
passes through it: the engine owns that packed state and answers from it
directly.

The cache is shared process-wide (:data:`matrix_cache`) and thread-safe: a
lock guards the LRU structure, and :func:`~repro.backend.use_backend`
contexts on different threads can interleave freely — the packed matrix for
a given population is identical whichever backend requested it first.

Caveat: a fingerprint is a 64-bit BLAKE2b digest of the offer's structure,
so two *different* offers aliasing a cache entry would require a digest
collision — not constructible in practice.  The library already treats
fingerprint equality as structural identity (the streaming grid index and
replay adapters key on it); the cache inherits that contract.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.flexoffer import FlexOffer

__all__ = [
    "MatrixCache",
    "matrix_cache",
    "cached_matrix",
    "matrix_weight",
    "DEFAULT_CAPACITY",
    "DEFAULT_CELL_BUDGET",
]

#: Default number of retained populations.  Sized for the common shapes — a
#: handful of whole populations plus one shard set — while bounding
#: worst-case retention (a cached matrix keeps its offers alive).
DEFAULT_CAPACITY = 32

#: Default total packed slices retained across all entries.  An entry-count
#: bound alone would let 32 million-offer populations pin gigabytes; this
#: caps retention by size too (a matrix's arrays plus its offer tuple scale
#: with its slice count).  At 8M cells the worst case is a few hundred MB
#: while still holding several 1M-offer populations or a full shard set.
DEFAULT_CELL_BUDGET = 8_000_000


class MatrixCache:
    """A bounded, thread-safe, fingerprint-keyed LRU of packed matrices.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries; ``0`` disables the cache (every
        :meth:`get` builds without storing).
    cell_budget:
        Maximum total entry *weight* (packed slice count, reported by the
        caller's ``weigher``); bounds retained bytes, not just entry count.
        An entry heavier than the whole budget is simply not retained.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if cell_budget < 0:
            raise ValueError(f"cell budget must be >= 0, got {cell_budget}")
        self.capacity = capacity
        self.cell_budget = cell_budget
        self._lock = threading.Lock()
        self._weight = 0
        self._entries: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_of(flex_offers: Iterable["FlexOffer"]) -> tuple:
        """The cache key of a population: ``(fingerprint, name)`` per offer.

        The name rides along because fingerprints are deliberately
        name-blind while a cached matrix hands its ``offers`` tuple to
        name-visible extension points (an overridden ``supports``, custom
        ``batch_values`` hooks): a structurally identical but renamed
        population must not be served another population's offer objects.
        """
        return tuple(
            (flex_offer.fingerprint, flex_offer.name) for flex_offer in flex_offers
        )

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(
        self,
        flex_offers: Sequence["FlexOffer"],
        builder: Callable[[Sequence["FlexOffer"]], object],
        weigher: Optional[Callable[[object], int]] = None,
    ) -> object:
        """The cached value for the population, building (and storing) on miss.

        ``builder`` runs *outside* the lock — packing is the expensive part,
        and two threads racing on the same cold key at worst both build and
        one result wins.  A builder that raises (e.g. ``OverflowError`` for
        unpackable populations) stores nothing, so the caller's fallback
        path is re-attempted on every call, exactly like the uncached code.
        ``weigher`` reports the built value's size (packed slices) toward
        :attr:`cell_budget`; without one an entry weighs nothing.
        """
        if self.capacity == 0:
            return builder(flex_offers)
        key = self.key_of(flex_offers)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached[0]
            self.misses += 1
        built = builder(flex_offers)
        weight = int(weigher(built)) if weigher is not None else 0
        if weight > self.cell_budget:
            # Could never fit: storing it would only evict entries that do.
            return built
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:  # lost a build race: replace cleanly
                self._weight -= previous[1]
            self._entries[key] = (built, weight)
            self._weight += weight
            while self._entries and (
                len(self._entries) > self.capacity
                or self._weight > self.cell_budget
            ):
                _, (_, evicted_weight) = self._entries.popitem(last=False)
                self._weight -= evicted_weight
                self.evictions += 1
        return built

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped (stats survive)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._weight = 0
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """A snapshot of the counters (hits / misses / evictions / size)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "cell_budget": self.cell_budget,
                "size": len(self._entries),
                "weight": self._weight,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatrixCache({len(self._entries)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


#: The process-wide cache shared by every matrix-building backend that was
#: not handed a session-scoped cache of its own.
matrix_cache = MatrixCache()


def matrix_weight(matrix) -> int:
    """An entry's weight toward ``cell_budget``: its packed slice count."""
    return int(matrix.offsets[-1]) if matrix.size else 0


def cached_matrix(
    flex_offers: Sequence["FlexOffer"], cache: Optional[MatrixCache] = None
):
    """The packed :class:`ProfileMatrix` of a population, via a cache.

    ``cache`` selects the store — a session-scoped :class:`MatrixCache`
    injected by the service layer, or (``None``) the process-wide
    :data:`matrix_cache`.  Imports :mod:`repro.backend.matrix` lazily so
    this module stays importable without NumPy (the service layer builds
    a session cache even when only the reference backend is registered).
    Propagates the packer's ``OverflowError`` uncached, preserving the
    callers' fall-back-to-reference semantics.  Entries
    weigh their packed slice count, so retention is bounded in bytes
    (``cell_budget``), not just entries.
    """
    from .matrix import ProfileMatrix

    store = cache if cache is not None else matrix_cache
    return store.get(flex_offers, ProfileMatrix, weigher=matrix_weight)
