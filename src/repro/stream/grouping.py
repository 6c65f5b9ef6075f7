"""Online grid index: incremental grouping of live flex-offers.

The batch pipeline buckets a whole population onto the two-dimensional
``(tes, tf)`` grid in one pass (:func:`repro.aggregation.group_by_grid`).
The online index maintains the same buckets under a stream of arrivals and
evictions with O(1) work per event: each live offer sits in exactly one grid
cell (computed with the *same* :func:`repro.aggregation.grouping.grid_key`
the batch path uses), and each cell keeps its members in arrival order —
Python dictionaries preserve insertion order under deletion, which is
precisely the "surviving offers in original order" semantics the batch
equivalence guarantee needs.

``max_group_size`` chunking is applied lazily at snapshot time (it is a view
concern, not a state concern): re-chunking on every eviction would turn O(1)
maintenance into O(cell size) for no benefit.  :meth:`OnlineGridIndex.cell_groups`
is the one place that applies it; a whole-cell group is reported by its key
alone, so a reader holding per-cell state never lists the cell's members.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

from ..aggregation.grouping import GroupingParameters, grid_key
from ..core.flexoffer import FlexOffer
from .events import StreamError

__all__ = ["OnlineGridIndex"]

CellKey = tuple[int, int]


class OnlineGridIndex:
    """Incremental ``(tes, tf)`` grid over the live flex-offer population.

    Parameters
    ----------
    parameters:
        The same grouping tolerances the batch :func:`group_by_grid` takes;
        snapshots of the index are guaranteed to equal the batch grouping of
        the surviving offers (in arrival order).
    """

    def __init__(self, parameters: GroupingParameters = GroupingParameters()) -> None:
        self.parameters = parameters
        self._cells: dict[CellKey, dict[str, FlexOffer]] = {}
        self._locations: dict[str, CellKey] = {}

    # ------------------------------------------------------------------ #
    # Maintenance (O(1) per event)
    # ------------------------------------------------------------------ #
    def insert(self, offer_id: str, flex_offer: FlexOffer) -> CellKey:
        """Insert a live offer; returns the grid cell it landed in."""
        if offer_id in self._locations:
            raise StreamError(f"offer {offer_id!r} is already in the index")
        key = grid_key(flex_offer, self.parameters)
        self._cells.setdefault(key, {})[offer_id] = flex_offer
        self._locations[offer_id] = key
        return key

    def evict(self, offer_id: str) -> tuple[CellKey, FlexOffer]:
        """Remove an offer; returns ``(cell, offer)``.  Empty cells are dropped."""
        try:
            key = self._locations.pop(offer_id)
        except KeyError:
            raise StreamError(f"offer {offer_id!r} is not in the index") from None
        cell = self._cells[key]
        flex_offer = cell.pop(offer_id)
        if not cell:
            del self._cells[key]
        return key, flex_offer

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def get(self, offer_id: str) -> FlexOffer:
        """The live offer with the given id."""
        try:
            return self._cells[self._locations[offer_id]][offer_id]
        except KeyError:
            raise StreamError(f"offer {offer_id!r} is not in the index") from None

    def cell_of(self, offer_id: str) -> CellKey:
        """The grid cell the offer currently sits in."""
        try:
            return self._locations[offer_id]
        except KeyError:
            raise StreamError(f"offer {offer_id!r} is not in the index") from None

    def __contains__(self, offer_id: str) -> bool:
        return offer_id in self._locations

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self) -> Iterator[str]:
        return iter(self._locations)

    @property
    def cell_count(self) -> int:
        """Number of non-empty grid cells."""
        return len(self._cells)

    # ------------------------------------------------------------------ #
    # Snapshots (batch-equivalent views)
    # ------------------------------------------------------------------ #
    def cell_groups(self) -> Iterator[tuple[CellKey, Optional[list[FlexOffer]]]]:
        """The live groups in batch order, as ``(cell, chunk)`` pairs.

        Cells are walked in sorted key order and chunked by
        ``max_group_size`` exactly like :func:`group_by_grid`.  A group that
        is a whole cell comes as ``(cell, None)`` and costs only the cell's
        size: no member list is built.  Each chunk of an oversized cell
        comes as ``(cell, members)``, the chunk's offers in arrival order.
        """
        size = self.parameters.max_group_size
        cells = self._cells
        for key in sorted(cells):
            cell = cells[key]
            if size and len(cell) > size:
                members = list(cell.values())
                for start in range(0, len(members), size):
                    yield key, members[start:start + size]
            else:
                yield key, None

    def groups(self) -> list[list[FlexOffer]]:
        """The live groups as plain flex-offer lists (batch-identical)."""
        return [
            list(self._cells[key].values()) if chunk is None else chunk
            for key, chunk in self.cell_groups()
        ]
