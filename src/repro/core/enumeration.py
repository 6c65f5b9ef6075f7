"""Enumeration and counting of flex-offer assignments.

The assignment flexibility measure (Definition 8 of the paper) is defined as
the *number* of possible assignments of a flex-offer,

    ``(tls − tes + 1) · Π_i (s(i).amax − s(i).amin + 1)``,

which deliberately ignores the total energy constraints (Section 4 of the
paper notes this explicitly).  This module provides that closed-form count,
an exact count that *does* honour the total constraints (useful for the
library's extended experiments), and lazy generators over the assignment set
``L(f)`` so tests and small examples can materialise assignments without the
combinatorial blow-up ever being forced on large flex-offers.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import product
from typing import Optional

from .assignment import Assignment
from .flexoffer import FlexOffer

__all__ = [
    "count_assignments",
    "count_assignments_constrained",
    "count_profiles_constrained",
    "enumerate_assignments",
    "enumerate_profiles",
    "enumerate_start_times",
]


def count_assignments(flex_offer: FlexOffer) -> int:
    """Number of assignments per Definition 8 (ignores ``cmin``/``cmax``).

    Examples
    --------
    >>> count_assignments(FlexOffer(0, 2, [(0, 2)]))
    9
    """
    count = flex_offer.latest_start - flex_offer.earliest_start + 1
    for energy_slice in flex_offer.slices:
        count *= energy_slice.count
    return count


def count_profiles_constrained(flex_offer: FlexOffer) -> int:
    """Number of distinct slice-value profiles honouring the total constraints.

    Computed with a dynamic program over the running total, so the cost is
    ``O(slices · total_range)`` rather than the product of slice counts.
    """
    totals: dict[int, int] = {0: 1}
    for energy_slice in flex_offer.slices:
        updated: dict[int, int] = {}
        for partial_total, ways in totals.items():
            for value in range(energy_slice.amin, energy_slice.amax + 1):
                key = partial_total + value
                updated[key] = updated.get(key, 0) + ways
        totals = updated
    return sum(
        ways
        for total, ways in totals.items()
        if flex_offer.cmin <= total <= flex_offer.cmax
    )


def count_assignments_constrained(flex_offer: FlexOffer) -> int:
    """Exact size of ``L(f)``: start-time choices × total-constraint-feasible profiles."""
    start_choices = flex_offer.latest_start - flex_offer.earliest_start + 1
    return start_choices * count_profiles_constrained(flex_offer)


def enumerate_start_times(flex_offer: FlexOffer) -> range:
    """All admissible start times ``[tes, tls]``."""
    return range(flex_offer.earliest_start, flex_offer.latest_start + 1)


def enumerate_profiles(
    flex_offer: FlexOffer, respect_total_constraints: bool = True
) -> Iterator[tuple[int, ...]]:
    """Lazily yield slice-value profiles of the flex-offer.

    Parameters
    ----------
    respect_total_constraints:
        When ``True`` (default) only profiles whose total energy lies inside
        ``[cmin, cmax]`` are yielded, matching Definition 2.  When ``False``
        the raw cross product of the slice ranges is yielded, matching the
        universe counted by Definition 8.
    """
    ranges = [range(s.amin, s.amax + 1) for s in flex_offer.slices]
    for profile in product(*ranges):
        if respect_total_constraints:
            total = sum(profile)
            if not flex_offer.cmin <= total <= flex_offer.cmax:
                continue
        yield profile


def enumerate_assignments(
    flex_offer: FlexOffer,
    respect_total_constraints: bool = True,
    limit: Optional[int] = None,
) -> Iterator[Assignment]:
    """Lazily yield (valid) assignments of the flex-offer.

    Assignments are produced in lexicographic order of
    ``(start_time, profile)``.  ``limit`` caps the number of yielded
    assignments, guarding callers against accidentally materialising the
    combinatorial assignment set of a large flex-offer.
    """
    produced = 0
    profiles = list(enumerate_profiles(flex_offer, respect_total_constraints))
    for start_time in enumerate_start_times(flex_offer):
        for profile in profiles:
            if limit is not None and produced >= limit:
                return
            yield Assignment(flex_offer, start_time, profile)
            produced += 1


@lru_cache(maxsize=4096)
def _slice_count_product(counts: tuple[int, ...]) -> int:
    result = 1
    for count in counts:
        result *= count
    return result


def count_assignments_fast(flex_offer: FlexOffer) -> int:
    """Cached variant of :func:`count_assignments` used by benchmark sweeps."""
    start_choices = flex_offer.latest_start - flex_offer.earliest_start + 1
    counts = tuple(s.count for s in flex_offer.slices)
    return start_choices * _slice_count_product(counts)
