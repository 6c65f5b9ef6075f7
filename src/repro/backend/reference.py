"""The reference compute backend: the library's original per-object code.

Every operation is a plain Python loop over :class:`FlexOffer` objects,
delegating to the exact scalar entry points (``measure.value``,
``effective_slice_bounds``, ``assignment_violations``) the library shipped
with before the backend layer existed.  This backend *is* the semantics —
the NumPy backend is pinned to it by the differential conformance suite —
and it is always available, keeping the library dependency-free.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, ClassVar

from ..core.flexoffer import FlexOffer
from .dispatch import ComputeBackend, population_offers, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..measures.base import FlexibilityMeasure

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ComputeBackend):
    """Pure-Python loops over the scalar implementations."""

    name: ClassVar[str] = "reference"

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #
    def measure_values(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence[FlexOffer]
    ) -> list[float]:
        return [measure.value(flex_offer) for flex_offer in flex_offers]

    def evaluate_population(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Sequence[FlexOffer],
        skip_unsupported: bool = True,
    ) -> tuple[dict[str, float], list[str]]:
        values: dict[str, float] = {}
        skipped: list[str] = []
        for measure in measures:
            supported = all(measure.supports(f) for f in flex_offers)
            if not supported and skip_unsupported:
                skipped.append(measure.key)
                continue
            if self._overrides_set_value(measure):
                values[measure.key] = measure.set_value(flex_offers)
            else:
                values[measure.key] = measure.combine_values(
                    self.measure_values(measure, flex_offers)
                )
        return values, skipped

    def per_offer_values(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Sequence[FlexOffer],
    ) -> list[dict[str, float]]:
        return [
            {
                measure.key: measure.value(flex_offer)
                for measure in measures
                if measure.supports(flex_offer)
            }
            for flex_offer in flex_offers
        ]

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate_columns(
        self, members: Sequence[FlexOffer]
    ) -> tuple[int, list[int], list[tuple[int, int]]]:
        anchor = min(member.earliest_start for member in members)
        offsets = [member.earliest_start - anchor for member in members]
        horizon = max(
            offset + member.duration for offset, member in zip(offsets, members)
        )
        columns = [[0, 0] for _ in range(horizon)]
        for offset, member in zip(offsets, members):
            for index, bound in enumerate(member.effective_slice_bounds()):
                column = columns[offset + index]
                column[0] += bound.amin
                column[1] += bound.amax
        return anchor, offsets, [(low, high) for low, high in columns]

    # ------------------------------------------------------------------ #
    # Assignments
    # ------------------------------------------------------------------ #
    def feasible_profiles(
        self, flex_offers: Sequence[FlexOffer], target: str
    ) -> tuple[list[tuple[int, ...]], list[bool]]:
        from ..core.assignment import _feasible_profile, assignment_violations

        offers = population_offers(flex_offers)
        profiles = [_feasible_profile(flex_offer, target) for flex_offer in offers]
        feasible = [
            not assignment_violations(
                flex_offer,
                flex_offer.earliest_start
                if target == "min"
                else flex_offer.latest_start,
                profile,
            )
            for flex_offer, profile in zip(offers, profiles)
        ]
        return profiles, feasible

    def assignment_feasibility(
        self,
        flex_offers: Sequence[FlexOffer],
        starts: Sequence[int],
        values: Sequence[Sequence[int]],
    ) -> list[bool]:
        from ..core.assignment import assignment_violations

        return [
            not assignment_violations(flex_offer, start, tuple(profile))
            for flex_offer, start, profile in zip(flex_offers, starts, values)
        ]


register_backend(ReferenceBackend())
