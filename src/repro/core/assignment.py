"""Flex-offer assignments (Definition 2 of the paper).

An *assignment* instantiates a flex-offer: it fixes the actual start time and
an exact energy amount for every slice, subject to the per-slice ranges, the
total energy constraints, and the start-time flexibility interval.  The set
of all valid assignments of a flex-offer ``f`` is written ``L(f)`` in the
paper; :func:`repro.core.enumeration.enumerate_assignments` iterates it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidAssignmentError
from .flexoffer import FlexOffer
from .timeseries import TimeSeries

__all__ = [
    "Assignment",
    "validate_assignment",
    "assignment_violations",
    "batch_feasible_profiles",
    "batch_assignment_feasibility",
    "batch_extreme_assignments",
]


def assignment_violations(
    flex_offer: FlexOffer, start_time: int, values: Sequence[int]
) -> list[str]:
    """Return a human-readable list of Definition 2 violations (empty if valid).

    The three constraint groups checked are exactly those of Definition 2:

    1. the start time must lie inside ``[tes, tls]``;
    2. every slice value must lie inside its slice's energy range;
    3. the total energy must lie inside ``[cmin, cmax]``.
    """
    violations: list[str] = []
    if isinstance(start_time, bool) or not isinstance(start_time, int):
        violations.append(f"start time must be an int, got {start_time!r}")
        return violations
    if not flex_offer.earliest_start <= start_time <= flex_offer.latest_start:
        violations.append(
            f"start time {start_time} outside start-time interval "
            f"[{flex_offer.earliest_start}, {flex_offer.latest_start}]"
        )
    if len(values) != flex_offer.duration:
        violations.append(
            f"expected {flex_offer.duration} slice values, got {len(values)}"
        )
        return violations
    for index, (value, energy_slice) in enumerate(zip(values, flex_offer.slices)):
        if isinstance(value, bool) or not isinstance(value, int):
            violations.append(f"slice {index}: value must be an int, got {value!r}")
        elif value not in energy_slice:
            violations.append(
                f"slice {index}: value {value} outside range {energy_slice}"
            )
    total = sum(values)
    if not flex_offer.cmin <= total <= flex_offer.cmax:
        violations.append(
            f"total energy {total} outside total constraints "
            f"[{flex_offer.cmin}, {flex_offer.cmax}]"
        )
    return violations


def validate_assignment(
    flex_offer: FlexOffer, start_time: int, values: Sequence[int]
) -> None:
    """Raise :class:`InvalidAssignmentError` if the assignment is not valid."""
    violations = assignment_violations(flex_offer, start_time, values)
    if violations:
        raise InvalidAssignmentError(
            f"invalid assignment of {flex_offer}: " + "; ".join(violations)
        )


@dataclass(frozen=True)
class Assignment:
    """A valid instantiation of a flex-offer.

    Parameters
    ----------
    flex_offer:
        The flex-offer being instantiated.
    start_time:
        The actual start time, inside ``[tes, tls]``.
    values:
        The exact energy amount for every slice of the flex-offer.

    Construction validates all Definition 2 constraints and raises
    :class:`~repro.core.errors.InvalidAssignmentError` on violation.

    Examples
    --------
    >>> f = FlexOffer(1, 6, [(1, 3), (2, 4), (0, 5), (0, 3)])
    >>> a = Assignment(f, 2, (2, 3, 1, 2))
    >>> a.total_energy
    8
    >>> a.series.to_dict()
    {2: 2, 3: 3, 4: 1, 5: 2}
    """

    flex_offer: FlexOffer
    start_time: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        normalized = tuple(self.values)
        object.__setattr__(self, "values", normalized)
        validate_assignment(self.flex_offer, self.start_time, normalized)

    # ------------------------------------------------------------------ #
    # Time-series view
    # ------------------------------------------------------------------ #
    @property
    def series(self) -> TimeSeries:
        """The assignment as a :class:`TimeSeries` anchored at the start time."""
        return TimeSeries(self.start_time, self.values)

    @property
    def end_time(self) -> int:
        """Absolute time of the last slice (inclusive)."""
        return self.start_time + len(self.values) - 1

    @property
    def total_energy(self) -> int:
        """Sum of the slice energy amounts."""
        return sum(self.values)

    @property
    def duration(self) -> int:
        """Number of slices."""
        return len(self.values)

    def energy_at(self, time: int) -> int:
        """Energy amount at absolute time ``time`` (0 outside the profile)."""
        return int(self.series[time])

    # ------------------------------------------------------------------ #
    # Derived assignments
    # ------------------------------------------------------------------ #
    def shifted(self, delta: int) -> "Assignment":
        """Return the same profile started ``delta`` time units later.

        Raises :class:`InvalidAssignmentError` if the new start time falls
        outside the flex-offer's start-time flexibility interval.
        """
        return Assignment(self.flex_offer, self.start_time + delta, self.values)

    def with_values(self, values: Sequence[int]) -> "Assignment":
        """Return an assignment at the same start time with different values."""
        return Assignment(self.flex_offer, self.start_time, tuple(values))

    # ------------------------------------------------------------------ #
    # Canonical constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def trusted(
        cls, flex_offer: FlexOffer, start_time: int, values: Sequence[int]
    ) -> "Assignment":
        """Construct without re-running Definition 2 validation.

        For callers that already established validity in bulk — a ``True``
        verdict from :func:`batch_assignment_feasibility` (or from a
        backend's ``feasible_profiles`` screen) for exactly this
        ``(flex_offer, start_time, values)`` triple — re-validating inside
        ``__init__`` would repeat the per-slice scan per object and undo the
        batch win.  The schedulers use this after screening a whole
        generation of candidates in one backend call.  Passing an unchecked
        triple breaks the class invariant; when in doubt, use the normal
        constructor.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "flex_offer", flex_offer)
        object.__setattr__(instance, "start_time", start_time)
        object.__setattr__(instance, "values", tuple(values))
        return instance

    @classmethod
    def earliest_minimum(cls, flex_offer: FlexOffer) -> "Assignment":
        """The earliest-start assignment using the *effective* slice minima.

        This is the valid counterpart of Definition 5: the paper's minimum
        assignment uses raw slice minima, which may violate a strictly
        positive ``cmin``; this constructor tops slices up (in profile order)
        until the total reaches ``cmin`` so the result is always a member of
        ``L(f)``.
        """
        values = _feasible_profile(flex_offer, target="min")
        return cls(flex_offer, flex_offer.earliest_start, values)

    @classmethod
    def latest_maximum(cls, flex_offer: FlexOffer) -> "Assignment":
        """The latest-start assignment using the *effective* slice maxima.

        Valid counterpart of Definition 6 (values are trimmed down, in
        profile order, until the total drops to ``cmax``).
        """
        values = _feasible_profile(flex_offer, target="max")
        return cls(flex_offer, flex_offer.latest_start, values)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = f" of {self.flex_offer.name!r}" if self.flex_offer.name else ""
        return (
            f"Assignment{label}(start={self.start_time}, "
            f"values={list(self.values)}, total={self.total_energy})"
        )


def batch_feasible_profiles(
    flex_offers: Sequence[FlexOffer], target: str = "min"
) -> list[tuple[int, ...]]:
    """Extreme feasible profiles for a whole population at once.

    ``target="min"`` returns each offer's minimal-total profile (the values
    of :meth:`Assignment.earliest_minimum`), ``"max"`` the maximal-total
    profile (:meth:`Assignment.latest_maximum`).  Dispatches to the active
    compute backend, so the NumPy backend evaluates the greedy top-up /
    trim-down for every offer in a handful of array operations.
    """
    from ..backend.dispatch import get_backend

    if target not in ("min", "max"):
        raise ValueError(f"unknown target {target!r}")
    return get_backend().feasible_profiles(list(flex_offers), target)[0]


def batch_assignment_feasibility(
    flex_offers: Sequence[FlexOffer],
    starts: Sequence[int],
    values: Sequence[Sequence[int]],
) -> list[bool]:
    """Definition 2 validity of one candidate assignment per flex-offer.

    Equivalent to ``[not assignment_violations(f, s, v) for ...]`` but
    evaluated through the active compute backend — the bulk form schedulers
    and market clearing use to screen candidate schedules.
    """
    from ..backend.dispatch import get_backend

    flex_offers = list(flex_offers)
    if not len(flex_offers) == len(starts) == len(values):
        raise InvalidAssignmentError(
            f"mismatched batch lengths: {len(flex_offers)} flex-offers, "
            f"{len(starts)} start times, {len(values)} profiles"
        )
    return get_backend().assignment_feasibility(flex_offers, starts, values)


def batch_extreme_assignments(
    flex_offers: Sequence[FlexOffer],
) -> list[tuple["Assignment", "Assignment"]]:
    """The (earliest-minimum, latest-maximum) assignment pair per offer.

    The two extreme members of ``L(f)`` for every offer, with the profile
    arithmetic done in bulk by the active backend; only the final
    :class:`Assignment` construction (validation included) stays per-object.
    """
    flex_offers = list(flex_offers)
    minima = batch_feasible_profiles(flex_offers, "min")
    maxima = batch_feasible_profiles(flex_offers, "max")
    return [
        (
            Assignment(flex_offer, flex_offer.earliest_start, low),
            Assignment(flex_offer, flex_offer.latest_start, high),
        )
        for flex_offer, low, high in zip(flex_offers, minima, maxima)
    ]


def _feasible_profile(flex_offer: FlexOffer, target: str) -> tuple[int, ...]:
    """A minimal-total or maximal-total profile satisfying the total constraints."""
    if target == "min":
        values = list(flex_offer.minimum_profile())
        deficit = flex_offer.cmin - sum(values)
        if deficit > 0:
            for index, energy_slice in enumerate(flex_offer.slices):
                if deficit <= 0:
                    break
                headroom = energy_slice.amax - values[index]
                bump = min(headroom, deficit)
                values[index] += bump
                deficit -= bump
    elif target == "max":
        values = list(flex_offer.maximum_profile())
        surplus = sum(values) - flex_offer.cmax
        if surplus > 0:
            for index, energy_slice in enumerate(flex_offer.slices):
                if surplus <= 0:
                    break
                slack = values[index] - energy_slice.amin
                drop = min(slack, surplus)
                values[index] -= drop
                surplus -= drop
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown target {target!r}")
    return tuple(values)
