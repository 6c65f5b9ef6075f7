"""The flex-offer model (Definition 1 of the paper).

A flex-offer captures the energy flexibility of a prosumer unit (an electric
vehicle, a heat pump, a dishwasher, a solar panel, ...) along two dimensions:

* **time flexibility** — the unit can start anywhere inside the start-time
  interval ``[tes, tls]``;
* **energy (amount) flexibility** — each one-time-unit *slice* of its energy
  profile admits an inclusive range ``[amin, amax]`` of energy amounts, and
  the total energy over all slices is additionally bounded by the total
  constraints ``cmin`` and ``cmax``.

This module provides :class:`FlexOffer`, the immutable value type at the heart
of the library, together with its sign classification (consumption /
production / mixed, Section 2), canonical minimum/maximum assignments
(Definitions 5–6) and the *effective* per-slice bounds induced by the total
constraints, which the area-based measures and the schedulers rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import InvalidFlexOfferError
from .slices import EnergySlice, parse_slices
from .timeseries import TimeSeries

__all__ = ["FlexOffer", "FlexOfferKind"]


class FlexOfferKind(str, Enum):
    """Sign classification of a flex-offer (Section 2 of the paper)."""

    #: All admissible energy values are non-negative (e.g. a dishwasher).
    CONSUMPTION = "consumption"
    #: All admissible energy values are non-positive (e.g. a solar panel).
    PRODUCTION = "production"
    #: The flex-offer admits both signs (e.g. a vehicle-to-grid battery).
    MIXED = "mixed"


@dataclass(frozen=True)
class FlexOffer:
    """An immutable flex-offer ``f = ([tes, tls], ⟨s(1), ..., s(s)⟩)``.

    Parameters
    ----------
    earliest_start:
        ``tes`` — the earliest admissible start time (natural number).
    latest_start:
        ``tls`` — the latest admissible start time, ``>= earliest_start``.
    slices:
        The energy profile: a sequence of :class:`EnergySlice` (or
        ``(amin, amax)`` pairs / plain integers, normalised via
        :func:`repro.core.slices.parse_slices`).
    total_energy_min, total_energy_max:
        The total energy constraints ``cmin`` and ``cmax``.  When omitted
        they default to the sum of the per-slice minima and maxima
        respectively, exactly as the paper does for Figure 1 (Example 2).
    name:
        Optional identifier used by aggregation, scheduling and market code
        to trace a flex-offer back to its prosumer unit.

    Examples
    --------
    The Figure 1 flex-offer of the paper:

    >>> f = FlexOffer(1, 6, [(1, 3), (2, 4), (0, 5), (0, 3)])
    >>> f.time_flexibility
    5
    >>> f.energy_flexibility
    12
    """

    earliest_start: int
    latest_start: int
    slices: tuple[EnergySlice, ...]
    total_energy_min: Optional[int] = None
    total_energy_max: Optional[int] = None
    name: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Validation & normalisation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        for label, value in (
            ("earliest_start", self.earliest_start),
            ("latest_start", self.latest_start),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidFlexOfferError(f"{label} must be an int, got {value!r}")
            if value < 0:
                raise InvalidFlexOfferError(
                    f"{label} must be non-negative (time domain is N0), got {value}"
                )
        if self.latest_start < self.earliest_start:
            raise InvalidFlexOfferError(
                f"latest start {self.latest_start} precedes earliest start "
                f"{self.earliest_start}"
            )

        slices = parse_slices(self.slices)
        if not slices:
            raise InvalidFlexOfferError("a flex-offer needs at least one slice")
        object.__setattr__(self, "slices", slices)

        profile_min = sum(s.amin for s in slices)
        profile_max = sum(s.amax for s in slices)
        cmin = self.total_energy_min if self.total_energy_min is not None else profile_min
        cmax = self.total_energy_max if self.total_energy_max is not None else profile_max
        for label, value in (("total_energy_min", cmin), ("total_energy_max", cmax)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidFlexOfferError(f"{label} must be an int, got {value!r}")
        if cmin > cmax:
            raise InvalidFlexOfferError(
                f"total minimum constraint {cmin} exceeds total maximum {cmax}"
            )
        if cmin < profile_min or cmax > profile_max:
            raise InvalidFlexOfferError(
                "total constraints must be bounded by the slice sums: "
                f"cmin={cmin}, cmax={cmax} not within [{profile_min}, {profile_max}]"
            )
        if cmax < profile_min or cmin > profile_max:
            raise InvalidFlexOfferError(
                "total constraints leave no feasible assignment: "
                f"[{cmin}, {cmax}] does not intersect [{profile_min}, {profile_max}]"
            )
        object.__setattr__(self, "total_energy_min", cmin)
        object.__setattr__(self, "total_energy_max", cmax)
        if self.name is not None and not isinstance(self.name, str):
            raise InvalidFlexOfferError(f"name must be a string, got {self.name!r}")
        # Cache the derived quantities that the measures and the streaming
        # engine query repeatedly.  The instance is frozen, so these can never
        # go stale; caching them here turns the per-slice sums inside the
        # measure hot path into plain attribute reads.
        object.__setattr__(self, "_profile_minimum", profile_min)
        object.__setattr__(self, "_profile_maximum", profile_max)
        object.__setattr__(
            self, "_time_flexibility", self.latest_start - self.earliest_start
        )
        object.__setattr__(self, "_energy_flexibility", cmax - cmin)

    # ------------------------------------------------------------------ #
    # Short aliases matching the paper's notation
    # ------------------------------------------------------------------ #
    @property
    def tes(self) -> int:
        """Earliest start time (paper notation)."""
        return self.earliest_start

    @property
    def tls(self) -> int:
        """Latest start time (paper notation)."""
        return self.latest_start

    @property
    def cmin(self) -> int:
        """Total minimum energy constraint (paper notation)."""
        return self.total_energy_min  # type: ignore[return-value]

    @property
    def cmax(self) -> int:
        """Total maximum energy constraint (paper notation)."""
        return self.total_energy_max  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Profile characteristics
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> int:
        """Number of slices ``s`` — the operating duration in time units."""
        return len(self.slices)

    @property
    def profile_minimum(self) -> int:
        """Sum of the per-slice minima (lower bound on any total energy)."""
        return self._profile_minimum  # type: ignore[attr-defined]

    @property
    def profile_maximum(self) -> int:
        """Sum of the per-slice maxima (upper bound on any total energy)."""
        return self._profile_maximum  # type: ignore[attr-defined]

    @property
    def earliest_end(self) -> int:
        """First time unit *after* the profile when started as early as possible."""
        return self.earliest_start + self.duration

    def time_horizon(self) -> range:
        """All absolute time units that any assignment of the flex-offer may touch."""
        return range(self.earliest_start, self.latest_start + self.duration)

    # ------------------------------------------------------------------ #
    # Flexibility primitives (Section 3.1)
    # ------------------------------------------------------------------ #
    @property
    def time_flexibility(self) -> int:
        """``tf(f) = tls − tes`` (Section 3.1, Example 1)."""
        return self._time_flexibility  # type: ignore[attr-defined]

    @property
    def energy_flexibility(self) -> int:
        """``ef(f) = cmax − cmin`` (Section 3.1, Example 2)."""
        return self._energy_flexibility  # type: ignore[attr-defined]

    @property
    def has_time_flexibility(self) -> bool:
        """``True`` when more than one start time is admissible."""
        return self.time_flexibility > 0

    @property
    def has_energy_flexibility(self) -> bool:
        """``True`` when more than one total energy amount is admissible."""
        return self.energy_flexibility > 0

    # ------------------------------------------------------------------ #
    # Sign classification (Section 2)
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> FlexOfferKind:
        """Sign classification: consumption, production or mixed.

        Following Section 2 of the paper, a flex-offer whose admissible
        energy values are all non-negative is a *positive* (consumption)
        flex-offer, all non-positive a *negative* (production) flex-offer,
        and anything else *mixed*.
        """
        if all(s.is_consumption for s in self.slices):
            return FlexOfferKind.CONSUMPTION
        if all(s.is_production for s in self.slices):
            return FlexOfferKind.PRODUCTION
        return FlexOfferKind.MIXED

    @property
    def is_consumption(self) -> bool:
        """``True`` for a positive (pure consumption) flex-offer."""
        return self.kind is FlexOfferKind.CONSUMPTION

    @property
    def is_production(self) -> bool:
        """``True`` for a negative (pure production) flex-offer."""
        return self.kind is FlexOfferKind.PRODUCTION

    @property
    def is_mixed(self) -> bool:
        """``True`` for a mixed (consumption and production) flex-offer."""
        return self.kind is FlexOfferKind.MIXED

    # ------------------------------------------------------------------ #
    # Effective per-slice bounds under the total constraints
    # ------------------------------------------------------------------ #
    def effective_slice_bounds(self) -> tuple[EnergySlice, ...]:
        """Per-slice bounds actually reachable by *valid* assignments.

        The total constraints ``cmin``/``cmax`` may make the extreme values of
        a slice unreachable: a slice value ``v`` for slice ``i`` is reachable
        iff the remaining slices can still complete the total into
        ``[cmin, cmax]``.  Because every per-slice range is a contiguous
        interval, the reachable set for each slice is itself a contiguous
        interval, computed here exactly.

        The area-based flexibility measures (Definitions 9–10) and the
        schedulers use these effective bounds so they never consider energy
        amounts that no valid assignment can produce.  The result is computed
        once per instance and cached (the instance is frozen, so the bounds
        can never change); aggregation and the streaming engine may therefore
        call this freely on every membership change.
        """
        cached = self.__dict__.get("_effective_bounds")
        if cached is not None:
            return cached
        others_min = self.profile_minimum
        others_max = self.profile_maximum
        effective: list[EnergySlice] = []
        for s in self.slices:
            rest_min = others_min - s.amin
            rest_max = others_max - s.amax
            low = max(s.amin, self.cmin - rest_max)
            high = min(s.amax, self.cmax - rest_min)
            if low > high:  # pragma: no cover - prevented by __post_init__
                raise InvalidFlexOfferError(
                    "total constraints leave no feasible value for a slice"
                )
            effective.append(EnergySlice(low, high))
        bounds = tuple(effective)
        object.__setattr__(self, "_effective_bounds", bounds)
        return bounds

    # ------------------------------------------------------------------ #
    # Index keys
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> int:
        """A cheap, name-independent structural key for in-process indexes.

        Two flex-offers share a fingerprint iff their start-time interval,
        profile and total constraints coincide (the ``name`` label is
        deliberately ignored — it identifies the prosumer, not the offer's
        shape).  Computed lazily and cached on the frozen instance; the
        streaming grid index, the replay adapters and the backend layer's
        packed-matrix cache use it as a structural identity without hashing
        the whole profile repeatedly.

        The key is a 64-bit BLAKE2b digest of an unambiguous text encoding,
        not a tuple ``hash()``: Python's integer hashing maps ``-1`` and
        ``-2`` to the same value (and is trivially correlated on small
        ints), which made structurally different offers collide — fatal for
        a cache keyed on fingerprints.  Digest collisions remain possible in
        principle but are not constructible in practice.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            import hashlib

            payload = repr(
                (
                    self.earliest_start,
                    self.latest_start,
                    self.total_energy_min,
                    self.total_energy_max,
                    tuple((s.amin, s.amax) for s in self.slices),
                )
            ).encode("ascii")
            digest = hashlib.blake2b(payload, digest_size=8).digest()
            cached = int.from_bytes(digest, "big")
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------ #
    # Canonical assignments (Definitions 5 and 6)
    # ------------------------------------------------------------------ #
    def minimum_profile(self) -> tuple[int, ...]:
        """Per-slice minima as a plain tuple."""
        return tuple(s.amin for s in self.slices)

    def maximum_profile(self) -> tuple[int, ...]:
        """Per-slice maxima as a plain tuple."""
        return tuple(s.amax for s in self.slices)

    def minimum_assignment(self) -> TimeSeries:
        """The minimum assignment ``f_a^min`` (Definition 5).

        The profile uses every slice's minimum value and starts at the
        earliest start time.  Note that, per the paper's definition, the
        minimum assignment ignores the total minimum constraint; it is used
        only as the anchor of the time-series flexibility measure.
        """
        return TimeSeries(self.earliest_start, self.minimum_profile())

    def maximum_assignment(self) -> TimeSeries:
        """The maximum assignment ``f_a^max`` (Definition 6).

        The profile uses every slice's maximum value and starts at the
        latest start time.
        """
        return TimeSeries(self.latest_start, self.maximum_profile())

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def shift(self, delta: int) -> "FlexOffer":
        """Return a copy with the start-time interval shifted by ``delta``."""
        return FlexOffer(
            self.earliest_start + delta,
            self.latest_start + delta,
            self.slices,
            self.total_energy_min,
            self.total_energy_max,
            self.name,
        )

    def with_name(self, name: str) -> "FlexOffer":
        """Return a copy carrying the given identifier."""
        return FlexOffer(
            self.earliest_start,
            self.latest_start,
            self.slices,
            self.total_energy_min,
            self.total_energy_max,
            name,
        )

    def without_time_flexibility(self, start: Optional[int] = None) -> "FlexOffer":
        """Return a copy pinned to a single start time (``tf = 0``).

        ``start`` defaults to the earliest start time and must lie inside
        the original start-time interval.
        """
        pinned = self.earliest_start if start is None else start
        if not self.earliest_start <= pinned <= self.latest_start:
            raise InvalidFlexOfferError(
                f"start {pinned} outside [{self.earliest_start}, {self.latest_start}]"
            )
        return FlexOffer(
            pinned, pinned, self.slices,
            self.total_energy_min, self.total_energy_max, self.name,
        )

    def without_energy_flexibility(self, profile: Optional[Sequence[int]] = None) -> "FlexOffer":
        """Return a copy whose slices are pinned to single values (``ef = 0``).

        ``profile`` defaults to the smallest feasible profile: the per-slice
        minima, topped up (in profile order) until the total reaches ``cmin``
        so the pinned profile always satisfies the total constraints.  When
        ``profile`` is given explicitly it must be admissible for every slice
        and for the total constraints.
        """
        if profile is not None:
            values: tuple[int, ...] = tuple(profile)
        else:
            minimum = list(self.minimum_profile())
            deficit = self.cmin - sum(minimum)
            for index, energy_slice in enumerate(self.slices):
                if deficit <= 0:
                    break
                bump = min(energy_slice.amax - minimum[index], deficit)
                minimum[index] += bump
                deficit -= bump
            values = tuple(minimum)
        if len(values) != self.duration:
            raise InvalidFlexOfferError(
                f"profile length {len(values)} does not match {self.duration} slices"
            )
        for value, s in zip(values, self.slices):
            if value not in s:
                raise InvalidFlexOfferError(f"profile value {value} outside slice {s}")
        total = sum(values)
        if not self.cmin <= total <= self.cmax:
            raise InvalidFlexOfferError(
                f"pinned profile total {total} violates [{self.cmin}, {self.cmax}]"
            )
        return FlexOffer(
            self.earliest_start,
            self.latest_start,
            tuple(EnergySlice(v, v) for v in values),
            total,
            total,
            self.name,
        )

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def slice_at(self, index: int) -> EnergySlice:
        """Return slice ``index`` (0-based)."""
        return self.slices[index]

    def __iter__(self) -> Iterator[EnergySlice]:
        return iter(self.slices)

    def __len__(self) -> int:
        return self.duration

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        profile = ", ".join(str(s) for s in self.slices)
        label = f" {self.name!r}" if self.name else ""
        return (
            f"FlexOffer{label}([{self.earliest_start}, {self.latest_start}], "
            f"⟨{profile}⟩, cmin={self.cmin}, cmax={self.cmax})"
        )

    # ------------------------------------------------------------------ #
    # Alternate constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def inflexible(
        cls, start: int, profile: Iterable[int], name: Optional[str] = None
    ) -> "FlexOffer":
        """A flex-offer with no flexibility at all: fixed start, fixed profile."""
        values = tuple(profile)
        return cls(start, start, tuple(EnergySlice(v, v) for v in values), name=name)

    @classmethod
    def from_paper_notation(
        cls,
        start_interval: tuple[int, int],
        profile: Iterable[object],
        cmin: Optional[int] = None,
        cmax: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "FlexOffer":
        """Build a flex-offer from the paper's tuple notation.

        Example: ``FlexOffer.from_paper_notation((1, 6), [(1, 3), (2, 4), (0, 5), (0, 3)])``
        builds the Figure 1 flex-offer.
        """
        tes, tls = start_interval
        return cls(tes, tls, parse_slices(profile), cmin, cmax, name)
