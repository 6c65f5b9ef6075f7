"""Scheduling primitives: schedules and the scheduler interface.

Scenario 1 of the paper: flex-offers "must be scheduled at some point in time
to be able to satisfy the prosumers' energy needs" — the flex-offer
scheduling problem, which the paper notes is similar to the unit commitment
problem and is highly complex for large flex-offer populations.  A *schedule*
fixes one valid assignment per flex-offer; schedulers differ in how they pick
those assignments to track a reference (e.g. forecast wind production).
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from typing import Optional

from ..core.assignment import Assignment
from ..core.errors import SchedulingError
from ..core.flexoffer import FlexOffer
from ..core.timeseries import TimeSeries

__all__ = ["Schedule", "Scheduler"]


class Schedule:
    """One valid assignment per scheduled flex-offer.

    A schedule is built from its assignments, or, by :meth:`packed`, from
    the columns of a packed population: the scheduled offers, one start
    time per offer, and the values of every offer in one flat array laid
    out like a :class:`~repro.backend.matrix.ProfileMatrix` (offer ``i``'s
    values at ``values[offsets[i]:offsets[i + 1]]``).  A packed schedule
    builds its :class:`~repro.core.Assignment` objects once, on the first
    read of :attr:`assignments`; the objective and the wire encoder read
    the columns instead.  Both forms compare, hash and iterate alike.
    """

    __slots__ = ("_assignments", "_offers", "_columns")

    def __init__(self, assignments: Iterable[Assignment]) -> None:
        """A schedule of the given (valid) assignments, in order."""
        self._assignments: Optional[tuple[Assignment, ...]] = tuple(assignments)
        self._offers: Optional[tuple[FlexOffer, ...]] = None
        self._columns = None

    @classmethod
    def packed(
        cls, offers: Sequence[FlexOffer], starts, values, offsets
    ) -> "Schedule":
        """A schedule held as columns, whose assignments are already valid.

        ``starts``, ``values`` and ``offsets`` are integer arrays with a
        ``tolist()`` method (NumPy ``int64`` arrays from a backend's
        screen).  The caller vouches for every row, as for
        :meth:`Assignment.trusted`, and must not mutate the arrays.
        """
        schedule = object.__new__(cls)
        schedule._assignments = None
        schedule._offers = tuple(offers)
        schedule._columns = (starts, values, offsets)
        return schedule

    @property
    def assignments(self) -> tuple[Assignment, ...]:
        """The assignments, in schedule order (built once for a packed
        schedule; concurrent first reads build equal tuples)."""
        assignments = self._assignments
        if assignments is None:
            starts, values, offsets = self._columns
            flat = values.tolist()
            bounds = offsets.tolist()
            trusted = Assignment.trusted
            assignments = tuple(
                [
                    trusted(flex_offer, start, flat[low:high])
                    for flex_offer, start, low, high in zip(
                        self._offers, starts.tolist(), bounds, bounds[1:]
                    )
                ]
            )
            self._assignments = assignments
        return assignments

    @property
    def columns(self):
        """``(starts, values, offsets)`` of a :meth:`packed` schedule, else
        ``None``."""
        return self._columns

    def __len__(self) -> int:
        if self._offers is not None:
            return len(self._offers)
        return len(self._assignments)

    def __iter__(self):
        return iter(self.assignments)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.assignments == other.assignments

    def __hash__(self) -> int:
        return hash((self.assignments,))

    def __repr__(self) -> str:
        return f"Schedule(assignments={self.assignments!r})"

    @property
    def flex_offers(self) -> tuple[FlexOffer, ...]:
        """The scheduled flex-offers, in schedule order."""
        if self._offers is not None:
            return self._offers
        return tuple(assignment.flex_offer for assignment in self._assignments)

    def total_load(self) -> TimeSeries:
        """The aggregate load of the schedule (sum of assignment series)."""
        return TimeSeries.sum_of([assignment.series for assignment in self.assignments])

    def total_energy(self) -> int:
        """Total energy over all assignments."""
        return sum(assignment.total_energy for assignment in self.assignments)

    def assignment_for(self, name: str) -> Assignment:
        """Look up the assignment of a flex-offer by its name."""
        for assignment in self.assignments:
            if assignment.flex_offer.name == name:
                return assignment
        raise SchedulingError(f"no assignment for flex-offer named {name!r}")

    def replacing(self, index: int, assignment: Assignment) -> "Schedule":
        """A copy of the schedule with the assignment at ``index`` replaced."""
        updated = list(self.assignments)
        updated[index] = assignment
        return Schedule(tuple(updated))


class Scheduler(abc.ABC):
    """Interface shared by every scheduler in the library."""

    #: Short identifier used in benchmark tables.
    name: str = "scheduler"

    @abc.abstractmethod
    def schedule(
        self,
        flex_offers: Sequence[FlexOffer],
        reference: Optional[TimeSeries] = None,
    ) -> Schedule:
        """Produce one valid assignment per flex-offer.

        Parameters
        ----------
        flex_offers:
            The flex-offers to schedule.
        reference:
            Optional reference profile (e.g. forecast renewable production)
            the schedule should track; schedulers that ignore it (such as the
            earliest-start baseline) accept and discard it.
        """

    def __call__(
        self,
        flex_offers: Sequence[FlexOffer],
        reference: Optional[TimeSeries] = None,
    ) -> Schedule:
        return self.schedule(flex_offers, reference)
