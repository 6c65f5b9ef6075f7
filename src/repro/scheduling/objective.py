"""Scheduling objectives: imbalance between scheduled load and a reference.

The TotalFlex / MIRABEL setting schedules flexible demand so that it follows
fluctuating renewable production (Section 1 of the paper: "let the energy
demand follow the energy supply").  The canonical objective is therefore the
*imbalance* between the schedule's total load and a reference supply profile,
summed over time — either as absolute deviations (the imbalance energy a BRP
would have to settle) or squared deviations (penalising peaks).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from ..core.timeseries import TimeSeries
from .base import Schedule

__all__ = [
    "imbalance_series",
    "absolute_imbalance",
    "squared_imbalance",
    "peak_load",
    "ImbalanceObjective",
]


def imbalance_series(load: TimeSeries, reference: Optional[TimeSeries]) -> TimeSeries:
    """The signed deviation ``load − reference`` over the union of their spans.

    A missing reference is treated as the all-zero profile, in which case the
    imbalance is simply the load itself.
    """
    if reference is None:
        return load
    return load - reference


def absolute_imbalance(load: TimeSeries, reference: Optional[TimeSeries]) -> float:
    """Total absolute imbalance energy (the L1 norm of the deviation)."""
    return imbalance_series(load, reference).manhattan_norm()


def squared_imbalance(load: TimeSeries, reference: Optional[TimeSeries]) -> float:
    """Sum of squared deviations (penalises large instantaneous imbalances)."""
    deviation = imbalance_series(load, reference)
    return float(sum(value * value for value in deviation.values))


def peak_load(load: TimeSeries) -> float:
    """The largest absolute instantaneous load of a schedule."""
    return float(max((abs(value) for value in load.values), default=0))


@dataclass(frozen=True)
class ImbalanceObjective:
    """A configurable scheduling objective.

    Parameters
    ----------
    metric:
        ``"absolute"`` (default) or ``"squared"``.
    reference:
        The supply profile the schedule should follow; ``None`` means the
        objective minimises the load itself (pure valley-filling towards 0).
    """

    metric: str = "absolute"
    reference: Optional[TimeSeries] = None

    def __post_init__(self) -> None:
        if self.metric not in ("absolute", "squared"):
            raise ValueError(f"unknown imbalance metric {self.metric!r}")

    def of_load(self, load: TimeSeries) -> float:
        """Objective value of a total-load series."""
        if self.metric == "absolute":
            return absolute_imbalance(load, self.reference)
        return squared_imbalance(load, self.reference)

    def of_schedule(self, schedule: Schedule) -> float:
        """Objective value of a schedule (lower is better)."""
        return self.of_load(schedule.total_load())

    def of_generation(self, schedules: Sequence[Schedule]) -> list[float]:
        """Objective values of many schedules in one backend bulk call.

        Equivalent to ``[self.of_schedule(s) for s in schedules]`` — the
        backend contract guarantees bit-identical floats, so seeded search
        trajectories (tournament selections, elitism ranks) are unchanged —
        but the per-schedule load accumulation is evaluated through the
        active compute backend's
        :meth:`~repro.backend.ComputeBackend.batch_objectives`, one
        vectorized pass under the NumPy backend.  This is how the
        evolutionary scheduler scores a whole generation, the
        hill-climbing scheduler its restart initials, and
        ``FlexSession.schedule`` the ``objective_value`` of the schedule
        it returns.  A :meth:`Schedule.packed` schedule is passed as it
        is, so the NumPy backend reads its columns and no assignment is
        built; any other schedule is passed as ``(start_time, values)``
        pairs.
        """
        from ..backend.dispatch import get_backend

        payload = [
            schedule
            if schedule.columns is not None
            else [
                (assignment.start_time, assignment.values)
                for assignment in schedule.assignments
            ]
            for schedule in schedules
        ]
        return get_backend().batch_objectives(payload, self.reference, self.metric)

    def improvement_over(self, baseline: Schedule, candidate: Schedule) -> float:
        """Relative improvement of ``candidate`` over ``baseline`` (0..1)."""
        baseline_value = self.of_schedule(baseline)
        if baseline_value == 0:
            return 0.0
        return (baseline_value - self.of_schedule(candidate)) / baseline_value
