"""Greedy schedulers.

Two deterministic baselines:

* :class:`EarliestStartScheduler` ignores flexibility entirely — every
  flex-offer starts as early as possible with its minimum feasible profile.
  It models today's "charge as soon as plugged in" behaviour and is the
  baseline against which the value of flexibility is demonstrated.
* :class:`GreedyImbalanceScheduler` processes flex-offers one by one and, for
  each, picks the start time and per-slice energy that minimise the running
  imbalance against a reference profile — a fast constructive heuristic for
  the flex-offer scheduling problem of Scenario 1.

Both schedulers consume bulk assignment operations (the backend's
``feasible_profiles`` and
:func:`~repro.core.assignment.batch_assignment_feasibility`), which dispatch
through the active compute backend — so large populations transparently gain
the NumPy / sharded speedups without any scheduler-side configuration.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from ..core.assignment import (
    Assignment,
    batch_assignment_feasibility,
    validate_assignment,
)
from ..core.flexoffer import FlexOffer
from ..core.timeseries import TimeSeries
from .base import Schedule, Scheduler
from .objective import ImbalanceObjective

__all__ = ["EarliestStartScheduler", "GreedyImbalanceScheduler"]


class EarliestStartScheduler(Scheduler):
    """Schedule every flex-offer at its earliest start with minimal energy.

    The scheduler discards the reference profile; it exists as the
    no-flexibility-used baseline for the E-SCHED experiment.  The minimal
    feasible profiles of the whole population, and their Definition 2
    screen, come from one backend ``feasible_profiles`` call (one
    vectorized pass under the NumPy and sharded backends), equivalent to
    :meth:`Assignment.earliest_minimum` per offer.  On a packed population
    whose rows all pass the screen, a backend that computes on packed
    arrays (``packed_feasible_profiles``) yields a :meth:`Schedule.packed`
    schedule, whose assignments are only built if someone reads them.
    """

    name = "earliest-start"

    def schedule(
        self,
        flex_offers: Sequence[FlexOffer],
        reference: Optional[TimeSeries] = None,
    ) -> Schedule:
        """One earliest-start, minimum-energy assignment per flex-offer.

        Parameters
        ----------
        flex_offers:
            The flex-offers to schedule: a sequence, or a packed
            :class:`~repro.backend.matrix.ProfileMatrix` (the streaming
            engine's live matrix), whose offers are scheduled in row order
            without packing them again.
        reference:
            Accepted for interface compatibility and ignored.
        """
        from ..backend.dispatch import get_backend, is_packed, population_offers

        backend = get_backend()
        if is_packed(flex_offers):
            packed = backend.packed_feasible_profiles(flex_offers, "min")
            if packed is not None:
                values, feasible = packed
                if feasible.all():
                    # Every row passed the screen: keep the kernel's output.
                    return Schedule.packed(
                        flex_offers.offers,
                        flex_offers.tes,
                        values,
                        flex_offers.offsets,
                    )
        else:
            flex_offers = list(flex_offers)
        profiles, feasible = backend.feasible_profiles(flex_offers, "min")
        # The backend screened its own output, so construction takes the
        # trusted fast path instead of re-running the per-slice scalar
        # validation per offer; an infeasible profile (impossible by
        # construction) still gets the validating constructor's diagnostic.
        assignments = [
            Assignment.trusted(flex_offer, flex_offer.earliest_start, values)
            if valid
            else Assignment(flex_offer, flex_offer.earliest_start, values)
            for flex_offer, values, valid in zip(
                population_offers(flex_offers), profiles, feasible
            )
        ]
        return Schedule(tuple(assignments))


class GreedyImbalanceScheduler(Scheduler):
    """Constructive greedy scheduler tracking a reference profile.

    For every flex-offer (processed in the given order) the scheduler
    enumerates all start times and, per start time, greedily chooses each
    slice's energy so the running load approaches the reference in that
    column; the start time with the lowest resulting objective wins.  The
    candidate profiles of one flex-offer — one per start time — are screened
    with a single :func:`batch_assignment_feasibility` call, and only the
    winning candidate is materialised as an :class:`Assignment`.

    Parameters
    ----------
    objective:
        The imbalance objective; its reference profile is also used for the
        per-column energy choice.  When omitted, an absolute-imbalance
        objective with a zero reference is used.
    """

    name = "greedy-imbalance"

    def __init__(self, objective: Optional[ImbalanceObjective] = None) -> None:
        """See the class docstring for the parameter semantics."""
        self.objective = objective or ImbalanceObjective()

    def _choose_profile(
        self,
        flex_offer: FlexOffer,
        start: int,
        load: dict[int, float],
        reference: Optional[TimeSeries],
    ) -> tuple[int, ...]:
        """Pick per-slice energies that locally track the reference."""
        bounds = flex_offer.effective_slice_bounds()
        values: list[int] = []
        for offset, energy_slice in enumerate(bounds):
            time = start + offset
            target = reference[time] if reference is not None else 0
            current = load.get(time, 0)
            desired = target - current
            values.append(energy_slice.clamp(desired))
        # Repair the total so it satisfies the flex-offer's total constraints.
        total = sum(values)
        if total < flex_offer.cmin:
            deficit = flex_offer.cmin - total
            for index, energy_slice in enumerate(bounds):
                if deficit <= 0:
                    break
                headroom = energy_slice.amax - values[index]
                take = min(headroom, deficit)
                values[index] += take
                deficit -= take
        elif total > flex_offer.cmax:
            surplus = total - flex_offer.cmax
            for index, energy_slice in enumerate(bounds):
                if surplus <= 0:
                    break
                slack = values[index] - energy_slice.amin
                drop = min(slack, surplus)
                values[index] -= drop
                surplus -= drop
        return tuple(values)

    def schedule(
        self,
        flex_offers: Sequence[FlexOffer],
        reference: Optional[TimeSeries] = None,
    ) -> Schedule:
        """Greedily assign each flex-offer to its imbalance-minimising start.

        Parameters
        ----------
        flex_offers:
            The flex-offers to schedule, processed in the given order.
        reference:
            Reference profile to track; overrides the objective's own
            reference when provided.
        """
        objective = (
            self.objective
            if reference is None
            else ImbalanceObjective(self.objective.metric, reference)
        )
        load: dict[int, float] = {}
        assignments: list[Assignment] = []
        for flex_offer in flex_offers:
            starts = list(
                range(flex_offer.earliest_start, flex_offer.latest_start + 1)
            )
            candidates = [
                self._choose_profile(flex_offer, start, load, objective.reference)
                for start in starts
            ]
            feasible = batch_assignment_feasibility(
                [flex_offer] * len(starts), starts, candidates
            )
            best: Optional[tuple[int, tuple[int, ...]]] = None
            best_value = float("inf")
            for start, values, valid in zip(starts, candidates, feasible):
                if not valid:  # pragma: no cover - repair always succeeds
                    # Diagnose loudly (InvalidAssignmentError naming the
                    # violation, as the eager constructor used to) rather
                    # than silently dropping the candidate.
                    validate_assignment(flex_offer, start, values)
                candidate_load = dict(load)
                for time, value in TimeSeries(start, values).items():
                    candidate_load[time] = candidate_load.get(time, 0) + value
                series = TimeSeries.from_mapping(
                    {t: v for t, v in candidate_load.items()}
                )
                value = objective.of_load(series)
                if value < best_value:
                    best_value = value
                    best = (start, values)
            assert best is not None  # at least one start time always exists
            chosen = Assignment.trusted(flex_offer, best[0], best[1])
            assignments.append(chosen)
            for time, value in chosen.series.items():
                load[time] = load.get(time, 0) + value
        return Schedule(tuple(assignments))
