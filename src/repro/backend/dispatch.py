"""Compute-backend dispatch: registry, selection and the backend contract.

The measures, aggregation, assignment and streaming code all reduce to the
same handful of bulk operations over a population of flex-offers (per-offer
measure values, set combination, aligned column sums, feasible extreme
profiles, assignment feasibility, schedule-imbalance objectives).
:class:`ComputeBackend` names those
operations; concrete backends implement them either with the original
per-object Python code (``reference``) or with packed NumPy arrays
(``numpy``).  Callers never pick an implementation directly — they ask
:func:`get_backend` for the active one, which resolves, in order,

1. an explicit ``name`` argument (or an explicit backend *instance* — the
   session façade routes its privately configured backends this way),
2. the backend activated by the innermost :func:`use_backend` context
   (a registered name or, again, an unregistered instance),
3. the ``REPRO_BACKEND`` environment variable,
4. the ``reference`` backend.

There is deliberately no mutable process default: the pre-PR-5
``set_default_backend`` global (removed in v2.0) was a latent race under
the sharded backend's thread pool — a worker thread resolving
``get_backend()`` mid-operation could observe another thread's freshly
mutated default, in the worst case resolving *the sharded backend itself*
inside one of its own workers.  Scope a backend with
:class:`repro.service.FlexSession` or :func:`use_backend` instead.

Every backend must be *observationally equivalent* to the reference backend:
identical values on integer paths, identical within 1e-9 on float paths, and
the same :class:`~repro.core.errors.MeasureError` family raised on the same
inputs.  ``tests/backend/test_conformance.py`` pins that contract with
differential hypothesis properties.
"""

from __future__ import annotations

import abc
import os
import sys
import threading
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, ClassVar, Optional, Union

from ..core.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.flexoffer import FlexOffer
    from ..measures.base import FlexibilityMeasure

__all__ = [
    "BackendSpec",
    "ComputeBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "use_backend",
    "ENV_VAR",
    "is_packed",
    "population_offers",
    "schedule_pairs",
]

#: Environment variable naming the default backend for the process.
ENV_VAR = "REPRO_BACKEND"


def is_packed(population) -> bool:
    """Whether a population argument is a packed
    :class:`~repro.backend.matrix.ProfileMatrix` (such as the streaming
    engine's live matrix) rather than a sequence of offers.

    Never imports NumPy: without the matrix module loaded, no matrix
    exists.
    """
    matrix = sys.modules.get(f"{__package__}.matrix")
    return matrix is not None and isinstance(population, matrix.ProfileMatrix)


def population_offers(population) -> Sequence["FlexOffer"]:
    """The offers of a population argument: a packed matrix's row-aligned
    ``offers``, or the sequence itself."""
    return population.offers if is_packed(population) else population


def schedule_pairs(schedule) -> Sequence[tuple[int, Sequence[int]]]:
    """The ``(start_time, values)`` pairs of a
    :meth:`ComputeBackend.batch_objectives` schedule argument: a
    :class:`~repro.scheduling.Schedule`'s assignments, or the pairs
    themselves."""
    from ..scheduling.base import Schedule

    if isinstance(schedule, Schedule):
        return [
            (assignment.start_time, assignment.values)
            for assignment in schedule.assignments
        ]
    return schedule


class ComputeBackend(abc.ABC):
    """The bulk operations a compute backend must provide.

    The granularity is deliberately coarse — whole populations, not single
    flex-offers — because that is where a vectorizing backend can win; the
    per-object entry points (``measure.value``, ``Assignment``) never
    dispatch.
    """

    #: Stable backend identifier used by the registry and ``REPRO_BACKEND``.
    name: ClassVar[str] = ""

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #
    def prepare(self, flex_offers: Sequence["FlexOffer"]):
        """An opaque population handle reusable across several bulk calls.

        Backends whose bulk operations share a packed representation return
        it here (the NumPy backend returns the cached
        :class:`~repro.backend.matrix.ProfileMatrix`), so a caller issuing
        several measure operations against the same population — notably
        the sharded backend's per-shard workers — pays the packing/keying
        cost once.  The default returns the sequence unchanged; every
        ``measure_*`` operation must accept the returned handle wherever it
        accepts a population.
        """
        return flex_offers

    @abc.abstractmethod
    def measure_values(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence["FlexOffer"]
    ) -> list[float]:
        """Per-offer values of one measure, in population order."""

    def measure_set_value(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence["FlexOffer"]
    ) -> float:
        """Set value of one measure: per-offer values + ``combine_values``."""
        return measure.combine_values(self.measure_values(measure, flex_offers))

    @staticmethod
    def _overrides_set_value(measure: "FlexibilityMeasure") -> bool:
        """Whether a measure subclass replaced the default ``set_value``.

        ``evaluate_population`` implementations may only inline the
        per-offer-values + ``combine_values`` decomposition for the default
        ``set_value``; a measure that overrides the method (a public
        extension point) must be evaluated through its own override.
        """
        from ..measures.base import FlexibilityMeasure

        return type(measure).set_value is not FlexibilityMeasure.set_value

    @staticmethod
    def _overrides_supports(measure: "FlexibilityMeasure") -> bool:
        """Whether a measure subclass replaced the default ``supports``.

        The default derives applicability from the measure's characteristics
        and sign class, which a vectorizing backend may evaluate from packed
        masks; an overridden ``supports`` (also a public extension point)
        must be consulted per offer instead.
        """
        from ..measures.base import FlexibilityMeasure

        return type(measure).supports is not FlexibilityMeasure.supports

    def measure_support(
        self, measure: "FlexibilityMeasure", flex_offers: Sequence["FlexOffer"]
    ) -> list[bool]:
        """Per-offer :meth:`FlexibilityMeasure.supports` verdicts, in order.

        The bulk form of the applicability check ``evaluate_population``
        performs; exposed on the contract so composing backends (sharding)
        can merge per-shard verdicts without re-deriving the semantics.

        Deliberately *eager* — every offer is consulted, unlike the lazily
        short-circuiting ``all()`` a scalar loop would run — because the
        vectorized implementations evaluate whole masks at once.  The one
        observable consequence: a custom ``supports`` override that
        *raises* on a later offer surfaces its exception even when an
        earlier offer already returned ``False``.
        """
        return [measure.supports(flex_offer) for flex_offer in flex_offers]

    @abc.abstractmethod
    def evaluate_population(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Sequence["FlexOffer"],
        skip_unsupported: bool = True,
    ) -> tuple[dict[str, float], list[str]]:
        """``({measure_key: set_value}, [skipped keys])`` for a population.

        A measure is skipped when it does not support every offer in the
        population and ``skip_unsupported`` is true — the exact semantics of
        :func:`repro.measures.setwise.evaluate_set`, which delegates here.
        """

    @abc.abstractmethod
    def per_offer_values(
        self,
        measures: Sequence["FlexibilityMeasure"],
        flex_offers: Sequence["FlexOffer"],
    ) -> list[dict[str, float]]:
        """For each offer, ``{measure_key: value}`` over the measures that
        support it — the bulk form of the streaming engine's arrival cache."""

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def aggregate_columns(
        self, members: Sequence["FlexOffer"]
    ) -> tuple[int, list[int], list[tuple[int, int]]]:
        """Start-aligned column sums over the members' effective bounds.

        Returns ``(anchor, member_offsets, [(amin, amax) per column])`` where
        the anchor is the minimum earliest start and uncovered columns sum to
        ``(0, 0)`` — the inner loop of
        :func:`repro.aggregation.aggregate_start_aligned`.
        """

    # ------------------------------------------------------------------ #
    # Assignments
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def feasible_profiles(
        self, flex_offers: Sequence["FlexOffer"], target: str
    ) -> tuple[list[tuple[int, ...]], list[bool]]:
        """Greedy minimal-total (``"min"``) or maximal-total (``"max"``)
        profiles satisfying each offer's total constraints, in profile order
        — the bulk form of the extreme-assignment constructors — and their
        screen.

        ``flex_offers`` is a sequence of offers or a packed
        :class:`~repro.backend.matrix.ProfileMatrix` (see
        :func:`is_packed`), which is used as it is.  Returns
        ``(profiles, feasible)``: ``feasible[i]`` is the
        :meth:`assignment_feasibility` verdict of ``profiles[i]`` started at
        the target's start time (the earliest start for ``"min"``, the
        latest for ``"max"``).
        """

    def packed_feasible_profiles(self, matrix, target: str):
        """:meth:`feasible_profiles` of a packed population, left packed.

        Returns ``(values, feasible)``: the profiles as one ``int64`` array
        in ``matrix``'s slice layout (offer ``i``'s values at
        ``values[matrix.offsets[i]:matrix.offsets[i + 1]]``) and the
        per-offer verdicts as a ``bool`` array, both equal to what
        :meth:`feasible_profiles` returns for ``matrix``.  The default
        returns ``None``: the backend computes on Python objects, and
        callers use :meth:`feasible_profiles` instead.
        """
        return None

    @abc.abstractmethod
    def assignment_feasibility(
        self,
        flex_offers: Sequence["FlexOffer"],
        starts: Sequence[int],
        values: Sequence[Sequence[int]],
    ) -> list[bool]:
        """Whether each ``(start, values)`` pair is a valid Definition 2
        assignment of its flex-offer."""

    # ------------------------------------------------------------------ #
    # Scheduling objectives
    # ------------------------------------------------------------------ #
    def batch_objectives(
        self,
        schedules: Sequence[Sequence[tuple[int, Sequence[int]]]],
        reference=None,
        metric: str = "absolute",
    ) -> list[float]:
        """Imbalance objective of many schedules in one bulk call.

        Each schedule is a sequence of ``(start_time, values)`` assignment
        pairs or a :class:`~repro.scheduling.Schedule` (whose packed
        columns a vectorizing backend reads as they are); ``reference`` is
        the optional supply
        :class:`~repro.core.timeseries.TimeSeries` the schedules should
        track and ``metric`` is ``"absolute"`` (L1 imbalance energy) or
        ``"squared"`` (peak-penalising).  Per schedule the result equals
        ``ImbalanceObjective(metric, reference).of_schedule(...)`` exactly —
        including the float combination order — so schedulers can score a
        whole generation in one backend call without perturbing seeded
        search trajectories.  The default runs the scalar semantics
        (:meth:`TimeSeries.sum_of` per schedule plus a sequential fold);
        vectorizing backends override it.
        """
        from ..core.timeseries import TimeSeries

        if metric not in ("absolute", "squared"):
            raise ValueError(f"unknown imbalance metric {metric!r}")
        results: list[float] = []
        for schedule in schedules:
            load = TimeSeries.sum_of(
                [
                    TimeSeries(start, tuple(values))
                    for start, values in schedule_pairs(schedule)
                ]
            )
            deviation = load if reference is None else load - reference
            if metric == "absolute":
                results.append(float(sum(abs(value) for value in deviation.values)))
            else:
                results.append(
                    float(sum(value * value for value in deviation.values))
                )
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------- #
# Registry and selection
# ---------------------------------------------------------------------- #
#: A backend selection: a registered name, or a (possibly unregistered)
#: backend instance — the session façade's privately configured backends.
BackendSpec = Union[str, ComputeBackend]

_REGISTRY: dict[str, ComputeBackend] = {}
_bootstrapped = False
#: Reentrant: numpy-backend registration happens *inside* the guarded
#: section, and its module-level code may itself resolve backends.
_bootstrap_lock = threading.RLock()
_active: ContextVar[Optional[BackendSpec]] = ContextVar(
    "repro_backend", default=None
)


def register_backend(backend: ComputeBackend, overwrite: bool = False) -> ComputeBackend:
    """Register a backend instance under its ``name``.

    Registering a *different class* under an existing name raises unless
    ``overwrite`` is set, so a typo cannot silently shadow the reference
    implementation; re-registering the same class replaces the stored
    instance (the bundled backends are stateless, making that idempotent).
    """
    if not isinstance(backend, ComputeBackend):
        raise BackendError(f"{backend!r} is not a ComputeBackend instance")
    if not backend.name:
        raise BackendError(f"backend {type(backend).__name__} must define a name")
    if backend.name in _REGISTRY and not overwrite:
        existing = _REGISTRY[backend.name]
        if type(existing) is not type(backend):
            raise BackendError(
                f"backend name {backend.name!r} already registered by "
                f"{type(existing).__name__}"
            )
    _REGISTRY[backend.name] = backend
    return backend


def _ensure_registered() -> None:
    """Import the bundled backends once, registering what the host supports.

    Guarded by an explicit flag, not by registry emptiness: the reference
    backend registers as a side effect of ``import repro.backend``, which
    must not stop the lazily imported NumPy backend from ever loading.
    """
    global _bootstrapped
    if _bootstrapped:
        return
    # Double-checked: without the lock, a second thread arriving while the
    # first is still inside the (slow) NumPy import would see a registry
    # with no ``numpy`` entry and mis-resolve — shard pool threads that
    # resolve their inner backend on first use are exactly that
    # interleaving.
    with _bootstrap_lock:
        if _bootstrapped:
            return
        from . import reference  # noqa: F401  (registers on import)

        try:
            from . import numpy_backend  # noqa: F401  (registers when NumPy exists)
        except ImportError:  # pragma: no cover - exercised only without numpy
            pass
        # Registered last so its inner-backend default can see the NumPy
        # registration; depends only on the standard library itself.
        from . import sharded  # noqa: F401  (registers on import)
        _bootstrapped = True


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend (``reference`` always included)."""
    _ensure_registered()
    return tuple(_REGISTRY)


def _resolve(selection: Optional[BackendSpec]) -> ComputeBackend:
    _ensure_registered()
    if selection is None:
        selection = _active.get()
    resolved = (
        selection
        if selection is not None
        else (os.environ.get(ENV_VAR) or "reference")
    )
    if isinstance(resolved, ComputeBackend):
        return resolved
    try:
        return _REGISTRY[resolved]
    except KeyError:
        raise BackendError(
            f"unknown compute backend {resolved!r}; available: "
            f"{sorted(_REGISTRY)} (is the backend's dependency installed?)"
        ) from None


def get_backend(selection: Optional[BackendSpec] = None) -> ComputeBackend:
    """The active compute backend.

    ``selection`` may be a registered name, an explicit
    :class:`ComputeBackend` instance (returned as-is — how the session
    façade and the sharded workers carry privately configured backends
    through the dispatch layer), or ``None`` for the context-resolved
    active backend.
    """
    return _resolve(selection)


@contextmanager
def use_backend(selection: BackendSpec):
    """Context manager activating a backend for the dynamic extent.

    ``selection`` is a registered backend name or an explicit
    :class:`ComputeBackend` instance.  Nested uses stack; the previous
    selection is restored on exit.  The activation is context-local
    (:mod:`contextvars`): pool worker threads never observe it.  Yields
    the activated backend instance::

        with use_backend("numpy") as backend:
            report = evaluate_set(population)   # vectorized
    """
    backend = _resolve(selection)
    token = _active.set(
        backend if isinstance(selection, ComputeBackend) else backend.name
    )
    try:
        yield backend
    finally:
        _active.reset(token)
