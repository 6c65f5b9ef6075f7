"""repro — a reproduction of "Measuring and Comparing Energy Flexibilities".

The library implements the flex-offer model and the eight flexibility
measures proposed by Valsomatzis, Hose, Pedersen and Šikšnys (EDBT/ICDT 2015
Workshops), together with the surrounding ecosystem the paper assumes:
flex-offer aggregation and disaggregation, scheduling, a simple energy-market
simulation, device models that emit realistic flex-offers, workload
generators, and analysis / reporting utilities.

Quickstart
----------
>>> from repro import FlexOffer, product_flexibility, vector_flexibility_norm
>>> ev = FlexOffer(23, 27, [(2, 4), (2, 4), (2, 4)], name="ev-charger")
>>> ev.time_flexibility, ev.energy_flexibility
(4, 6)
>>> product_flexibility(ev)
24

For anything beyond single-offer arithmetic, the recommended entry point
is the session-scoped service API (:mod:`repro.service`):

>>> from repro import FlexSession
>>> with FlexSession(backend="reference") as session:
...     _ = session.ingest([ev])
...     session.evaluate().report.values["product"]
24.0
"""

from .backend import (
    NUMPY_AVAILABLE,
    available_backends,
    get_backend,
    use_backend,
)
from .faults import FaultInjected, FaultPlan, FaultRule
from .persist import (
    RecoveryStats,
    SessionPersister,
    SnapshotStore,
    WriteAheadLog,
)
from .core import (
    Assignment,
    EnergySlice,
    FlexError,
    FlexOffer,
    FlexOfferKind,
    InvalidAssignmentError,
    InvalidFlexOfferError,
    InvalidSliceError,
    TimeSeries,
    count_assignments,
    enumerate_assignments,
    flexoffer_area,
    flexoffer_area_size,
    series_area,
)
from .measures import (
    AbsoluteAreaFlexibility,
    AssignmentFlexibility,
    EnergyFlexibility,
    FlexibilityMeasure,
    MeasureCharacteristics,
    MixedPolicy,
    ProductFlexibility,
    RelativeAreaFlexibility,
    SeriesFlexibility,
    TimeFlexibility,
    VectorFlexibility,
    WeightedFlexibility,
    absolute_area_flexibility,
    assignment_flexibility,
    characteristics_table,
    compare_sets,
    energy_flexibility,
    evaluate_set,
    format_characteristics_table,
    get_measure,
    measure_keys,
    product_flexibility,
    relative_area_flexibility,
    series_flexibility,
    time_flexibility,
    vector_flexibility,
    vector_flexibility_norm,
)
from .server import (
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayServer,
    SessionRegistry,
    serve,
)
from .service import (
    AggregateRequest,
    AggregateResult,
    EvaluateRequest,
    EvaluateResult,
    FlexSession,
    RequestStats,
    ScheduleRequest,
    ScheduleResult,
    SessionConfig,
    StreamRequest,
    StreamResult,
    TradeRequest,
    TradeResult,
)
from .stream import (
    EngineSnapshot,
    EventLog,
    OfferArrived,
    OfferAssigned,
    OfferExpired,
    StreamingEngine,
    Tick,
    population_events,
)

__version__ = "3.0.0"

__all__ = [
    "__version__",
    # service API (the recommended entry point)
    "FlexSession",
    "SessionConfig",
    "EvaluateRequest",
    "AggregateRequest",
    "ScheduleRequest",
    "TradeRequest",
    "StreamRequest",
    "EvaluateResult",
    "AggregateResult",
    "ScheduleResult",
    "TradeResult",
    "StreamResult",
    "RequestStats",
    # multi-tenant gateway
    "serve",
    "Gateway",
    "GatewayServer",
    "GatewayConfig",
    "GatewayClient",
    "SessionRegistry",
    # compute backends
    "NUMPY_AVAILABLE",
    "available_backends",
    "get_backend",
    "use_backend",
    # durability
    "SessionPersister",
    "RecoveryStats",
    "WriteAheadLog",
    "SnapshotStore",
    # fault injection / chaos testing
    "FaultPlan",
    "FaultRule",
    "FaultInjected",
    # core model
    "TimeSeries",
    "EnergySlice",
    "FlexOffer",
    "FlexOfferKind",
    "Assignment",
    "count_assignments",
    "enumerate_assignments",
    "series_area",
    "flexoffer_area",
    "flexoffer_area_size",
    # errors
    "FlexError",
    "InvalidFlexOfferError",
    "InvalidAssignmentError",
    "InvalidSliceError",
    # measures
    "FlexibilityMeasure",
    "MeasureCharacteristics",
    "TimeFlexibility",
    "EnergyFlexibility",
    "ProductFlexibility",
    "VectorFlexibility",
    "SeriesFlexibility",
    "AssignmentFlexibility",
    "AbsoluteAreaFlexibility",
    "RelativeAreaFlexibility",
    "WeightedFlexibility",
    "MixedPolicy",
    "time_flexibility",
    "energy_flexibility",
    "product_flexibility",
    "vector_flexibility",
    "vector_flexibility_norm",
    "series_flexibility",
    "assignment_flexibility",
    "absolute_area_flexibility",
    "relative_area_flexibility",
    "get_measure",
    "measure_keys",
    "evaluate_set",
    "compare_sets",
    "characteristics_table",
    "format_characteristics_table",
    # streaming engine
    "StreamingEngine",
    "EngineSnapshot",
    "EventLog",
    "OfferArrived",
    "OfferExpired",
    "OfferAssigned",
    "Tick",
    "population_events",
]
