"""Pluggable compute backends for bulk flex-offer operations.

The paper's measures, aggregates and assignment computations are all
per-slice arithmetic over ``[amin, amax]`` ranges — exactly the shape NumPy
vectorizes.  This package provides

* a small dispatch API — :func:`get_backend`, :func:`use_backend`, the
  ``REPRO_BACKEND`` environment variable —
  behind which bulk callers (``evaluate_set``, ``aggregate_start_aligned``,
  the batch assignment helpers, the streaming engine's bulk ingestion)
  select an implementation;
* the always-available ``reference`` backend (the original per-object
  Python code, which defines the semantics);
* the ``numpy`` backend, registered only when NumPy is importable, which
  packs populations into :class:`ProfileMatrix` arrays and evaluates
  measures through their ``batch_values`` hooks;
* the ``sharded`` backend, which partitions a population into shards and
  fans the bulk operations across a thread pool, running each shard on
  the best inner backend and merging exactly;
* a fingerprint-keyed :class:`MatrixCache` (:data:`matrix_cache`) so
  repeated bulk calls on a stable population skip the packing pass.

Backends are observationally equivalent by contract; the differential
conformance suite (``tests/backend/``) pins the NumPy backend to the
reference implementation on every registered measure, aggregation and
assignment operation.
"""

from __future__ import annotations

import importlib.util

from .cache import MatrixCache, cached_matrix, matrix_cache
from .dispatch import (
    ENV_VAR,
    ComputeBackend,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)
from .reference import ReferenceBackend
from .sharded import ShardedBackend

#: Whether the ``numpy`` backend can register.  Detected without importing
#: NumPy — a plain ``import repro`` must not pay NumPy's import cost; the
#: heavy import happens lazily, on the first bulk operation or on the first
#: access to :class:`ProfileMatrix` / :class:`NumpyBackend` below.
NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None

#: Lazily resolved exports (PEP 562), available only with NumPy installed.
_LAZY_EXPORTS = {"ProfileMatrix": "matrix", "NumpyBackend": "numpy_backend"}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        if not NUMPY_AVAILABLE:  # pragma: no cover - only without numpy
            raise ImportError(
                f"repro.backend.{name} requires NumPy, which is not "
                "installed; the 'reference' backend works without it"
            )
        import importlib

        module = importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value  # cache: subsequent accesses skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ENV_VAR",
    "NUMPY_AVAILABLE",
    "ComputeBackend",
    "MatrixCache",
    "ReferenceBackend",
    "ShardedBackend",
    "available_backends",
    "cached_matrix",
    "get_backend",
    "matrix_cache",
    "register_backend",
    "use_backend",
]
# ``from repro.backend import *`` resolves every listed name, so the lazy
# NumPy exports are listed only where they can resolve.
if NUMPY_AVAILABLE:
    __all__ += sorted(_LAZY_EXPORTS)
