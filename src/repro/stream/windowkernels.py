"""Array-backed sliding-window measure statistics (the NumPy window kernel).

The scalar :class:`~repro.stream.window.MeasureWindow` stores its samples in
a ``collections.deque`` of Python tuples and answers every statistic with a
Python fold — fine at dashboard rates, but the last scalar hot path of
high-frequency ``Tick`` sampling.  :class:`ArrayMeasureWindow` keeps the
same public API on packed storage, in the window-function-over-ordered-rows
shape the windowed-analytics literature uses:

* samples live in a **preallocated ``float64`` ring buffer** (plus a plain
  Python ring of the sample times) — :meth:`record` writes one slot and
  never allocates;
* **sliding min/max** are O(1) amortized via *monotonic deques* holding
  ``(sequence, value)`` pairs over ring positions: each sample is pushed
  and popped at most once, and a query reads the front;
* **total/mean** run as one vectorized ``cumsum`` pass over the
  chronological live slice — ``cumsum`` accumulates strictly left to
  right, so the final prefix equals the scalar kernel's sequential
  ``sum()`` bit for bit (a pairwise ``np.sum`` would not);
* **percentile/summary** statistics come from a single sort pass over the
  live slice, memoised until the next :meth:`record` exactly like the
  scalar kernel's sorted view.

Every query is conformance-pinned to the scalar kernel: identical floats
on ``total``/``min``/``max``/``count`` and (in practice also identical,
asserted to 1e-9) ``mean``/percentiles, for any interleaving of records,
ring evictions and queries — the differential window-conformance suite in
``tests/stream/test_window_kernels.py`` drives both kernels side by side.

Selection is per session, through the compute-backend contract
(:meth:`~repro.backend.dispatch.ComputeBackend.measure_window`): reference
sessions keep the scalar kernel, the NumPy and sharded tiers get this one.
``SessionConfig(window_kernel=...)`` (environment default
``REPRO_WINDOW_KERNEL``) overrides the automatic choice.

This module imports NumPy at module level, mirroring
:mod:`repro.stream.live`; the engine imports it lazily and falls back to
the scalar kernel when the import fails.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from .events import StreamError
from .window import check_sample, nearest_rank

__all__ = ["ArrayMeasureWindow"]


class ArrayMeasureWindow:
    """A :class:`~repro.stream.window.MeasureWindow` on packed arrays.

    Same constructor, same methods, same exceptions, same floats — only the
    storage and the per-query complexity differ.
    """

    #: Kernel identifier (the scalar kernel reports ``"scalar"``).
    kernel = "array"

    __slots__ = (
        "_capacity",
        "_times",
        "_values",
        "_pushed",
        "_min_deque",
        "_max_deque",
        "_sorted",
    )

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise StreamError(f"capacity must be a positive int, got {capacity!r}")
        self._capacity = capacity
        #: Sample times ride in a plain Python ring: they are never folded,
        #: and a list imposes no ``int64`` range restriction on the clock.
        self._times: list[int] = [0] * capacity
        self._values = np.zeros(capacity, dtype=np.float64)
        #: Total samples ever recorded; the next write slot is
        #: ``_pushed % capacity`` and retained count is ``min(_pushed, cap)``.
        self._pushed = 0
        #: ``(sequence, value)`` pairs, values strictly increasing front to
        #: back; the front is the sliding minimum.
        self._min_deque: deque[tuple[int, float]] = deque()
        #: Mirror image for the sliding maximum.
        self._max_deque: deque[tuple[int, float]] = deque()
        self._sorted: Optional[np.ndarray] = None

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples."""
        return self._capacity

    def __len__(self) -> int:
        return min(self._pushed, self._capacity)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, time: int, value: float) -> None:
        """Record one sample in O(1) amortized — no allocation, no sort.

        Non-finite samples are rejected (:class:`StreamError`) before any
        state change, exactly like the scalar kernel.
        """
        value = check_sample(value)
        sequence = self._pushed
        position = sequence % self._capacity
        self._times[position] = time
        self._values[position] = value
        self._pushed = sequence + 1
        oldest = self._pushed - len(self)
        minimum, maximum = self._min_deque, self._max_deque
        while minimum and minimum[-1][1] >= value:
            minimum.pop()
        minimum.append((sequence, value))
        while minimum[0][0] < oldest:
            minimum.popleft()
        while maximum and maximum[-1][1] <= value:
            maximum.pop()
        maximum.append((sequence, value))
        while maximum[0][0] < oldest:
            maximum.popleft()
        self._sorted = None

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def _chronological(self) -> np.ndarray:
        """The live slice in record order (a view when the ring is linear)."""
        count = len(self)
        if count < self._capacity:
            return self._values[:count]
        position = self._pushed % self._capacity
        if position == 0:
            return self._values
        return np.concatenate((self._values[position:], self._values[:position]))

    def _ordered(self) -> np.ndarray:
        """The live slice sorted ascending (memoised until a record)."""
        if self._sorted is None:
            self._sorted = np.sort(self._chronological())
        return self._sorted

    def _sequential_total(self) -> np.float64:
        """Strict left-to-right sum of the live slice (``cumsum``'s last
        prefix) — bit-identical to the scalar kernel's ``sum()`` fold."""
        return np.cumsum(self._chronological())[-1]

    def samples(self) -> list[tuple[int, float]]:
        """The retained ``(time, value)`` samples, oldest first."""
        count = len(self)
        if count < self._capacity:
            times = self._times[:count]
        else:
            position = self._pushed % self._capacity
            times = self._times[position:] + self._times[:position]
        return list(zip(times, self._chronological().tolist()))

    def values(self) -> list[float]:
        """The retained values, oldest first (Python floats)."""
        return self._chronological().tolist()

    # ------------------------------------------------------------------ #
    # Window statistics
    # ------------------------------------------------------------------ #
    @property
    def last(self) -> Optional[float]:
        """The most recent sample value (``None`` when empty)."""
        if not self._pushed:
            return None
        return float(self._values[(self._pushed - 1) % self._capacity])

    def total(self) -> float:
        """Sum of the retained values (sequential-fold semantics)."""
        if not len(self):
            return 0.0
        return float(self._sequential_total())

    def mean(self) -> float:
        """Mean of the retained values; 0.0 for an empty window."""
        count = len(self)
        if not count:
            return 0.0
        return float(self._sequential_total() / count)

    def minimum(self) -> float:
        """Smallest retained value, read off the monotonic deque in O(1)."""
        if not len(self):
            raise StreamError("an empty window has no minimum")
        return self._min_deque[0][1]

    def maximum(self) -> float:
        """Largest retained value, read off the monotonic deque in O(1)."""
        if not len(self):
            raise StreamError("an empty window has no maximum")
        return self._max_deque[0][1]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained values, ``q`` in [0, 100].

        Shares :func:`~repro.stream.window.nearest_rank` with the scalar
        kernel, so ``percentile(0)``/``percentile(100)`` are exactly
        :meth:`minimum`/:meth:`maximum` here too.
        """
        if not 0 <= q <= 100:
            raise StreamError(f"percentile must be in [0, 100], got {q}")
        if not len(self):
            raise StreamError("an empty window has no percentiles")
        return float(nearest_rank(self._ordered(), q))

    def summary(self) -> dict[str, float]:
        """A serialisable statistics block over the retained window.

        One memoised sort pass feeds min/max and both percentiles; one
        ``cumsum`` pass feeds total and mean — same keys, same floats as
        the scalar kernel's block.
        """
        count = len(self)
        if not count:
            return {"count": 0}
        ordered = self._ordered()
        total = self._sequential_total()
        return {
            "count": float(count),
            "last": self.last,
            "total": float(total),
            "mean": float(total / count),
            "min": float(ordered[0]),
            "max": float(ordered[-1]),
            "p50": float(nearest_rank(ordered, 50)),
            "p90": float(nearest_rank(ordered, 90)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayMeasureWindow({len(self)}/{self._capacity} samples)"
