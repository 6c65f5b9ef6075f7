"""Sliding-window tracking of population-level flexibility measures.

The streaming engine's population changes continuously, so a single point
value of a set-wise measure says little about how much flexibility the
Aggregator *has been* holding — the operational questions ("what was the
mean vector flexibility over the last hour?", "what is the p90 assignment
count we can promise the market?") are windowed.  This module provides the
storage and the statistics:

* :class:`RingBuffer` — fixed-capacity circular storage; pushing the
  ``capacity + 1``-th sample overwrites the oldest one in O(1) with no
  re-allocation, so sampling every tick stays cheap no matter how long the
  engine runs;
* :class:`MeasureWindow` — a ring buffer of ``(time, value)`` samples of one
  measure with total / mean / min / max / nearest-rank percentile over the
  retained window, the sliding min / max in O(1) amortised;
* :class:`WindowTracker` — one window per tracked measure key, fed from the
  :class:`~repro.measures.FlexibilitySetReport` the engine computes on every
  :class:`~repro.stream.events.Tick`.

Any :class:`~repro.measures.FlexibilityMeasure` can be tracked — the tracker
keys windows by ``measure.key`` and reads whatever set values the engine's
report contains, so custom measures registered with the measure registry are
windowed exactly like the paper's eight.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator
from typing import Optional

from .events import StreamError

__all__ = ["RingBuffer", "MeasureWindow", "WindowTracker", "nearest_rank"]


def nearest_rank(ordered, q: float) -> float:
    """Nearest-rank percentile over an ascending sequence, ``q`` in [0, 100].

    The boundaries are handled explicitly rather than through the rank
    formula: ``q == 0`` is defined as the window minimum and ``q == 100``
    as the window maximum for every window size — the formula's
    ``ceil(q * n / 100)`` lands there too for well-behaved floats, but the
    contract must not hinge on rounding behaviour.
    """
    count = len(ordered)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[count - 1]
    rank = max(1, math.ceil(q * count / 100))
    return ordered[min(rank, count) - 1]


def check_sample(value: float) -> float:
    """Validate one window sample: a finite float, or :class:`StreamError`.

    Windowed statistics are meaningless once a NaN or infinity enters the
    ring (``min``/``max``/percentiles would silently poison every later
    query), so :class:`MeasureWindow` rejects non-finite samples at the
    door.
    """
    value = float(value)
    if not math.isfinite(value):
        raise StreamError(f"window samples must be finite, got {value!r}")
    return value


class RingBuffer:
    """Fixed-capacity circular buffer with O(1) push and oldest-first iteration.

    A thin validated facade over ``collections.deque(maxlen=capacity)`` —
    the stdlib already implements the ring semantics (overwrite-oldest on
    push, oldest-first iteration) in C.
    """

    __slots__ = ("_items",)

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise StreamError(f"capacity must be a positive int, got {capacity!r}")
        self._items: deque[object] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of retained items."""
        return self._items.maxlen  # type: ignore[return-value]

    @property
    def full(self) -> bool:
        """Whether the next push will evict the oldest item."""
        return len(self._items) == self._items.maxlen

    def push(self, item: object) -> None:
        """Append an item, evicting the oldest one when full."""
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[object]:
        return iter(self._items)

    def __getitem__(self, index: int) -> object:
        """One retained item by position, oldest first (O(1) at either end)."""
        return self._items[index]

    def items(self) -> list[object]:
        """The retained items, oldest first."""
        return list(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RingBuffer({len(self._items)}/{self.capacity})"


class MeasureWindow:
    """A sliding window of ``(time, value)`` samples of one set-wise measure.

    The sorted view backing the percentile/summary statistics is memoised
    and invalidated on :meth:`record`: a dashboard polling ``p50``/``p90``
    repeatedly between ticks sorts once and reads O(1) afterwards, instead
    of re-sorting the whole retained window per query.

    The sliding extremes are O(1) amortised through two *monotonic deques*
    of ``(sequence, value)`` pairs: each sample is pushed and popped at
    most once, and a query reads the front.  A record pops only entries
    strictly worse than the new value, so among equal values the front is
    the oldest — exactly the element ``min(values())`` / ``max(values())``
    return, ties (``0.0`` against ``-0.0``) included.
    """

    def __init__(self, capacity: int) -> None:
        self._buffer = RingBuffer(capacity)
        self._sorted: Optional[list[float]] = None
        #: Samples ever recorded: the sequence number of the next record.
        self._pushed = 0
        #: ``(sequence, value)`` pairs, values non-decreasing front to back;
        #: the front is the sliding minimum.
        self._low: deque[tuple[int, float]] = deque()
        #: Mirror image for the sliding maximum.
        self._high: deque[tuple[int, float]] = deque()

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples."""
        return self._buffer.capacity

    def record(self, time: int, value: float) -> None:
        """Record one population-level sample taken at ``time``.

        Non-finite samples are rejected (:class:`StreamError`) before any
        state change — see :func:`check_sample`.
        """
        value = check_sample(value)
        self._buffer.push((time, value))
        self._sorted = None
        sequence = self._pushed
        self._pushed = sequence + 1
        oldest = self._pushed - len(self._buffer)
        low, high = self._low, self._high
        while low and low[-1][1] > value:
            low.pop()
        low.append((sequence, value))
        # One record evicts at most one sample, so at most one front entry
        # falls out of the window.
        if low[0][0] < oldest:
            low.popleft()
        while high and high[-1][1] < value:
            high.pop()
        high.append((sequence, value))
        if high[0][0] < oldest:
            high.popleft()

    def _ordered(self) -> list[float]:
        """The retained values in ascending order (memoised until a push)."""
        if self._sorted is None:
            self._sorted = sorted(self.values())
        return self._sorted

    def samples(self) -> list[tuple[int, float]]:
        """The retained ``(time, value)`` samples, oldest first."""
        return self._buffer.items()  # type: ignore[return-value]

    def values(self) -> list[float]:
        """The retained values, oldest first."""
        return [value for _, value in self._buffer]  # type: ignore[misc]

    def __len__(self) -> int:
        return len(self._buffer)

    # ------------------------------------------------------------------ #
    # Window statistics
    # ------------------------------------------------------------------ #
    @property
    def last(self) -> Optional[float]:
        """The most recent sample value (``None`` when empty)."""
        if not len(self._buffer):
            return None
        return self._buffer[-1][1]  # type: ignore[index]

    def total(self) -> float:
        """Sum of the retained values."""
        return float(sum(self.values()))

    def mean(self) -> float:
        """Mean of the retained values; 0.0 for an empty window."""
        values = self.values()
        if not values:
            return 0.0
        return float(sum(values) / len(values))

    def minimum(self) -> float:
        """Smallest retained value (the oldest of equals), in O(1)."""
        if not self._low:
            raise StreamError("an empty window has no minimum")
        return self._low[0][1]

    def maximum(self) -> float:
        """Largest retained value (the oldest of equals), in O(1)."""
        if not self._high:
            raise StreamError("an empty window has no maximum")
        return self._high[0][1]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained values, ``q`` in [0, 100].

        ``percentile(0)`` is exactly :meth:`minimum` and ``percentile(100)``
        exactly :meth:`maximum`, for every window size (see
        :func:`nearest_rank`).
        """
        if not 0 <= q <= 100:
            raise StreamError(f"percentile must be in [0, 100], got {q}")
        values = self._ordered()
        if not values:
            raise StreamError("an empty window has no percentiles")
        return nearest_rank(values, q)

    def summary(self) -> dict[str, float]:
        """A serialisable statistics block over the retained window."""
        values = self.values()
        if not values:
            return {"count": 0}
        ordered = self._ordered()
        count = len(values)
        return {
            "count": float(count),
            "last": values[-1],
            "total": float(sum(values)),
            "mean": float(sum(values) / count),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": nearest_rank(ordered, 50),
            "p90": nearest_rank(ordered, 90),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MeasureWindow({len(self)}/{self.capacity} samples)"


class WindowTracker:
    """One sliding window per tracked measure, fed from engine reports.

    Parameters
    ----------
    measure_keys:
        The measure keys to track (e.g. ``["time", "vector"]``); windows are
        created eagerly so :meth:`window` never KeyErrors for a tracked key.
    capacity:
        Samples retained per measure window.
    """

    def __init__(self, measure_keys: Iterable[str], capacity: int = 64) -> None:
        self._windows: dict[str, MeasureWindow] = {
            key: MeasureWindow(capacity) for key in measure_keys
        }
        if not self._windows:
            raise StreamError("WindowTracker needs at least one measure key")
        self.capacity = capacity

    @property
    def measure_keys(self) -> list[str]:
        """The tracked measure keys."""
        return list(self._windows)

    def window(self, measure_key: str) -> MeasureWindow:
        """The window of one tracked measure."""
        try:
            return self._windows[measure_key]
        except KeyError:
            raise StreamError(
                f"measure {measure_key!r} is not tracked; tracked: "
                f"{sorted(self._windows)}"
            ) from None

    def sample(self, time: int, values: dict[str, float]) -> None:
        """Record one population-level sample per tracked measure.

        ``values`` is the ``values`` mapping of a
        :class:`~repro.measures.FlexibilitySetReport`; tracked measures the
        report skipped (unsupported on the current population) are simply
        not sampled this round.  Non-finite set values (a measure's float
        sum can legitimately overflow to ``inf`` on extreme populations)
        are likewise not sampled — the windows reject them
        (:func:`check_sample`), and one degenerate tick must not poison a
        whole window of sound statistics.
        """
        for key, window in self._windows.items():
            value = values.get(key)
            if value is not None and math.isfinite(value):
                window.record(time, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """``{measure_key: window statistics}`` for every tracked measure."""
        return {key: window.summary() for key, window in self._windows.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WindowTracker({sorted(self._windows)})"
