"""Event queue of the discrete-event simulator.

Events are ordered by simulated time with a monotonically increasing sequence
number as a tie-breaker, which makes the simulation fully deterministic: two
events scheduled for the same instant fire in the order they were scheduled.

Heap entries are ``(time, seq, event)`` tuples, so the heap compares them
with the C tuple comparison and never calls back into Python (``seq`` is
unique, so a comparison never reaches the event).

Cancelled events are *garbage*: they stay in the heap until popped, but the
queue tracks how many there are so that ``len(queue)`` / ``bool(queue)``
report live events only (a ``Kernel.run`` loop or ``max_events`` budget never
sees phantom work), and the heap is compacted in place whenever garbage
outnumbers the live entries.  The queue also keeps lifetime counters (pushes,
cancellations, compactions, peak size) that feed the kernel's
:class:`~repro.cluster.simulator.KernelStats` diagnostics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]

#: Compaction is skipped below this many cancelled entries: rebuilding a tiny
#: heap costs more bookkeeping than the garbage it would reclaim.
_COMPACT_MIN_GARBAGE = 64

_heappush = heapq.heappush
_heappop = heapq.heappop


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback, and the handle that cancels it.

    The dataclass ordering uses ``(time, seq)`` only; the callback and its
    arguments are excluded from comparisons.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: Tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    #: The queue currently holding this event (None once popped or when the
    #: event was built outside a queue); lets cancel() report its garbage.
    queue: Optional["EventQueue"] = field(compare=False, default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()

    def fire(self) -> None:
        """Invoke the callback unless the event has been cancelled."""
        if not self.cancelled:
            self.callback(*self.args)


class EventQueue:
    """A deterministic min-heap of ``(time, seq, event)`` entries."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._garbage = 0  # cancelled events still sitting in the heap
        # Lifetime diagnostics (never reset; see KernelStats).
        self.pushed = 0
        self.cancelled_total = 0
        self.compactions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return len(self._heap) - self._garbage

    def __bool__(self) -> bool:
        return len(self._heap) > self._garbage

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < 0:
            raise ValueError("cannot schedule an event at a negative time")
        time = float(time)
        seq = self.pushed
        self.pushed = seq + 1
        event = Event(time, seq, callback, args, False, self)
        heap = self._heap
        _heappush(heap, (time, seq, event))
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event.

        Returns ``None`` when no live event is queued; cancelled entries
        left behind then stay queued until compaction or a later pop.
        """
        heap = self._heap
        while len(heap) > self._garbage:
            event = _heappop(heap)[2]
            event.queue = None
            if not event.cancelled:
                return event
            self._garbage -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, without removing it."""
        heap = self._heap
        while len(heap) > self._garbage:
            time, _, event = heap[0]
            if not event.cancelled:
                return time
            _heappop(heap)
            event.queue = None
            self._garbage -= 1
        return None

    # ------------------------------------------------------------------ #
    # Garbage accounting
    # ------------------------------------------------------------------ #
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event still sits in the heap."""
        self._garbage += 1
        self.cancelled_total += 1
        if self._garbage >= _COMPACT_MIN_GARBAGE and self._garbage * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (ordering is a total order
        on unique ``(time, seq)`` pairs, so compaction cannot perturb event
        order — determinism survives)."""
        heap = self._heap
        for entry in heap:
            if entry[2].cancelled:
                entry[2].queue = None
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._garbage = 0
        self.compactions += 1
