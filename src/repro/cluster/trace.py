"""Execution traces: what a simulated run sent and computed.

The paper's Figures 2–5 describe the communication patterns of the
Round-Robin and Last-Minute algorithms (which process talks to which, and
which communications overlap in time).  Rather than drawing diagrams, the
reproduction records the simulated run and provides queries that verify and
quantify those patterns — see :mod:`repro.analysis.commpattern` for the
figure-level analysis built on top of these records.

A trace always keeps one :class:`ComputeRecord` per computation, and counts
messages per payload type, and the latest receive time, as
:meth:`Trace.record_message` sees them.  The message log itself (one
:class:`MessageRecord` per message) is kept only when asked for:

* ``Trace()`` (and so a bare :class:`~repro.cluster.simulator.Kernel`)
  keeps it;
* ``Trace(log_messages=False)`` keeps the tallies alone.  That is what
  :func:`~repro.parallel.driver.run_parallel_nmcs` records by default, so
  every ``sim-cluster`` cell, sweep cell and service job runs without a log:
  a ``paper-tables`` pass sends about 276,000 messages, and the tables read
  only their tallies.  Pass ``trace=Trace()`` to ``run_parallel_nmcs`` to
  get the log.

:meth:`Trace.payload_counts` and :meth:`Trace.makespan` read the tallies.
On a trace that keeps a log whose list was filled by hand (so the tallies no
longer cover it) they scan the log instead.  The log queries
(``messages``, :meth:`Trace.messages_between`, :meth:`Trace.messages_by_type`,
:meth:`Trace.communication_edges`) raise ``ValueError`` on a trace without a
log, rather than answer as if the run sent nothing.  Compute queries always
scan: a run has a quarter as many computations, and they are cheap to walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import KernelStats

__all__ = ["MessageRecord", "ComputeRecord", "Trace"]


@dataclass(slots=True)
class MessageRecord:
    """One point-to-point message (never changed once recorded)."""

    source: str
    dest: str
    tag: int
    payload_type: str
    size_bytes: float
    sent_at: float
    received_at: float
    delivered: bool = True


@dataclass(slots=True)
class ComputeRecord:
    """One completed computation on a node (never changed once recorded)."""

    pid: str
    node: str
    start: float
    end: float
    work: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """The records of one simulated run (see the module docstring).

    ``messages`` and ``computes`` start a trace from records of your own;
    ``log_messages=False`` keeps no message log, so it takes no
    ``messages``.  ``kernel_stats`` holds the diagnostics of the run that
    produced the trace; :meth:`repro.cluster.simulator.Kernel.run` fills it
    (None for hand-built traces).
    """

    def __init__(
        self,
        messages: Optional[List[MessageRecord]] = None,
        computes: Optional[List[ComputeRecord]] = None,
        log_messages: bool = True,
        kernel_stats: Optional["KernelStats"] = None,
    ) -> None:
        if log_messages and messages is None:
            messages = []
        elif not log_messages and messages is not None:
            raise ValueError("a trace with log_messages=False keeps no messages")
        #: The message log, or None when this trace keeps none.
        self._messages: Optional[List[MessageRecord]] = messages
        self.computes: List[ComputeRecord] = computes if computes is not None else []
        self.kernel_stats = kernel_stats
        # Running tallies of what record_message saw (see the module docstring).
        self._payload_counts: Dict[str, int] = {}
        self._last_received = 0.0

    @property
    def messages(self) -> List[MessageRecord]:
        """The message log, in delivery order (raises on a trace without one)."""
        if self._messages is None:
            raise ValueError(
                "this trace kept no message log, only per-payload tallies; "
                "run_parallel_nmcs(..., trace=Trace()) records one"
            )
        return self._messages

    # ------------------------------------------------------------------ #
    # Recording (called by the kernel)
    # ------------------------------------------------------------------ #
    def record_message(
        self,
        source: str,
        dest: str,
        tag: int,
        payload: object,
        size_bytes: float,
        sent_at: float,
        received_at: float,
    ) -> None:
        payload_type = type(payload).__name__
        if self._messages is not None:
            self._messages.append(
                MessageRecord(source, dest, tag, payload_type, size_bytes, sent_at, received_at)
            )
        counts = self._payload_counts
        counts[payload_type] = counts.get(payload_type, 0) + 1
        if received_at > self._last_received:
            self._last_received = received_at

    def record_compute(self, pid: str, node: str, start: float, end: float, work: float) -> None:
        self.computes.append(ComputeRecord(pid, node, start, end, work))

    def _messages_tallied(self) -> bool:
        """Whether the tallies cover the messages (no log, or one not filled by hand)."""
        return self._messages is None or sum(self._payload_counts.values()) == len(self._messages)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def messages_between(self, source_prefix: str, dest_prefix: str) -> List[MessageRecord]:
        """Messages whose source / destination names start with the given prefixes."""
        return [
            m
            for m in self.messages
            if m.source.startswith(source_prefix) and m.dest.startswith(dest_prefix)
        ]

    def messages_by_type(self, payload_type: str) -> List[MessageRecord]:
        """Messages carrying a payload of the given class name."""
        return [m for m in self.messages if m.payload_type == payload_type]

    def payload_counts(self) -> Dict[str, int]:
        """Message counts per payload class name, in order of first appearance."""
        if self._messages_tallied():
            return dict(self._payload_counts)
        counts: Dict[str, int] = {}
        for m in self.messages:
            counts[m.payload_type] = counts.get(m.payload_type, 0) + 1
        return counts

    def computes_by_process(self, pid_prefix: str) -> List[ComputeRecord]:
        """Computations of every process whose name starts with ``pid_prefix``."""
        return [c for c in self.computes if c.pid.startswith(pid_prefix)]

    def total_work(self, pid_prefix: str = "") -> float:
        """Total work units executed by matching processes."""
        return sum(c.work for c in self.computes if c.pid.startswith(pid_prefix))

    def busy_time(self, pid_prefix: str = "") -> float:
        """Total busy seconds of matching processes."""
        return sum(c.duration for c in self.computes if c.pid.startswith(pid_prefix))

    def makespan(self) -> float:
        """Time of the last recorded activity."""
        last = 0.0
        if self.computes:
            last = max(last, max(c.end for c in self.computes))
        if self._messages_tallied():
            last = max(last, self._last_received)
        elif self._messages:
            last = max(last, max(m.received_at for m in self._messages))
        return last

    def max_concurrency(self, pid_prefix: str = "client") -> int:
        """Maximum number of matching computations overlapping in time.

        This quantifies the parallel overlap of Figures 3 and 5(e/e'):
        with ``n`` clients and enough outstanding jobs, up to ``n`` client
        computations run concurrently.
        """
        points: List[Tuple[float, int]] = []
        for c in self.computes:
            if not c.pid.startswith(pid_prefix):
                continue
            points.append((c.start, +1))
            points.append((c.end, -1))
        # Ends sort before starts at the same instant so that back-to-back
        # computations on the same client are not counted as overlapping.
        points.sort(key=lambda p: (p[0], p[1]))
        best = current = 0
        for _, delta in points:
            current += delta
            best = max(best, current)
        return best

    def mean_concurrency(self, pid_prefix: str = "client") -> float:
        """Time-averaged number of matching computations in flight."""
        horizon = self.makespan()
        if horizon <= 0:
            return 0.0
        return self.busy_time(pid_prefix) / horizon

    def communication_edges(self) -> Dict[Tuple[str, str], int]:
        """Message counts per (source, destination) pair."""
        edges: Dict[Tuple[str, str], int] = {}
        for m in self.messages:
            key = (m.source, m.dest)
            edges[key] = edges.get(key, 0) + 1
        return edges

    def clear(self) -> None:
        """Drop every record (reuse the trace object for another run)."""
        if self._messages is not None:
            self._messages.clear()
        self.computes.clear()
        self._payload_counts.clear()
        self._last_received = 0.0
