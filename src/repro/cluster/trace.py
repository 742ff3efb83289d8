"""Execution traces: every message and every computation of a simulated run.

The paper's Figures 2–5 describe the communication patterns of the
Round-Robin and Last-Minute algorithms (which process talks to which, and
which communications overlap in time).  Rather than drawing diagrams, the
reproduction records a full trace of the simulated run and provides queries
that verify and quantify those patterns — see
:mod:`repro.analysis.commpattern` for the figure-level analysis built on top
of these records.

A run records hundreds of thousands of messages, and every simulated cell
is summarised right after it runs, so the trace also counts messages per
payload type, and keeps the latest receive time, as it records them.
:meth:`Trace.payload_counts` and :meth:`Trace.makespan` read those tallies
instead of re-scanning the messages whenever every message came through
:meth:`Trace.record_message`; on a trace whose message list was filled by
hand they scan.  Compute queries always scan: a run has a quarter as many
computations, and they are cheap to walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import KernelStats

__all__ = ["MessageRecord", "ComputeRecord", "Trace"]


@dataclass(frozen=True)
class MessageRecord:
    """One point-to-point message."""

    source: str
    dest: str
    tag: int
    payload_type: str
    size_bytes: float
    sent_at: float
    received_at: float
    delivered: bool = True


@dataclass(frozen=True)
class ComputeRecord:
    """One completed computation on a node."""

    pid: str
    node: str
    start: float
    end: float
    work: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """All records of one simulated run."""

    messages: List[MessageRecord] = field(default_factory=list)
    computes: List[ComputeRecord] = field(default_factory=list)
    enabled: bool = True
    #: Kernel diagnostics of the run that produced this trace; filled by
    #: :meth:`repro.cluster.simulator.Kernel.run` (None for hand-built traces).
    kernel_stats: Optional["KernelStats"] = None

    def __post_init__(self) -> None:
        # Running tallies of what record_message appended (see the module docstring).
        self._payload_counts: Dict[str, int] = {}
        self._last_received = 0.0

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
        if not self.enabled:
            return
        payload_type = type(payload).__name__
        self.messages.append(
            MessageRecord(source, dest, tag, payload_type, size_bytes, sent_at, received_at)
        )
        counts = self._payload_counts
        counts[payload_type] = counts.get(payload_type, 0) + 1
        if received_at > self._last_received:
            self._last_received = received_at

    def record_compute(self, pid: str, node: str, start: float, end: float, work: float) -> None:
        if not self.enabled:
            return
        self.computes.append(ComputeRecord(pid, node, start, end, work))

    def _messages_tallied(self) -> bool:
        """Whether the tallies cover the message list (it was not filled by hand)."""
        return sum(self._payload_counts.values()) == len(self.messages)

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
        elif self.messages:
            last = max(last, max(m.received_at for m in self.messages))
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
        self.messages.clear()
        self.computes.clear()
        self._payload_counts.clear()
        self._last_received = 0.0
