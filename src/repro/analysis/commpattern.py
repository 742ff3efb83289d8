"""Communication-pattern analysis: the reproduction of Figures 2–5.

Figures 2 and 4 of the paper are diagrams of the message types exchanged by
the process roles; Figures 3 and 5 illustrate that those communications (and
the client computations they trigger) happen in parallel.  Instead of
diagrams, the reproduction derives the same information from the execution
trace of a simulated run:

* every message, counted by the trace's per-payload tallies, is classified
  into the paper's communication types
  (a) root→median task, (b) median→dispatcher request / dispatcher→median
  reply / median→client job, (c) client→median result, (c') client→dispatcher
  free notification (Last-Minute only) and (d) median→root result;
* the computation records quantify the overlap: how many client computations
  ran concurrently (Figures 3/5 "parallel communications").

``verify_pattern`` checks the structural properties the figures assert:
counts that must match (one reply per request, one result per job), and the
presence/absence of the (c') edge depending on the dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.trace import Trace
from repro.parallel.config import DispatcherKind

__all__ = [
    "CommunicationSummary",
    "analyze_communications",
    "communication_counts",
    "verify_pattern",
]

#: Map from payload class name to the paper's communication label.
_PAYLOAD_TO_KIND = {
    "MedianTask": "a: root->median task",
    "DispatchRequest": "b1: median->dispatcher request",
    "DispatchReply": "b2: dispatcher->median reply",
    "ClientJob": "b3: median->client job",
    "ClientResult": "c: client->median result",
    "ClientFree": "c': client->dispatcher free",
    "MedianResult": "d: median->root result",
    "Shutdown": "control: shutdown",
}


@dataclass
class CommunicationSummary:
    """Counts and overlap statistics extracted from a run's trace."""

    counts: Dict[str, int] = field(default_factory=dict)
    max_client_concurrency: int = 0
    mean_client_concurrency: float = 0.0
    n_clients_used: int = 0
    makespan: float = 0.0

    def count(self, kind: str) -> int:
        """Number of messages of the given communication kind."""
        return self.counts.get(kind, 0)


def communication_counts(trace: Trace) -> Dict[str, int]:
    """Message counts per communication kind of the paper, from the trace's tallies.

    This is the ``comm`` of a ``sim-cluster`` report; it reads the running
    payload tallies (see :class:`~repro.cluster.trace.Trace`), so it needs
    no message log.
    """
    counts: Dict[str, int] = {}
    for payload_type, n in trace.payload_counts().items():
        kind = _PAYLOAD_TO_KIND.get(payload_type, f"other: {payload_type}")
        counts[kind] = counts.get(kind, 0) + n
    return counts


def analyze_communications(trace: Trace) -> CommunicationSummary:
    """Classify every traced message and measure client-compute overlap.

    Message counts come from :func:`communication_counts` and the makespan
    from the trace's tallies, so a trace without a message log will do; the
    overlap figures scan the compute records.
    """
    clients_used = {c.pid for c in trace.computes if c.pid.startswith("client")}
    return CommunicationSummary(
        counts=communication_counts(trace),
        max_client_concurrency=trace.max_concurrency("client"),
        mean_client_concurrency=trace.mean_concurrency("client"),
        n_clients_used=len(clients_used),
        makespan=trace.makespan(),
    )


def verify_pattern(
    summary: CommunicationSummary, dispatcher: DispatcherKind
) -> List[str]:
    """Check the structural properties asserted by Figures 2–5.

    Returns a list of human-readable violations (empty = the trace matches
    the paper's communication pattern).
    """
    problems: List[str] = []
    tasks = summary.count("a: root->median task")
    requests = summary.count("b1: median->dispatcher request")
    replies = summary.count("b2: dispatcher->median reply")
    jobs = summary.count("b3: median->client job")
    results = summary.count("c: client->median result")
    frees = summary.count("c': client->dispatcher free")
    median_results = summary.count("d: median->root result")

    if tasks == 0:
        problems.append("no root->median task was sent (communication a missing)")
    if median_results != tasks:
        problems.append(
            f"every root task must produce exactly one median result "
            f"(tasks={tasks}, results={median_results})"
        )
    if replies != requests:
        problems.append(
            f"every dispatcher request must get exactly one reply "
            f"(requests={requests}, replies={replies})"
        )
    if jobs != requests:
        problems.append(
            f"every dispatcher reply must be followed by exactly one client job "
            f"(requests={requests}, jobs={jobs})"
        )
    if results != jobs:
        problems.append(
            f"every client job must produce exactly one result (jobs={jobs}, results={results})"
        )
    if dispatcher is DispatcherKind.LAST_MINUTE:
        if frees != jobs:
            problems.append(
                f"Last-Minute clients must notify the dispatcher after every job "
                f"(jobs={jobs}, notifications={frees})"
            )
    else:
        if frees != 0:
            problems.append(
                f"Round-Robin clients never notify the dispatcher (found {frees} notifications)"
            )
    return problems
