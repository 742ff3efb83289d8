"""The Round-Robin and Last-Minute dispatcher processes (Section IV).

The dispatcher's job is to tell median processes which client to use for each
lower-level search:

* the **Round-Robin** dispatcher answers every request immediately with the
  next client in a fixed cyclic order, regardless of whether that client is
  busy (jobs then queue at the client);
* the **Last-Minute** dispatcher keeps a list of free clients and a list of
  pending jobs.  Clients announce themselves when they become free
  (communication c' of Figure 4).  A freed client is assigned to the pending
  job with the *smallest number of moves played*, i.e. the job expected to
  take the longest, so slow or oversubscribed clients never hold the longest
  work — which is why the Last-Minute algorithm behaves better on
  heterogeneous clusters (Table VI).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.parallel.config import ParallelConfig
from repro.parallel.messages import (
    TAG_DISPATCH,
    ClientFree,
    DispatchReply,
    DispatchRequest,
    Shutdown,
)
from repro.parallel.roles import SMALL_MESSAGE_BYTES

__all__ = ["round_robin_dispatcher", "last_minute_dispatcher", "PendingJob"]


def round_robin_dispatcher(ctx, client_names: List[str]) -> Generator:
    """The Round-Robin dispatcher (paper pseudo-code, Section IV-A).

    ``client = first client; while true: receive median; send client; advance``.
    """
    if not client_names:
        raise ValueError("the dispatcher needs at least one client")
    index = 0
    served = 0
    while True:
        message = yield ctx.recv(tag=TAG_DISPATCH)
        payload = message.payload
        if isinstance(payload, Shutdown):
            return served
        if isinstance(payload, ClientFree):
            # Round-Robin ignores availability notifications (clients only
            # send them in Last-Minute mode, but tolerate stray ones).
            continue
        request: DispatchRequest = payload
        reply = DispatchReply(client=client_names[index])
        index = (index + 1) % len(client_names)
        served += 1
        yield ctx.send(request.median, reply, tag=TAG_DISPATCH, size_bytes=SMALL_MESSAGE_BYTES)


@dataclass
class PendingJob:
    """A median request the Last-Minute dispatcher could not serve immediately."""

    median: str
    moves_played: int
    arrival: int  # FIFO tie-breaker / ablation ordering


def last_minute_dispatcher(
    ctx,
    client_names: List[str],
    fifo_jobs: bool = False,
) -> Generator:
    """The Last-Minute dispatcher (paper pseudo-code, Section IV-B).

    Maintains ``listFreeClients`` (initially every client) and ``jobs``.  On a
    client notification: serve the pending job with the smallest number of
    moves played (longest expected remaining computation), or park the client.
    On a median request: hand out a free client, or queue the job.

    ``fifo_jobs`` is the ablation switch that
    ``benchmarks/bench_ablation_dispatcher.py`` measures: when True, pending
    jobs are served in arrival order instead of longest-expected-first.
    """
    if not client_names:
        raise ValueError("the dispatcher needs at least one client")
    free_clients: List[str] = list(client_names)
    # Min-heap keyed (moves_played, arrival) — or (arrival,) for the FIFO
    # ablation.  The arrival counter is unique, so keys are a total order
    # (the PendingJob payload is never compared) and pop order matches the
    # old min()+remove() scan exactly, in O(log n) instead of O(n).
    jobs: List[Tuple[Tuple[int, ...], PendingJob]] = []
    arrival_counter = 0
    served = 0

    def job_key(moves_played: int, arrival: int) -> Tuple[int, ...]:
        return (arrival,) if fifo_jobs else (moves_played, arrival)

    def pick_job() -> PendingJob:
        return heapq.heappop(jobs)[1]

    while True:
        message = yield ctx.recv(tag=TAG_DISPATCH)
        payload = message.payload
        if isinstance(payload, Shutdown):
            return served
        if isinstance(payload, ClientFree):
            if jobs:
                job = pick_job()
                served += 1
                yield ctx.send(
                    job.median,
                    DispatchReply(client=payload.client),
                    tag=TAG_DISPATCH,
                    size_bytes=SMALL_MESSAGE_BYTES,
                )
            else:
                free_clients.append(payload.client)
        elif isinstance(payload, DispatchRequest):
            if free_clients:
                client = free_clients.pop(0)
                served += 1
                yield ctx.send(
                    payload.median,
                    DispatchReply(client=client),
                    tag=TAG_DISPATCH,
                    size_bytes=SMALL_MESSAGE_BYTES,
                )
            else:
                job = PendingJob(
                    median=payload.median,
                    moves_played=payload.moves_played,
                    arrival=arrival_counter,
                )
                heapq.heappush(jobs, (job_key(job.moves_played, job.arrival), job))
                arrival_counter += 1
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"dispatcher received unexpected payload {payload!r}")
