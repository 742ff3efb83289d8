"""Job records: one submission's lifecycle, event history and subscriptions.

A :class:`Job` is the unit the service schedules: a single
:class:`~repro.api.SearchSpec` or a whole :class:`~repro.lab.sweep.SweepSpec`,
identified by a content key (see ``SearchService``), owning a cooperative
cancellation flag and an append-only history of wire-form
:class:`~repro.api.RunEvent` dicts.

The history doubles as the subscription layer: any number of subscribers read
the same list through private cursors (:meth:`Job.stream`), so a subscriber
that attaches late — e.g. the second client of a deduplicated submission —
replays everything the job already emitted before following it live.  One
condition variable per job wakes every subscriber on publish and on the
terminal transition; a subscriber blocks on it until there is an event past
its cursor or the job is terminal.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import metrics as _obs_metrics

__all__ = ["Job", "JobState"]

# Telemetry (no-ops unless repro.obs is enabled).
_QUEUE_WAIT = _obs_metrics.histogram(
    "repro_service_queue_wait_seconds",
    "time a job spent queued before a worker picked it up",
)
_JOB_SECONDS = _obs_metrics.histogram(
    "repro_service_job_seconds",
    "submit-to-terminal latency of service jobs, by terminal state",
    labelnames=("state",),
)
_JOBS_FINISHED = _obs_metrics.counter(
    "repro_service_jobs_finished_total",
    "jobs that reached a terminal state, by client and state",
    labelnames=("client", "state"),
)


class JobState(str, enum.Enum):
    """Lifecycle: ``queued`` → ``running`` → one of the three terminal states."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States after which a job's history can no longer grow.
TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}
)


class Job:
    """One scheduled submission and everything observable about it."""

    def __init__(
        self,
        job_id: str,
        *,
        client: str,
        kind: str,
        payload: Any,
        key: str,
        total_cells: int = 1,
    ) -> None:
        self.id = job_id
        self.client = client
        #: ``"search"`` (one SearchSpec) or ``"sweep"`` (a SweepSpec).
        self.kind = kind
        self.payload = payload
        #: Content key used for dedup (spec/sweep hash under the store salt).
        self.key = key
        self.total_cells = total_cells
        #: Submissions coalesced onto this job (1 = just the original).
        self.attached = 1
        self.cancel_event = threading.Event()
        self.state = JobState.QUEUED
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.counts = {"cached": 0, "completed": 0, "failed": 0}
        self._events: List[Dict[str, Any]] = []
        self._cond = threading.Condition()

    # ------------------------------------------------------------------ #
    # State transitions (driven by the scheduler/worker)
    # ------------------------------------------------------------------ #
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def mark_running(self) -> None:
        with self._cond:
            self.state = JobState.RUNNING
            self.started_at = time.time()
            _QUEUE_WAIT.observe(self.started_at - self.submitted_at)
            self._cond.notify_all()

    def publish(self, event: Dict[str, Any]) -> None:
        """Append one wire-form event and wake every subscriber."""
        with self._cond:
            self._events.append(event)
            kind = event.get("kind")
            if kind in self.counts:
                self.counts[kind] += 1
            self._cond.notify_all()

    def finish(self, state: JobState, error: Optional[str] = None) -> None:
        """Enter a terminal state (idempotent) and release all subscribers."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        with self._cond:
            if self.terminal:
                return
            self.state = state
            if error is not None:
                self.error = error
            self.finished_at = time.time()
            _JOB_SECONDS.labels(state=state.value).observe(
                self.finished_at - self.submitted_at
            )
            _JOBS_FINISHED.labels(client=self.client, state=state.value).inc()
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Subscription side
    # ------------------------------------------------------------------ #
    def stream(self, *, replay: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield wire-form events until the job is terminal and drained.

        ``replay=True`` starts from the beginning of the history (late
        subscribers see everything); ``replay=False`` follows live only.
        Between events the caller blocks on the job's condition, without a
        timeout: the check runs under the lock every notifier takes, so no
        notification is missed.
        """
        with self._cond:
            cursor = 0 if replay else len(self._events)
        while True:
            with self._cond:
                self._cond.wait_for(lambda: cursor < len(self._events) or self.terminal)
                batch = self._events[cursor:]
            if not batch:  # terminal, and the whole history was yielded
                return
            cursor += len(batch)
            yield from batch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready status payload (the ``status``/``jobs`` verb schema).

        ``queue_wait_seconds`` and ``wall_seconds`` are live while the job is
        still queued/running (measured up to now) and final once terminal.  A
        job that reached a terminal state without ever starting (store-cached
        submissions, cancellations while queued) spent its whole life in the
        queue: its wait is submit→finish and its wall time 0.
        """
        with self._cond:
            done = sum(self.counts.values())
            now = time.time()
            if self.started_at is not None:
                queue_wait = self.started_at - self.submitted_at
                wall_end = self.finished_at if self.finished_at is not None else now
                wall = wall_end - self.started_at
            elif self.finished_at is not None:
                queue_wait = self.finished_at - self.submitted_at
                wall = 0.0
            else:
                queue_wait = now - self.submitted_at
                wall = 0.0
            return {
                "id": self.id,
                "client": self.client,
                "kind": self.kind,
                "state": self.state.value,
                "key": self.key,
                "attached": self.attached,
                "cells": {"total": self.total_cells, "done": done, **self.counts},
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "queue_wait_seconds": queue_wait,
                "wall_seconds": wall,
                "error": self.error,
            }
