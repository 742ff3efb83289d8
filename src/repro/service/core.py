"""The service core: a scheduler multiplexing submissions onto worker threads.

:class:`SearchService` is the long-running heart of ``repro serve``:

* submissions (:class:`~repro.api.SearchSpec` or
  :class:`~repro.lab.sweep.SweepSpec`, as objects or plain dicts) enter
  through :meth:`SearchService.submit`, which applies — in order —
  admission (a stopping service rejects), **deduplication** and the bounded
  **FIFO job queue** (rejection = backpressure, never blocking);
* dedup is two-level, mirroring the content-addressed
  :class:`~repro.lab.store.ResultStore`: a submission whose content key
  matches a queued/running job **attaches** to it — the second client
  subscribes to the first job's event stream and exactly one search
  executes — and a single-spec submission whose record already exists
  resolves *immediately* to a completed job carrying a ``cached`` event
  (zero searches).  A search's key is the store key of its *pinned* spec
  (the engine's cost model written into it), and an engine's result is a
  function of that spec, so equal keys mean equal results;
* persistent worker threads take jobs in submission order and drive them
  through :meth:`repro.api.Engine.stream` (so per-cell store caching, resume
  and cooperative cancellation via the job's ``threading.Event`` all come
  from the engine layer);
* every :class:`~repro.api.RunEvent` is published onto the job's history,
  which any number of subscribers replay/follow (see
  :class:`repro.service.jobs.Job`).

The queue, the job table and the counters sit behind one lock, with one
condition on it that wakes idle workers and a draining ``shutdown``.  The
service is transport-agnostic and runs on plain threads: in-process callers
use it directly (see ``tests/test_service.py``), and the threaded JSONL
server (:mod:`repro.service.transport`) calls it from one thread per
connection.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Union

from repro.api import Engine, RunEvent, SearchSpec
from repro.lab.keys import spec_key
from repro.lab.store import ResultStore
from repro.lab.sweep import SweepSpec
from repro.obs import metrics as _obs_metrics
from repro.service.jobs import Job, JobState

__all__ = ["SearchService", "ServiceConfig", "Submission"]

# Telemetry (no-ops unless repro.obs is enabled).
_SUBMISSIONS = _obs_metrics.counter(
    "repro_service_submissions_total",
    "submission acknowledgements, by client and ack status",
    labelnames=("client", "status"),
)
_REJECTIONS = _obs_metrics.counter(
    "repro_service_rejections_total",
    "rejected submissions, by reason",
    labelnames=("reason",),
)
_QUEUE_DEPTH = _obs_metrics.gauge(
    "repro_service_queue_depth", "jobs currently pending in the service queue"
)

#: What submit() accepts.
Submission = Union[SearchSpec, SweepSpec, Mapping[str, Any]]

#: How long ``shutdown`` waits for in-flight work unless given ``timeout``.
_DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`SearchService`.

    ``n_workers`` worker threads run jobs in submission order.
    ``queue_depth`` bounds pending jobs — submissions beyond it are rejected
    with ``queue_full`` (backpressure).

    ``cell_processes`` chooses where each job's *cells* execute inside the
    engine: the default (``None``) runs them inline on the job's worker
    thread; ``N`` ships CPU-bound cells to a persistent pool of ``N`` worker
    processes (``repro serve --processes N``), with child telemetry merged
    back so ``repro stats`` stays truthful.  Jobs still run one-at-a-time
    per pool batch, so two service workers never interleave result frames.
    """

    n_workers: int = 2
    queue_depth: int = 64
    cell_processes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.cell_processes is not None and self.cell_processes < 1:
            raise ValueError("cell_processes must be >= 1 when given")


class SearchService:
    """A threaded search-as-a-service job scheduler over one :class:`Engine`."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        store: Optional[ResultStore] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.store = store
        self.config = config if config is not None else ServiceConfig()
        #: Guards every field below.
        self._lock = threading.Lock()
        #: Notified when a job is queued, leaves the queue or finishes, and
        #: on exit: workers wait on it for work, ``shutdown`` for idle.
        self._changed = threading.Condition(self._lock)
        #: Queued jobs, oldest first; every one is in state QUEUED.
        self._pending: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        #: content key -> job id, for queued/running jobs only
        self._inflight: Dict[str, str] = {}
        self._running = 0
        self._ids = itertools.count(1)
        self._workers: List[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._exit = False
        self.stats = {
            "submitted": 0,
            "queued": 0,
            "cached": 0,
            "attached": 0,
            "rejected_queue_full": 0,
            "rejected_shutting_down": 0,
            "searches_started": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SearchService":
        """Spawn the worker pool (idempotent); returns ``self`` for chaining."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            for n in range(self.config.n_workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-service-worker-{n}", daemon=True
                )
                thread.start()
                self._workers.append(thread)
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting submissions and wind the pool down.

        ``drain=True`` lets queued and running jobs finish (bounded by
        ``timeout``, default 60 s); ``drain=False``
        cancels everything still pending first (running jobs stop at their
        next cell boundary — cancellation is cooperative).
        """
        deadline = time.monotonic() + (timeout if timeout is not None else _DRAIN_TIMEOUT_S)
        with self._changed:
            self._stopping = True
            if not drain:
                for job_id in list(self._inflight.values()):
                    self._cancel_job(self._jobs[job_id])
            self._changed.wait_for(lambda: not self._inflight, deadline - time.monotonic())
            self._exit = True
            self._changed.notify_all()
        for thread in self._workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)

    def __enter__(self) -> "SearchService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=False)

    # ------------------------------------------------------------------ #
    # Submission path
    # ------------------------------------------------------------------ #
    def submit(self, payload: Submission, *, client: str = "anon") -> Dict[str, Any]:
        """Admit one submission; returns the acknowledgement payload.

        ``client`` is a label recorded on the job.  The ack's ``status`` is
        one of:

        * ``"queued"`` — a new job was created and enqueued;
        * ``"cached"`` — the single-spec result already sat in the store;
          the returned job is complete with one ``cached`` event, zero
          searches executed;
        * ``"attached"`` — an identical submission is already queued or
          running; ``job_id`` names *that* job (subscribe to it for events);
        * ``"rejected"`` — with ``reason`` ``queue_full`` (and the
          ``queue_depth``) or ``shutting_down``; no job was created.

        Raises ``ValueError`` on malformed payloads (unknown spec fields,
        bad axis values, ...), which transports surface as error responses.
        """
        with self._lock:
            self.stats["submitted"] += 1
            stopping = self._stopping
        if stopping:
            return self._reject(client, "shutting_down")
        kind, payload, key, total_cells = self._normalise(payload)
        cached: Optional[Dict[str, Any]] = None
        if kind == "search" and self.store is not None:
            pinned = self._pin(payload)
            report = self.store.get(pinned)
            if report is not None:
                cached = RunEvent("cached", 0, 1, pinned, report=report, done=1).to_dict()
        with self._lock:
            job = self._jobs[self._inflight[key]] if key in self._inflight else None
            if job is not None:
                job.attached += 1
                status = "attached"
            elif cached is not None or len(self._pending) < self.config.queue_depth:
                job = Job(
                    f"job-{next(self._ids)}",
                    client=client,
                    kind=kind,
                    payload=payload,
                    key=key,
                    total_cells=total_cells,
                )
                self._jobs[job.id] = job
                if cached is None:
                    self._pending.append(job)
                    self._inflight[key] = job.id
                    _QUEUE_DEPTH.set(len(self._pending))
                    self._changed.notify_all()
                    status = "queued"
                else:
                    job.publish(cached)
                    job.finish(JobState.COMPLETED)
                    status = "cached"
            if job is not None:
                self.stats[status] += 1
                ack = {"status": status, "job_id": job.id, "state": job.state.value, "key": key}
        if job is None:  # no room in the queue
            return self._reject(client, "queue_full", queue_depth=self.config.queue_depth)
        _SUBMISSIONS.labels(client=client, status=status).inc()
        return ack

    def _reject(self, client: str, reason: str, **detail: Any) -> Dict[str, Any]:
        with self._lock:
            self.stats[f"rejected_{reason}"] += 1
        _SUBMISSIONS.labels(client=client, status="rejected").inc()
        _REJECTIONS.labels(reason=reason).inc()
        return {"status": "rejected", "reason": reason, **detail}

    def _pin(self, spec: SearchSpec) -> SearchSpec:
        """The spec as the batch layer would store it (engine cost model pinned)."""
        return self.engine._storable_spec(spec)

    def _normalise(self, payload: Submission) -> Any:
        """``(kind, payload, content_key, total_cells)`` of a submission.

        Dicts turn into :class:`SweepSpec` when they look like a sweep
        document (``axes``/``base`` keys), :class:`SearchSpec` otherwise.
        The content key matches what the execution path will consult: for a
        search, the store key of the *pinned* spec; for a sweep, a digest of
        its canonical document under the same salt.
        """
        if isinstance(payload, Mapping):
            if "axes" in payload or "base" in payload:
                payload = SweepSpec.from_dict(payload)
            else:
                payload = SearchSpec.from_dict(payload)
        if isinstance(payload, SweepSpec):
            salt = self.store.salt if self.store is not None else None
            return "sweep", payload, self._sweep_key(payload, salt), len(payload)
        if isinstance(payload, SearchSpec):
            pinned = self._pin(payload)
            key = self.store.key(pinned) if self.store is not None else spec_key(pinned)
            return "search", payload, key, 1
        raise ValueError(
            f"cannot submit {type(payload).__name__}; expected a SearchSpec, "
            "a SweepSpec, or a dict form of either"
        )

    @staticmethod
    def _sweep_key(sweep: SweepSpec, salt: Optional[str]) -> str:
        h = hashlib.blake2b(digest_size=20)
        if salt is not None:
            h.update(salt.encode("utf-8"))
        h.update(b"\x00sweep\x00")
        h.update(sweep.to_json().encode("utf-8"))
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # Introspection / control
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> Optional[Job]:
        """The live :class:`Job` record, or ``None`` for unknown ids."""
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The snapshot payload of one job, or ``None`` for unknown ids."""
        job = self.job(job_id)
        return None if job is None else job.snapshot()

    def jobs(self) -> List[Dict[str, Any]]:
        """Snapshots of every job this service has seen, in submission order."""
        with self._lock:
            records = list(self._jobs.values())
        return [job.snapshot() for job in records]

    def service_stats(self) -> Dict[str, Any]:
        """Counter snapshot plus live queue/worker occupancy."""
        with self._lock:
            stats = dict(self.stats)
            stats["running"] = self._running
            stats["inflight"] = len(self._inflight)
            stats["queue_size"] = len(self._pending)
        stats["n_workers"] = self.config.n_workers
        return stats

    def subscribe(
        self, job_id: str, *, replay: bool = True
    ) -> Iterator[Dict[str, Any]]:
        """Wire-form events of ``job_id`` until it drains (replay + live).

        Raises ``KeyError`` for unknown jobs (transports turn that into an
        error response).
        """
        job = self.job(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job.stream(replay=replay)

    def cancel(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Cooperatively cancel a job; returns its snapshot (None if unknown).

        A queued job leaves the queue and turns terminal immediately; a
        running job stops at its next cell boundary (the engine checks the
        flag before starting each cell — a cell mid-search finishes first).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            self._cancel_job(job)
        return job.snapshot()

    def _cancel_job(self, job: Job) -> None:
        """Cancel ``job``; the caller holds the lock."""
        job.cancel_event.set()
        if job.state is JobState.QUEUED:
            self._pending.remove(job)
            del self._inflight[job.key]
            _QUEUE_DEPTH.set(len(self._pending))
            job.finish(JobState.CANCELLED)
            self._changed.notify_all()

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            with self._changed:
                self._changed.wait_for(lambda: self._pending or self._exit)
                if self._exit:
                    return
                # Popped and marked running in one critical section, so a
                # cancel sees the job either queued or running, never between.
                job = self._pending.popleft()
                _QUEUE_DEPTH.set(len(self._pending))
                job.mark_running()
                self._running += 1
                self.stats["searches_started"] += 1
            try:
                self._execute(job)
            finally:
                with self._changed:
                    self._running -= 1
                    del self._inflight[job.key]
                    self._changed.notify_all()

    def _execute(self, job: Job) -> None:
        """Drive one job through the engine's streaming batch layer."""
        batch: Any = job.payload if job.kind == "sweep" else [job.payload]
        last_error: Optional[str] = None
        try:
            for event in self.engine.stream(
                batch,
                store=self.store,
                error_policy="skip",
                max_workers=self.config.cell_processes,
                executor="inline" if self.config.cell_processes is None else "process",
                cancel=job.cancel_event,
            ):
                if event.kind == "failed" and event.error is not None:
                    last_error = f"{type(event.error).__name__}: {event.error}"
                job.publish(event.to_dict())
        except Exception as exc:  # malformed payloads the engine rejects late
            job.finish(JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            return
        if job.cancel_event.is_set():
            job.finish(JobState.CANCELLED)
        elif job.counts["failed"] and not (
            job.counts["completed"] or job.counts["cached"]
        ):
            job.finish(JobState.FAILED, error=last_error)
        else:
            # Partial failures under error_policy="skip" leave the job
            # completed; the per-cell failed events carry the detail.
            job.finish(JobState.COMPLETED, error=last_error)
