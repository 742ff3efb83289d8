"""The service core: a scheduler multiplexing submissions onto worker pools.

:class:`SearchService` is the long-running heart of ``repro serve``:

* submissions (:class:`~repro.api.SearchSpec` or
  :class:`~repro.lab.sweep.SweepSpec`, as objects or plain dicts) enter
  through :meth:`SearchService.submit`, which applies — in order — the
  per-client token-bucket **rate limit**, **deduplication** and the bounded
  **job queue** (rejection = backpressure, never blocking);
* dedup is two-level, mirroring the content-addressed
  :class:`~repro.lab.store.ResultStore`: a single-spec submission whose
  record already exists resolves *immediately* to a completed job carrying a
  ``cached`` event (zero searches), and a submission whose content key
  matches a queued/running job **attaches** to it — the second client
  subscribes to the first job's event stream and exactly one search executes;
* persistent worker threads pop jobs under the queue's fairness policy and
  drive them through :meth:`repro.api.Engine.stream` (so per-cell store
  caching, resume and cooperative cancellation via the job's
  ``threading.Event`` all come from the engine layer);
* every :class:`~repro.api.RunEvent` is published onto the job's history,
  which any number of subscribers replay/follow (see
  :class:`repro.service.jobs.Job`).

The service is transport-agnostic and runs on plain threads: in-process
callers use it directly (see ``tests/test_service.py``), and the threaded
JSONL server (:mod:`repro.service.transport`) calls it from one thread per
connection.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.api import Engine, RunEvent, SearchSpec
from repro.lab.keys import spec_key
from repro.lab.store import ResultStore
from repro.lab.sweep import SweepSpec
from repro.obs import metrics as _obs_metrics
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue, QueueFull
from repro.service.ratelimit import ClientRateLimiter

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

#: What submit() accepts.
Submission = Union[SearchSpec, SweepSpec, Mapping[str, Any]]


#: Seconds a service worker waits on an empty queue before re-checking for
#: shutdown, and ``shutdown`` sleeps between its idle checks.
_POLL_INTERVAL_S = 0.05
#: How long ``shutdown`` waits for in-flight work unless given ``timeout``.
_DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`SearchService`.

    ``rate``/``burst`` configure the per-client token bucket (submissions per
    second / bucket capacity); ``rate=None`` disables rate limiting.
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
    rate: Optional[float] = None
    burst: Optional[float] = None
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
        clock: Any = time.monotonic,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.store = store
        self.config = config if config is not None else ServiceConfig()
        # The same salted view Engine.stream consults/writes, so the submit
        # path's cache probe and the execution path can never disagree.
        self._store_view = self.engine._store_for(store)
        self._limiter = ClientRateLimiter(self.config.rate, self.config.burst, clock)
        self._queue = JobQueue(self.config.queue_depth)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        #: content key -> job id, for queued/running jobs only
        self._inflight: Dict[str, str] = {}
        self._running = 0
        self._ids = itertools.count(1)
        self._workers: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._exit = threading.Event()
        self._started = False
        self.stats = {
            "submitted": 0,
            "queued": 0,
            "cached": 0,
            "attached": 0,
            "rejected_rate_limited": 0,
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
        self._stopping.set()
        if not drain:
            with self._lock:
                pending = [job for job in self._jobs.values() if not job.terminal]
            for job in pending:
                self._cancel_job(job)
        deadline = time.monotonic() + (
            timeout if timeout is not None else _DRAIN_TIMEOUT_S
        )
        while time.monotonic() < deadline:
            with self._lock:
                idle = not self._inflight and self._running == 0
            if idle:
                break
            time.sleep(_POLL_INTERVAL_S)
        self._exit.set()
        for thread in self._workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)

    def __enter__(self) -> "SearchService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=False)

    # ------------------------------------------------------------------ #
    # Submission path
    # ------------------------------------------------------------------ #
    def submit(
        self, payload: Submission, *, client: str = "anon", priority: int = 0
    ) -> Dict[str, Any]:
        """Admit one submission; returns the acknowledgement payload.

        The ack's ``status`` is one of:

        * ``"queued"`` — a new job was created and enqueued;
        * ``"cached"`` — the single-spec result already sat in the store;
          the returned job is complete with one ``cached`` event, zero
          searches executed;
        * ``"attached"`` — an identical submission is already queued or
          running; ``job_id`` names *that* job (subscribe to it for events);
        * ``"rejected"`` — with ``reason`` ``rate_limited`` / ``queue_full``
          / ``shutting_down``; no job was created.

        Raises ``ValueError`` on malformed payloads (unknown spec fields,
        bad axis values, ...), which transports surface as error responses.
        """
        with self._lock:
            self.stats["submitted"] += 1
        if self._stopping.is_set():
            return self._reject(client, "shutting_down")
        if not self._limiter.allow(client):
            return self._reject(client, "rate_limited")
        kind, payload, key, total_cells = self._normalise(payload)
        with self._lock:
            inflight_id = self._inflight.get(key)
            if inflight_id is not None:
                job = self._jobs[inflight_id]
                job.attached += 1
                self.stats["attached"] += 1
                _SUBMISSIONS.labels(client=client, status="attached").inc()
                return {
                    "status": "attached",
                    "job_id": job.id,
                    "state": job.state.value,
                    "key": key,
                }
        if kind == "search" and self._store_view is not None:
            report = self._store_view.get(self._pin(payload))
            if report is not None:
                return self._cached_job(payload, key, client, priority, report)
        job = Job(
            f"job-{next(self._ids)}",
            client=client,
            kind=kind,
            payload=payload,
            key=key,
            priority=priority,
            total_cells=total_cells,
        )
        with self._lock:
            # Re-check under the lock: an identical submission may have won
            # the race between the check above and here.
            inflight_id = self._inflight.get(key)
            if inflight_id is not None:
                existing = self._jobs[inflight_id]
                existing.attached += 1
                self.stats["attached"] += 1
                _SUBMISSIONS.labels(client=client, status="attached").inc()
                return {
                    "status": "attached",
                    "job_id": existing.id,
                    "state": existing.state.value,
                    "key": key,
                }
            try:
                self._queue.push(job)
            except QueueFull:
                self.stats["rejected_queue_full"] += 1
                _SUBMISSIONS.labels(client=client, status="rejected").inc()
                _REJECTIONS.labels(reason="queue_full").inc()
                return {
                    "status": "rejected",
                    "reason": "queue_full",
                    "queue_depth": self.config.queue_depth,
                }
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            self.stats["queued"] += 1
        _SUBMISSIONS.labels(client=client, status="queued").inc()
        return {"status": "queued", "job_id": job.id, "state": job.state.value, "key": key}

    def _reject(self, client: str, reason: str) -> Dict[str, Any]:
        with self._lock:
            self.stats[f"rejected_{reason}"] += 1
        _SUBMISSIONS.labels(client=client, status="rejected").inc()
        _REJECTIONS.labels(reason=reason).inc()
        return {"status": "rejected", "reason": reason}

    def _cached_job(
        self,
        spec: SearchSpec,
        key: str,
        client: str,
        priority: int,
        report: Any,
    ) -> Dict[str, Any]:
        """A pre-completed job for a store hit: one ``cached`` event, no search."""
        pinned = self._pin(spec)
        job = Job(
            f"job-{next(self._ids)}",
            client=client,
            kind="search",
            payload=spec,
            key=key,
            priority=priority,
            total_cells=1,
        )
        job.publish(RunEvent("cached", 0, 1, pinned, report=report, done=1).to_dict())
        job.finish(JobState.COMPLETED)
        with self._lock:
            self._jobs[job.id] = job
            self.stats["cached"] += 1
        _SUBMISSIONS.labels(client=client, status="cached").inc()
        return {"status": "cached", "job_id": job.id, "state": job.state.value, "key": key}

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
            salt = self._store_view.salt if self._store_view is not None else None
            return "sweep", payload, self._sweep_key(payload, salt), len(payload)
        if isinstance(payload, SearchSpec):
            pinned = self._pin(payload)
            if self._store_view is not None:
                key = self._store_view.key(pinned)
            else:
                key = spec_key(pinned)
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
        stats["queue_size"] = len(self._queue)
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

        A queued job turns terminal immediately; a running job stops at its
        next cell boundary (the engine checks the flag before starting each
        cell — a cell mid-search finishes first).
        """
        job = self.job(job_id)
        if job is None:
            return None
        self._cancel_job(job)
        return job.snapshot()

    def _cancel_job(self, job: Job) -> None:
        job.cancel_event.set()
        with self._lock:
            if job.state is JobState.QUEUED:
                job.finish(JobState.CANCELLED)
                if self._inflight.get(job.key) == job.id:
                    del self._inflight[job.key]

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while not self._exit.is_set():
            job = self._queue.pop(timeout=_POLL_INTERVAL_S)
            if job is None:
                continue
            if job.terminal:  # cancelled while queued; lazily dropped here
                continue
            with self._lock:
                self._running += 1
                self.stats["searches_started"] += 1
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._running -= 1
                    if self._inflight.get(job.key) == job.id:
                        del self._inflight[job.key]

    def _execute(self, job: Job) -> None:
        """Drive one job through the engine's streaming batch layer."""
        job.mark_running()
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
