"""The worker-process pool behind ``Engine.stream(executor="process")``.

``Engine.stream(..., executor="process")``, ``repro sweep --processes N`` and
``repro serve --processes N`` run CPU-bound cells GIL-free on worker
processes.  This module is the only one that knows how a cell travels to a
worker and back:

* **Persistent workers.** Daemonic processes are forked once and reused
  across batches and whole sweeps; :func:`shared_pool` is the process-wide
  instance, so repeated batches pay the spawn cost once.
* **Cells travel as spec dicts.** A :class:`~repro.api.SearchSpec` is a
  complete, JSON-round-trippable description of one cell (its result is a
  function of the spec alone), so the one task frame is ``("cells",
  batch_id, [(cell_index, spec_dict), ...], obs_enabled)`` and no game
  state, executor or engine object ever crosses the process boundary.  Each
  worker keeps one :class:`~repro.api.Engine` alive across chunks, so the
  engine's per-workload job caches persist for the whole sweep exactly as
  they do in the parent's inline path.
* **Chunked dispatch.** Small cells (sub-100 ms kernel runs) would drown in
  per-cell IPC; cells are batched per task frame, :func:`auto_chunk_size`
  cells at a time (chosen from the batch and pool size).  Results still
  stream back one ``("cell", batch_id, index, status, payload)`` frame per
  *cell* — status ``ok`` (a report dict), ``err`` (the rendered exception)
  or ``skip`` (cancelled before it started) — then one
  ``("chunk", batch_id, obs_snapshot_or_None)`` frame per chunk, so
  parent-side progress events stay live whatever the chunk size.
* **One batch at a time.** :meth:`SweepWorkerPool.run` is one batch, and
  frames left over from an earlier, abandoned batch are dropped by their
  batch id.  One module lock is held for the whole of a batch on the shared
  pool (:func:`run_batch`) and while :func:`shared_pool` builds or replaces
  that pool: threads sharing it take turns, a resize waits for the running
  batch, and no second pool is ever built.  The lock is not re-entrant:
  calling :func:`shared_pool` or starting another process stream from
  inside a running process stream's consumer loop deadlocks.
* **Cooperative cancellation.** Workers check the pool's shared
  ``multiprocessing.Event`` before every cell; a cell cancelled by its own
  stream reports a ``skip`` frame (no terminal :class:`~repro.api.RunEvent`
  — exactly the inline path's early-out) and the chunk keeps draining, so
  the pool is reusable the moment the batch ends.  A pool closed under a
  batch fails it instead: a skipped cell with a failed event, a batch still
  waiting for frames with ``RuntimeError``.
* **Telemetry merge.** When :mod:`repro.obs` is enabled, each worker
  snapshots its registry after every chunk and ships the snapshot home; the
  parent folds it into its own registry via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, so
  ``repro stats`` counts cells run in children.
* **Fail fast.** A cell that raised comes home as :class:`RemoteCellError`.
  A worker that dies (a signal, the OOM killer) sends no frame;
  :meth:`~SweepWorkerPool.next_frame` notices it at its next empty poll
  tick, tears the pool down and raises ``RuntimeError``, and
  :func:`shared_pool` then builds a fresh one.

The store is deliberately **not** given to the workers: cache hits
short-circuit in the parent, misses dispatch, and the parent persists each
completed report exactly once from the event-consuming thread (see
``Engine.stream``).  Two *separate* sweep processes sharing one store are
serialised by :class:`repro.lab.store.ResultStore`'s inter-process file lock
instead.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as _queue
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.api import Engine, RunReport, SearchSpec

__all__ = [
    "SweepWorkerPool",
    "RemoteCellError",
    "auto_chunk_size",
    "shared_pool",
    "close_shared_pool",
    "run_batch",
]

#: Upper bound on the auto-chosen chunk size: past this, a straggler chunk
#: can idle the rest of the pool for no further IPC savings.
_MAX_AUTO_CHUNK = 16

#: How long :meth:`SweepWorkerPool.next_frame` waits for a frame before it
#: checks that every worker lives and hands control back to the batch loop.
_POLL_S = 0.1


class RemoteCellError(RuntimeError):
    """A cell raised inside a worker process.

    The original exception has no faithful cross-process form, so the parent
    re-raises this carrying the rendered ``"TypeName: message"`` — the same
    lossy-but-honest convention as :meth:`repro.api.RunEvent.to_dict`.
    """


def auto_chunk_size(n_cells: int, n_workers: int) -> int:
    """The default cells-per-task-frame for a batch of ``n_cells``.

    Aims for ~4 chunks per worker so stragglers rebalance, clamped to
    [1, 16]: one-cell chunks when the batch is small (latency over
    amortisation), bounded chunks when it is huge (amortisation without
    head-of-line blocking).
    """
    if n_cells <= 0 or n_workers <= 0:
        raise ValueError("n_cells and n_workers must be positive")
    return max(1, min(_MAX_AUTO_CHUNK, n_cells // (n_workers * 4)))


def _worker_main(tasks: Any, results: Any, cancel: Any) -> None:
    """Worker loop: run ``cells`` task frames until a ``None`` frame."""
    # A forked worker inherits the parent's counter values; zero them so the
    # per-chunk snapshots it ships home describe this worker's work only.
    obs.metrics.reset()
    engine = Engine()
    while True:
        frame = tasks.get()
        if frame is None:
            break
        _, batch_id, cells, obs_enabled = frame
        if obs_enabled and not obs.enabled():
            obs.enable()
        elif not obs_enabled and obs.enabled():
            obs.disable()
        for index, spec_dict in cells:
            if cancel.is_set():
                results.put(("cell", batch_id, index, "skip", None))
                continue
            try:
                report = engine.run(SearchSpec.from_dict(spec_dict))
                results.put(("cell", batch_id, index, "ok", report.to_dict()))
            except Exception as exc:  # an error frame, never a dead parent
                results.put(("cell", batch_id, index, "err", f"{type(exc).__name__}: {exc}"))
        snapshot = obs.metrics.snapshot() if obs_enabled else None
        if obs_enabled:
            obs.metrics.reset()
        results.put(("chunk", batch_id, snapshot))


class SweepWorkerPool:
    """A pool of long-lived worker processes that runs batches of cells.

    Unlike ``multiprocessing.Pool``, the pool is meant to outlive a single
    sweep: create it once (or use :func:`shared_pool`) and every batch
    reuses the same worker processes.  Close a pool you build, or use it as
    a context manager.  It runs one batch at a time; threads that share a
    pool go through :func:`run_batch`.
    """

    def __init__(self, n_workers: Optional[int] = None):
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        self._tasks = multiprocessing.Queue()
        self._results = multiprocessing.Queue()
        self._cancel = multiprocessing.Event()
        self._workers = [
            multiprocessing.Process(
                target=_worker_main,
                args=(self._tasks, self._results, self._cancel),
                daemon=True,
            )
            for _ in range(self.n_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._next_batch = 0
        self._closed = False
        #: lifetime counters (reporting, tests and diagnostics)
        self.chunks_dispatched = 0
        self.cells_dispatched = 0

    def run(
        self,
        pending: List[Tuple[int, SearchSpec]],
        stop: Callable[[], bool],
    ) -> Iterator[Tuple[int, str, Any]]:
        """Run one batch of ``(index, spec)`` cells, reporting them in completion order.

        Yields ``(index, "started", None)`` for each cell as its chunk of
        :func:`auto_chunk_size` cells fills, submits the chunk, then yields
        ``(index, "completed", report)`` or ``(index, "failed", exception)``
        as the workers answer.  Once ``stop()`` turns true the batch is
        cancelled: no further chunk is submitted, cells not yet running in a
        worker are skipped and yield nothing more, and the batch drains
        before ``run`` returns.  A cell skipped although ``stop()`` never
        turned true (the pool was closed under the batch) fails with
        ``RuntimeError``.  Closing the generator early cancels the cells
        still in flight.
        """
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        if not pending:
            return
        self._cancel.clear()
        self._next_batch += 1
        batch_id = self._next_batch
        size = auto_chunk_size(len(pending), self.n_workers)
        obs_on = obs.enabled()
        outstanding_cells: set = set()
        outstanding_chunks = 0
        cancelled = False
        try:
            for start in range(0, len(pending), size):
                if stop():
                    break
                chunk = pending[start : start + size]
                for index, _ in chunk:
                    yield index, "started", None
                    outstanding_cells.add(index)
                self.submit_chunk(
                    batch_id, [(index, spec.to_dict()) for index, spec in chunk], obs_on
                )
                outstanding_chunks += 1
            while outstanding_cells or outstanding_chunks:
                if not cancelled and stop():
                    self._cancel.set()
                    cancelled = True
                frame = self.next_frame(batch_id)
                if frame is None:
                    continue
                if frame[0] == "chunk":
                    outstanding_chunks -= 1
                    if frame[2] is not None:
                        obs.metrics.merge_snapshot(frame[2])
                    continue
                _, _, index, status, payload = frame
                outstanding_cells.discard(index)
                if status == "ok":
                    yield index, "completed", RunReport.from_dict(payload)
                elif status == "err":
                    yield index, "failed", RemoteCellError(payload)
                elif not cancelled:
                    yield index, "failed", RuntimeError("the worker pool was closed mid-batch")
        finally:
            # An abandoned batch leaves cells in flight; cancel them so they
            # drain as skips — the next batch's next_frame drops their frames.
            if outstanding_cells or outstanding_chunks:
                self._cancel.set()

    def submit_chunk(
        self,
        batch_id: int,
        cells: Sequence[Tuple[int, Dict[str, Any]]],
        obs_enabled: bool,
    ) -> None:
        """Enqueue one ``cells`` task frame of ``(cell_index, spec_dict)`` pairs."""
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        self._tasks.put(("cells", batch_id, list(cells), obs_enabled))
        self.chunks_dispatched += 1
        self.cells_dispatched += len(cells)

    def next_frame(self, batch_id: int) -> Optional[Tuple[Any, ...]]:
        """The next result frame of ``batch_id``, or ``None`` on a poll tick.

        Returning ``None`` (rather than blocking indefinitely) lets the
        caller re-check its cancel flag between frames.  Frames from other
        batches — left behind when an earlier batch stopped reading before
        its last frame — are dropped.  Raises ``RuntimeError`` once the pool
        was closed (:meth:`close` from another thread, or the interpreter's
        exit), and once a worker has died, after tearing the pool down.
        """
        while True:
            try:
                frame = self._results.get(timeout=_POLL_S)
            except (_queue.Empty, ValueError):  # ValueError: close() closed the queue
                if self._closed:
                    raise RuntimeError("the worker pool was closed mid-batch") from None
                if not self.alive:
                    self._reap()
                    raise RuntimeError(
                        "a worker process died; the pool has been torn down"
                    ) from None
                return None
            if frame[1] == batch_id:
                return frame

    @property
    def alive(self) -> bool:
        """True while the pool is open and every worker process lives."""
        return not self._closed and all(w.is_alive() for w in self._workers)

    def _reap(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        self._closed = True

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._cancel.set()
        for _ in self._workers:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):  # pragma: no cover - defensive
                break
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
        self._tasks.close()
        self._results.close()

    def __enter__(self) -> "SweepWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Held for the whole of a batch on the shared pool and while that pool is
#: built or replaced, never by :func:`close_shared_pool`.
_LOCK = threading.Lock()
_SHARED: Optional[SweepWorkerPool] = None


def _shared_pool_locked(n_workers: Optional[int]) -> SweepWorkerPool:
    """:func:`shared_pool`'s body; the caller holds ``_LOCK``."""
    global _SHARED
    wanted = n_workers if n_workers is not None else (os.cpu_count() or 1)
    if _SHARED is None or not _SHARED.alive or _SHARED.n_workers != wanted:
        if _SHARED is not None:
            _SHARED.close()
        _SHARED = SweepWorkerPool(n_workers=wanted)
    return _SHARED


def shared_pool(n_workers: Optional[int] = None) -> SweepWorkerPool:
    """The process-wide persistent pool, (re)created on size change or death.

    This is what makes the pool *persistent across sweeps*: every
    ``Engine.stream(executor="process")`` call shares these workers, so
    repeated batches pay the process spawn cost once.  Waits for a batch
    running on the shared pool, so a size change never closes a pool that
    another thread is streaming on.
    """
    with _LOCK:
        return _shared_pool_locked(n_workers)


def run_batch(
    pending: List[Tuple[int, SearchSpec]],
    stop: Callable[[], bool],
    max_workers: Optional[int] = None,
) -> Iterator[Tuple[int, str, Any]]:
    """Run one batch on the shared pool of ``max_workers`` workers.

    The events are :meth:`SweepWorkerPool.run`'s.  The module lock is held
    from the first event until the generator ends or is closed, so a second
    thread's batch waits for this one.  An empty batch builds no pool.
    """
    if not pending:
        return
    with _LOCK:
        yield from _shared_pool_locked(max_workers).run(pending, stop)


def close_shared_pool() -> None:
    """Tear down the process-wide pool (also registered at interpreter exit).

    Takes no lock, so interpreter exit never waits for a batch; a batch
    still running on the pool fails.
    """
    global _SHARED
    pool, _SHARED = _SHARED, None
    if pool is not None:
        pool.close()


atexit.register(close_shared_pool)
