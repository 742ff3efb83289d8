"""The persistent worker-process pool behind ``Engine.stream(executor="process")``.

The pool runs sweep cells.  What is particular to sweeps (chunk sizing, the
worker-side cell handler, :class:`~repro.lab.procpool.RemoteCellError`)
lives in :mod:`repro.lab.procpool`; this module owns the processes:

* **Persistent workers** — processes are spawned once and reused across
  batches and whole sweeps (see :func:`shared_pool` for the process-wide
  singleton).
* **One kind of task frame** — every task is a ``cells`` frame
  ``("cells", batch_id, [(cell_index, spec_dict), ...], obs_enabled,
  network)``.  Cells cross the pipe as ``SearchSpec.to_dict()`` documents
  and reports come back as ``RunReport.to_dict()``, so no game position or
  move crosses the process boundary.
* **One batch at a time** — :meth:`PersistentWorkerPool.begin_batch` holds a
  lock, so threads sharing the pool queue instead of reading each other's
  result frames, and :meth:`~PersistentWorkerPool.next_frame` drops frames
  left over from an earlier, abandoned batch.
* **Fail fast** — a worker that dies (a signal, the OOM killer) sends no
  error frame; ``next_frame`` notices it at its next empty poll tick, tears
  the pool down and raises ``RuntimeError``, and :func:`shared_pool` then
  builds a fresh one.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as _queue
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

from repro import obs

__all__ = ["PersistentWorkerPool", "shared_pool", "close_shared_pool"]


def _worker_main(tasks: Any, results: Any, cancel: Any) -> None:
    """Worker loop: run ``cells`` task frames until a ``None`` frame."""
    # Deferred: the cell handler pulls in the whole engine, which imports
    # this module.
    from repro.lab.procpool import run_cells

    # A forked worker inherits the parent's counter values; zero them so the
    # per-chunk snapshots a ``cells`` frame ships home describe this
    # worker's work only.
    obs.metrics.reset()
    engines: Dict[str, Any] = {}
    while True:
        frame = tasks.get()
        if frame is None:
            break
        run_cells(frame, results, cancel, engines)


class PersistentWorkerPool:
    """A pool of long-lived worker processes fed by ``cells`` task frames.

    Unlike ``multiprocessing.Pool``, the pool is meant to outlive a single
    sweep: create it once (or use :func:`shared_pool`) and every batch
    reuses the same worker processes.
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
        self._batch_lock = threading.Lock()
        self._next_batch = 0
        self._closed = False
        #: lifetime counters (reporting, tests and diagnostics)
        self.chunks_dispatched = 0
        self.cells_dispatched = 0

    # ------------------------------------------------------------------ #
    # Batch protocol
    # ------------------------------------------------------------------ #
    def begin_batch(self) -> int:
        """Claim the pool for one batch; returns the batch id.

        Blocks while another batch runs.  Always pair with ``end_batch`` in
        a ``finally`` — the pool stays claimed (and every other caller
        blocked) otherwise.  The lock is not re-entrant: a thread holding a
        batch must not start another on the same pool.  That includes an
        ``Engine.stream(executor="process")`` consumer, which holds its
        batch while it yields events: starting a second process stream from
        that loop deadlocks.
        """
        self._batch_lock.acquire()
        if self._closed:  # also when closed while this caller waited
            self._batch_lock.release()
            raise RuntimeError("the worker pool has been closed")
        self._cancel.clear()
        self._next_batch += 1
        return self._next_batch

    def end_batch(self) -> None:
        """Release the pool for the next batch."""
        self._batch_lock.release()

    def submit_chunk(
        self,
        batch_id: int,
        cells: Sequence[Tuple[int, Dict[str, Any]]],
        obs_enabled: bool,
        network: Any = None,
    ) -> None:
        """Enqueue one ``cells`` task frame of ``(cell_index, spec_dict)`` pairs."""
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        self._tasks.put(("cells", batch_id, list(cells), obs_enabled, network))
        self.chunks_dispatched += 1
        self.cells_dispatched += len(cells)

    def cancel_batch(self) -> None:
        """Ask workers to skip cells not yet started (idempotent)."""
        self._cancel.set()

    def next_frame(self, batch_id: int, poll_s: float = 0.1) -> Optional[Tuple[Any, ...]]:
        """The next result frame of ``batch_id``, or ``None`` on a poll tick.

        Returning ``None`` (rather than blocking indefinitely) lets the
        caller re-check its cancel flag between frames.  Frames from other
        batches — left behind when an earlier batch stopped reading before
        its last frame — are dropped.  Raises ``RuntimeError`` once a worker
        has died, after tearing the pool down.
        """
        while True:
            try:
                frame = self._results.get(timeout=poll_s)
            except _queue.Empty:
                if not self.alive:
                    self._reap()
                    raise RuntimeError(
                        "a worker process died; the pool has been torn down"
                    ) from None
                return None
            if frame[1] == batch_id:
                return frame

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
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

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass


_SHARED: Optional[PersistentWorkerPool] = None


def shared_pool(n_workers: Optional[int] = None) -> PersistentWorkerPool:
    """The process-wide persistent pool, (re)created on size change or death.

    This is what makes the pool *persistent across sweeps*: every
    ``Engine.stream(executor="process")`` call shares these workers, so
    repeated batches pay the process spawn cost once.
    """
    global _SHARED
    wanted = n_workers if n_workers is not None else (os.cpu_count() or 1)
    if _SHARED is None or not _SHARED.alive or _SHARED.n_workers != wanted:
        if _SHARED is not None:
            _SHARED.close()
        _SHARED = PersistentWorkerPool(n_workers=wanted)
    return _SHARED


def close_shared_pool() -> None:
    """Tear down the process-wide pool (also registered at interpreter exit)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.close()
        _SHARED = None


atexit.register(close_shared_pool)
