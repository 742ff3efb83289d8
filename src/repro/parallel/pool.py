"""The persistent, pickle-free worker-process pool behind every real parallel path.

One pool serves both kinds of out-of-process work in the library:

* **candidate evaluations** — the root-level fan-out of
  :func:`repro.parallel.multiproc.multiprocessing_nmcs`;
* **sweep cells** — ``Engine.stream(..., executor="process")``, whose
  sweep-specific pieces (chunk sizing, the worker-side cell handler,
  :class:`~repro.lab.procpool.RemoteCellError`) live in
  :mod:`repro.lab.procpool`.

Both travel as task frames whose first field names their kind (``"job"``, one
candidate evaluation, or ``"cells"``) and whose second is the id of the batch
that sent them:

* **Persistent workers** — processes are spawned once and reused across
  batches, steps, whole searches and sweeps (see :func:`shared_pool` for the
  process-wide singleton).
* **Compact wire forms** — positions cross the process boundary as the
  game's own binary ``encode()`` frame (see :mod:`repro.games.base`), not as
  a pickled object graph; games without a registered wire kind transparently
  fall back to pickle payloads inside the same framing.  Sweep cells travel
  as ``SearchSpec.to_dict()`` documents.
* **Worker-side decode caching** — every candidate evaluation of a step
  shares one encoded blob, so each worker decodes a given position at most
  once and replays cheap ``copy()`` calls for the rest of the batch.
* **One batch at a time** — :meth:`PersistentWorkerPool.begin_batch` holds a
  lock, so threads sharing the pool queue instead of reading each other's
  result frames, and :meth:`~PersistentWorkerPool.next_frame` drops frames
  left over from an earlier, abandoned batch.
* **Fail fast** — a worker that dies (a signal, the OOM killer) sends no
  error frame; ``next_frame`` notices it at its next empty poll tick, tears
  the pool down and raises ``RuntimeError``, and :func:`shared_pool` then
  builds a fresh one.

Moves and result sequences cross the pipe as the game's own move objects, so
a pooled search returns exactly what the sequential one does; seeds travel
as ``(master_seed, path)`` label tuples.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as _queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.counters import WorkCounter
from repro.core.nested import evaluate_move
from repro.games.base import GameState, Move, decode_state
from repro.prng import SeedSequence

__all__ = ["PersistentWorkerPool", "shared_pool", "close_shared_pool"]

#: Worker-side decoded-position cache size (distinct encoded blobs).
_DECODE_CACHE_LIMIT = 64

#: Seconds a batch of candidate evaluations waits without any result before
#: it declares the pool wedged.  Sweep batches have no such deadline: a cell may
#: legitimately run for hours.
_JOB_TIMEOUT_S = 600.0


def _run_job(frame: Tuple[Any, ...], decode_cache: Dict[bytes, GameState]) -> Tuple[Any, ...]:
    """Run one ``job`` frame, a candidate evaluation, and return its result frame."""
    _, batch_id, job_id, blob, move, level, master_seed, path = frame
    try:
        state = decode_cache.get(blob)
        if state is None:
            if len(decode_cache) >= _DECODE_CACHE_LIMIT:
                decode_cache.clear()
            state = decode_cache[blob] = decode_state(blob)
        counter = WorkCounter()
        result = evaluate_move(state, move, level, SeedSequence(master_seed, *path), counter)
        payload = (result.score, tuple(result.sequence), float(counter.moves))
        return ("job", batch_id, job_id, "ok", payload)
    except Exception as exc:  # an error frame, never a parent waiting forever
        return ("job", batch_id, job_id, "err", f"{type(exc).__name__}: {exc}")


def _worker_main(tasks: Any, results: Any, cancel: Any) -> None:
    """Worker loop: run ``job`` and ``cells`` task frames until a ``None`` frame."""
    # A forked worker inherits the parent's counter values; zero them so the
    # per-chunk snapshots a ``cells`` frame ships home describe this
    # worker's work only.
    obs.metrics.reset()
    decode_cache: Dict[bytes, GameState] = {}
    engines: Dict[str, Any] = {}
    while True:
        frame = tasks.get()
        if frame is None:
            break
        if frame[0] == "job":
            results.put(_run_job(frame, decode_cache))
        else:
            # Deferred: the cell handler pulls in the whole engine, which
            # imports this module.
            from repro.lab.procpool import run_cells

            run_cells(frame, results, cancel, engines)


class PersistentWorkerPool:
    """A pool of long-lived worker processes fed by compact task frames.

    Unlike ``multiprocessing.Pool``, the pool is meant to outlive a single
    search or sweep: create it once (or use :func:`shared_pool`) and every
    :meth:`evaluate_candidates` call and sweep batch reuses the same worker
    processes.
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
        self.jobs_executed = 0
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
        batch while it yields events: running a ``multiprocessing`` search
        or a second process stream from that loop deadlocks.
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
    # Candidate evaluations
    # ------------------------------------------------------------------ #
    def evaluate_candidates(
        self,
        state: GameState,
        evaluations: Sequence[Tuple[int, Move, SeedSequence]],
        level: int,
    ) -> List[Tuple[int, float, Tuple[Move, ...], float]]:
        """Evaluate candidate moves of ``state`` at ``level`` on the workers.

        ``evaluations`` are ``(candidate_index, move, child_seeds)`` triples
        (the shape produced by
        :func:`repro.core.nested.candidate_evaluations`); the result is
        ``(candidate_index, score, sequence, work_units)`` in input order.

        The evaluations run as one batch.  The position is encoded **once**
        and shared by every job's frame; per-job frames (rather than
        per-worker chunks) keep the load balanced when playout costs vary
        wildly.  A job that raised fails the call after the rest of the
        batch has drained; a batch that gets no result for
        :data:`_JOB_TIMEOUT_S` tears the pool down and fails.
        """
        if not evaluations:
            return []
        blob = state.encode()
        outcomes: List[Any] = [None] * len(evaluations)
        error: Optional[str] = None
        batch_id = self.begin_batch()
        try:
            for job_id, (_, move, seeds) in enumerate(evaluations):
                self._tasks.put(
                    ("job", batch_id, job_id, blob, move, level, seeds.master_seed, seeds.path)
                )
            remaining = len(evaluations)
            last_frame = time.monotonic()
            while remaining:
                frame = self.next_frame(batch_id)
                if frame is None:
                    if time.monotonic() - last_frame > _JOB_TIMEOUT_S:
                        self._reap()
                        raise RuntimeError(
                            f"no job result for {_JOB_TIMEOUT_S:.0f}s; the pool has been torn down"
                        )
                    continue
                last_frame = time.monotonic()
                _, _, job_id, status, payload = frame
                remaining -= 1
                if status == "ok":
                    outcomes[job_id] = payload
                elif error is None:
                    error = payload
            if error is not None:
                raise RuntimeError(f"worker job failed: {error}")
            self.jobs_executed += len(evaluations)
        finally:
            self.end_batch()
        return [(index, *outcome) for (index, _, _), outcome in zip(evaluations, outcomes)]

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

    This is what makes the pool *persistent across searches and sweeps*:
    every caller that does not manage its own pool — ``multiprocessing``
    searches and ``Engine.stream(executor="process")`` — shares these
    workers, so repeated runs pay the process spawn cost once.
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
