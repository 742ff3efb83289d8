"""The sweep-specific pieces of the process executor.

``Engine.stream(..., executor="process")`` / ``repro sweep --processes N``
run CPU-bound sweep cells GIL-free on the library's one worker-process pool,
:class:`repro.parallel.pool.PersistentWorkerPool` (also importable here as
:data:`SweepWorkerPool`), which owns the processes, the batch lock, the
liveness check and the shared singleton.  What is particular to sweeps
lives here:

* **Cells travel as spec dicts.** A :class:`~repro.api.SearchSpec` is a
  complete, JSON-round-trippable description of one cell, so the wire form
  is its ``to_dict()`` — no game state, executor or engine object ever
  crosses the process boundary.  :func:`run_cells`, the worker side of a
  ``cells`` task frame, keeps one :class:`~repro.api.Engine` per network
  model alive across chunks, so the engine's per-workload job caches
  persist for the whole sweep exactly as they do in the parent's inline
  path.
* **Chunked dispatch.** Small cells (sub-100 ms kernel runs) would drown in
  per-cell IPC; cells are batched per task frame, :func:`auto_chunk_size`
  cells at a time (chosen from the batch and pool size).  Results still
  stream back one frame per *cell*, so parent-side progress events stay
  live whatever the chunk size.
* **Cooperative cancellation.** Workers check the pool's shared
  ``multiprocessing.Event`` before every cell; cancelled cells report a
  ``skip`` frame (no terminal :class:`~repro.api.RunEvent` — exactly the
  inline path's early-out) and the chunk keeps draining, so the pool is
  reusable the moment the batch ends.
* **Telemetry merge.** When :mod:`repro.obs` is enabled, each worker
  snapshots its registry after every chunk and ships the snapshot home; the
  parent folds it into its own registry via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, so
  ``repro stats`` counts cells run in children.
* **Remote errors.** A cell that raised comes home as
  :class:`RemoteCellError`.

The store is deliberately **not** given to the workers: cache hits
short-circuit in the parent, misses dispatch, and the parent persists each
completed report exactly once from the event-consuming thread (see
``Engine.stream``).  Two *separate* sweep processes sharing one store are
serialised by :class:`repro.lab.store.ResultStore`'s inter-process file lock
instead.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.parallel.pool import PersistentWorkerPool

__all__ = ["SweepWorkerPool", "RemoteCellError", "auto_chunk_size", "run_cells"]

#: The pool sweeps run on: the library's one worker-process pool.
SweepWorkerPool = PersistentWorkerPool

#: Upper bound on the auto-chosen chunk size: past this, a straggler chunk
#: can idle the rest of the pool for no further IPC savings.
_MAX_AUTO_CHUNK = 16


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


def run_cells(frame: Tuple[Any, ...], results: Any, cancel: Any, engines: Dict[str, Any]) -> None:
    """Worker side of a ``cells`` task frame: run each spec-dict cell.

    Puts one ``("cell", batch_id, index, status, payload)`` frame per cell —
    status ``ok`` (a report dict), ``err`` (the rendered exception) or
    ``skip`` (cancelled before it started) — then one
    ``("chunk", batch_id, obs_snapshot_or_None)`` frame.  ``engines`` is the
    worker's own ``repr(network) -> Engine`` map, kept across chunks.
    """
    # Deferred so the module stays importable from repro.lab without pulling
    # the full engine at parent import time; workers pay it once.
    from repro import obs
    from repro.api import Engine, SearchSpec

    _, batch_id, cells, obs_enabled, network = frame
    if obs_enabled and not obs.enabled():
        obs.enable()
    elif not obs_enabled and obs.enabled():
        obs.disable()
    engine = engines.get(repr(network))
    if engine is None:
        engine = engines[repr(network)] = Engine(network=network)
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
