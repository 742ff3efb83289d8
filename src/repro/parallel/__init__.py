"""Parallel Nested Monte-Carlo Search (Section IV of the paper).

Two execution substrates are provided:

* the **simulated cluster** (:func:`run_parallel_nmcs`) reproduces the
  paper's cluster-scale experiments — root / median / dispatcher / client
  processes, Round-Robin and Last-Minute dispatching, heterogeneous nodes —
  with real search results and simulated wall-clock time;
* the **local executor** (:func:`multiprocessing_nmcs`) runs the root-level
  fan-out on real worker processes of the local machine.

Every out-of-process path runs on one worker pool,
:class:`PersistentWorkerPool` (:func:`shared_pool` is the process-wide
instance): the ``multiprocessing`` backend's candidate evaluations and the
sweep cells of ``Engine.stream(executor="process")``.

Both substrates are exposed as backends of the unified :mod:`repro.api`
facade (``sim-cluster``, ``multiprocessing``).
"""

from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.jobs import (
    JobOutcome,
    JobExecutor,
    DirectJobExecutor,
    CachingJobExecutor,
)
from repro.parallel.pool import PersistentWorkerPool, shared_pool, close_shared_pool
from repro.parallel.driver import ParallelRunResult, run_parallel_nmcs
from repro.parallel.multiproc import MultiprocessResult, multiprocessing_nmcs

__all__ = [
    "DispatcherKind",
    "ParallelConfig",
    "JobOutcome",
    "JobExecutor",
    "DirectJobExecutor",
    "CachingJobExecutor",
    "PersistentWorkerPool",
    "shared_pool",
    "close_shared_pool",
    "ParallelRunResult",
    "run_parallel_nmcs",
    "MultiprocessResult",
    "multiprocessing_nmcs",
]
