"""Parallel Nested Monte-Carlo Search (Section IV of the paper).

Two execution substrates are provided:

* the **simulated cluster** (:func:`run_parallel_nmcs`,
  :func:`run_round_robin`, :func:`run_last_minute`) reproduces the paper's
  cluster-scale experiments — root / median / dispatcher / client processes,
  Round-Robin and Last-Minute dispatching, heterogeneous nodes — with real
  search results and simulated wall-clock time;
* the **local executors** (:func:`multiprocessing_nmcs`, :func:`threaded_nmcs`)
  run the root-level fan-out with genuine OS-level parallelism on the local
  machine.

Every out-of-process path runs on one worker pool,
:class:`PersistentWorkerPool` (:func:`shared_pool` is the process-wide
instance): the ``multiprocessing`` backend's candidate evaluations,
:class:`PooledJobExecutor`'s client searches and the sweep cells of
``Engine.stream(executor="process")``.

Both substrates are exposed as backends of the unified :mod:`repro.api`
facade (``sim-cluster``, ``multiprocessing``, ``threads``); the experiment
front-ends here (:func:`first_move_experiment`, :func:`rollout_experiment`,
:func:`run_round_robin`, :func:`run_last_minute`) are deprecated shims over
that API.
"""

from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.jobs import (
    JobOutcome,
    JobExecutor,
    DirectJobExecutor,
    CachingJobExecutor,
    PooledJobExecutor,
)
from repro.parallel.pool import PersistentWorkerPool, shared_pool, close_shared_pool
from repro.parallel.driver import (
    ParallelRunResult,
    SequentialRunResult,
    run_parallel_nmcs,
    first_move_experiment,
    rollout_experiment,
    sequential_reference,
)
from repro.parallel.round_robin import run_round_robin
from repro.parallel.last_minute import run_last_minute
from repro.parallel.multiproc import MultiprocessResult, multiprocessing_nmcs
from repro.parallel.threads import ThreadedResult, threaded_nmcs

__all__ = [
    "DispatcherKind",
    "ParallelConfig",
    "JobOutcome",
    "JobExecutor",
    "DirectJobExecutor",
    "CachingJobExecutor",
    "PooledJobExecutor",
    "PersistentWorkerPool",
    "shared_pool",
    "close_shared_pool",
    "ParallelRunResult",
    "SequentialRunResult",
    "run_parallel_nmcs",
    "first_move_experiment",
    "rollout_experiment",
    "sequential_reference",
    "run_round_robin",
    "run_last_minute",
    "MultiprocessResult",
    "multiprocessing_nmcs",
    "ThreadedResult",
    "threaded_nmcs",
]
