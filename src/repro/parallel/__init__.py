"""Parallel Nested Monte-Carlo Search (Section IV of the paper).

The **simulated cluster** (:func:`run_parallel_nmcs`, the ``sim-cluster``
backend of :mod:`repro.api`) reproduces the paper's cluster-scale
experiments — root / median / dispatcher / client processes, Round-Robin and
Last-Minute dispatching, heterogeneous nodes — with real search results and
simulated wall-clock time.

:class:`PersistentWorkerPool` (:func:`shared_pool` is the process-wide
instance) is the one pool of worker processes in the library: it runs the
sweep cells of ``Engine.stream(executor="process")``.
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
]
