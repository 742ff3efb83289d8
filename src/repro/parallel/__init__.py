"""Parallel Nested Monte-Carlo Search (Section IV of the paper).

The **simulated cluster** (:func:`run_parallel_nmcs`, the ``sim-cluster``
backend of :mod:`repro.api`) reproduces the paper's cluster-scale
experiments — root / median / dispatcher / client processes, Round-Robin and
Last-Minute dispatching, heterogeneous nodes — with real search results and
simulated wall-clock time.  The worker processes that run batches of
cells for real live in :mod:`repro.lab.procpool`.
"""

from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.jobs import (
    JobOutcome,
    JobExecutor,
    DirectJobExecutor,
    CachingJobExecutor,
)
from repro.parallel.driver import ParallelRunResult, run_parallel_nmcs

__all__ = [
    "DispatcherKind",
    "ParallelConfig",
    "JobOutcome",
    "JobExecutor",
    "DirectJobExecutor",
    "CachingJobExecutor",
    "ParallelRunResult",
    "run_parallel_nmcs",
]
