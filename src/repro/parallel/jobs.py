"""Job execution and caching for the simulated client processes.

A *job* is the unit of work a client process executes: a nested search of a
given level from a given position, with a given seed sequence (level 0 is a
single random playout).  The search results are real — the simulated cluster
only simulates *time*, not outcomes.

Because jobs are seeded from stable identifiers (see :mod:`repro.prng`), the
set of jobs generated by a parallel run depends only on the search problem,
the nesting level and the master seed — not on the cluster topology or the
dispatcher algorithm.  :class:`CachingJobExecutor` exploits this: a client
sweep (1, 4, 8, ... 64 clients) or a Round-Robin vs Last-Minute comparison
executes every search exactly once and replays the cached results for every
other configuration, so the expensive part of the benchmark harness is paid
once per workload.

Simulated clients receive a job as its *parent* position plus the candidate
move (see :class:`~repro.parallel.messages.ClientJob`) and hand both to
:meth:`JobExecutor.execute_move`.  The job's own position,
``parent.play(move)``, is built only when a search actually runs: a
:class:`CachingJobExecutor` hit never builds it, which in a client sweep is
most jobs.  Every executor's :meth:`~JobExecutor.execute` still receives a
real :class:`~repro.games.base.GameState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.counters import WorkCounter
from repro.core.nested import nested_search
from repro.core.sample import sample
from repro.games.base import GameState, Move
from repro.prng import SeedSequence

#: ``move`` of :meth:`CachingJobExecutor.execute` when the job's own position is given
_NO_MOVE: Move = object()

__all__ = [
    "JobOutcome",
    "JobExecutor",
    "DirectJobExecutor",
    "CachingJobExecutor",
]


@dataclass(frozen=True)
class JobOutcome:
    """Result of one client job: the search outcome plus its cost in work units."""

    score: float
    sequence: Tuple[Move, ...]
    work_units: float


class JobExecutor:
    """Interface: execute a client job and report its cost."""

    def execute(self, position: GameState, level: int, seeds: SeedSequence) -> JobOutcome:
        """Run the search from ``position`` and return its :class:`JobOutcome`."""
        raise NotImplementedError

    def execute_move(
        self, parent: GameState, move: Move, level: int, seeds: SeedSequence
    ) -> JobOutcome:
        """Run the job whose position is ``parent.play(move)``.

        This is what the simulated clients call.  The default builds the
        position and runs :meth:`execute` on it; ``parent`` is never mutated.
        """
        return self.execute(parent.play(move), level, seeds)


class DirectJobExecutor(JobExecutor):
    """Executes every job by actually running the search."""

    def __init__(self) -> None:
        #: total number of jobs executed (for reporting)
        self.jobs_executed = 0
        #: total work units across executed jobs
        self.total_work_units = 0.0

    def execute(self, position: GameState, level: int, seeds: SeedSequence) -> JobOutcome:
        counter = WorkCounter()
        if level <= 0:
            result = sample(position, seeds=seeds, counter=counter)
        else:
            result = nested_search(position, level, seeds, counter=counter)
        self.jobs_executed += 1
        self.total_work_units += counter.moves
        return JobOutcome(score=result.score, sequence=tuple(result.sequence), work_units=float(counter.moves))


class CachingJobExecutor(JobExecutor):
    """Memoises job outcomes across runs of the same workload.

    The cache key is the job's full seed identity ``(master_seed, path)``;
    ``level`` is included defensively so that reusing a cache across
    nesting levels can never alias.  The key names a job's *position* only
    because every run that shares the cache starts from the same position,
    so its root and median games, and with them the position behind each
    seed path, are deterministic functions of the master seed.
    :class:`repro.api.Engine` keeps one cache per workload and always starts
    from the workload's initial position.  A caller sharing one cache
    across :func:`~repro.parallel.driver.run_parallel_nmcs` calls must keep
    the start position the same.
    """

    def __init__(self, inner: Optional[JobExecutor] = None) -> None:
        self.inner = inner if inner is not None else DirectJobExecutor()
        self._cache: Dict[Tuple, JobOutcome] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, level: int, seeds: SeedSequence) -> Tuple:
        return (seeds.master_seed, seeds.path, level)

    def execute(
        self,
        position: GameState,
        level: int,
        seeds: SeedSequence,
        move: Move = _NO_MOVE,
    ) -> JobOutcome:
        """The cached outcome of the job, running it on the inner executor on a miss.

        With ``move``, ``position`` is the job's parent and the search runs
        from ``position.play(move)``, which only a miss builds.  The
        parameter exists only for :meth:`execute_move`: routing every
        simulated job through this method keeps it the one place that sees
        each job, hit or miss, which ``perfbench``'s job counter patches.
        """
        key = self._key(level, seeds)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if move is _NO_MOVE:
            outcome = self.inner.execute(position, level, seeds)
        else:
            outcome = self.inner.execute_move(position, move, level, seeds)
        self._cache[key] = outcome
        self.misses += 1
        return outcome

    def execute_move(
        self, parent: GameState, move: Move, level: int, seeds: SeedSequence
    ) -> JobOutcome:
        return self.execute(parent, level, seeds, move)

    def cache_size(self) -> int:
        """Number of distinct jobs cached so far."""
        return len(self._cache)

    def clear(self) -> None:
        """Drop every cached outcome."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
