"""Real shared-memory parallel NMCS using persistent worker processes.

The simulated cluster (see :mod:`repro.parallel.driver`) reproduces the
*cluster-scale* results of the paper; this module provides genuine wall-clock
parallelism on the local machine, mirroring the root-level fan-out of the
paper: at every step of the top-level game, the lower-level evaluation of
each candidate move is executed by a pool of worker processes.

Because every worker is a separate OS process with its own interpreter, this
path is not limited by the GIL (a thread pool is; the GIL ablation in
``benchmarks/bench_ablation_network_and_gil.py`` measures both).  It follows
the same seed derivation as the sequential algorithm, so — like the
simulated cluster — it returns exactly the same result as
:func:`repro.core.nested.nested_search` with the same master seed.

Positions are shipped to the workers as compact binary wire frames
(:meth:`repro.games.base.GameState.encode`) through the process-wide
:class:`repro.parallel.pool.PersistentWorkerPool`
(:func:`repro.parallel.pool.shared_pool`) instead of per-job pickled state
objects, and moves travel as the game's own move objects.  The same workers
run process-executor sweeps, so repeated searches reuse the same worker
processes instead of forking a fresh pool per call.  Each root step is one
batch on the pool, so threads running searches on one pool take turns step
by step, and a worker that dies fails the search with ``RuntimeError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.nested import candidate_evaluations
from repro.core.result import BestTracker, SearchResult
from repro.games.base import GameState, Move
from repro.parallel.pool import shared_pool
from repro.prng import SeedSequence

__all__ = ["MultiprocessResult", "multiprocessing_nmcs"]


@dataclass
class MultiprocessResult:
    """Result of a real parallel run, with wall-clock timing."""

    result: SearchResult
    wall_seconds: float
    n_workers: int
    n_evaluations: int

    @property
    def score(self) -> float:
        return self.result.score


def multiprocessing_nmcs(
    state: GameState,
    level: int,
    master_seed: int = 0,
    n_workers: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> MultiprocessResult:
    """Root-level parallel NMCS on the shared persistent worker processes.

    Parameters
    ----------
    n_workers:
        Number of worker processes (defaults to the CPU count).
    max_steps:
        Stop after this many root moves (``1`` = first-move experiment).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    seeds = SeedSequence(master_seed, "nmcs")
    pool = shared_pool(n_workers)
    start = time.perf_counter()
    n_evaluations = 0

    position = state.copy()
    best = BestTracker()
    played: List[Move] = []
    step = 0
    while True:
        evaluations = candidate_evaluations(position, level, step, seeds)
        if not evaluations:
            break
        n_evaluations += len(evaluations)
        for _, score, sequence, _ in pool.evaluate_candidates(position, evaluations, level - 1):
            best.offer(score, tuple(played) + tuple(sequence))
        chosen = best.moves[len(played)]
        position.apply(chosen)
        played.append(chosen)
        step += 1
        if max_steps is not None and step >= max_steps:
            break

    if best.has_sequence():
        score, moves = best.best()
    else:
        score, moves = state.score(), ()
    wall = time.perf_counter() - start
    return MultiprocessResult(
        result=SearchResult(score=score, sequence=tuple(moves), level=level),
        wall_seconds=wall,
        n_workers=pool.n_workers,
        n_evaluations=n_evaluations,
    )
