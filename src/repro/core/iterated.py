"""Iterated / multi-restart Nested Monte-Carlo Search.

The record hunts of the paper (Section V: "Running the algorithm at level 4 on
our cluster, we have discovered two new sequences of 80 moves") repeat
independent nested searches and keep the best sequence ever found.  This
module provides that outer loop for the sequential case.

Two stopping criteria are supported and can be combined: a fixed number of
restarts and a work budget (in primitive move applications), whichever is hit
first.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.counters import WorkCounter
from repro.core.nested import nested_search
from repro.core.result import BestTracker, SearchResult
from repro.games.base import GameState
from repro.obs import span as _obs_span
from repro.prng import SeedSequence

__all__ = ["iterated_search"]


def iterated_search(
    state: GameState,
    level: int,
    seeds: SeedSequence,
    restarts: int = 1,
    work_budget: Optional[int] = None,
    counter: Optional[WorkCounter] = None,
    on_improvement: Optional[Callable[[int, SearchResult], None]] = None,
) -> SearchResult:
    """Run up to ``restarts`` independent nested searches, keep the best.

    Parameters
    ----------
    restarts:
        Maximum number of independent nested searches.
    work_budget:
        Optional cap on total primitive move applications; checked between
        restarts (a running search is never interrupted).
    on_improvement:
        Optional callback ``(restart_index, result)`` invoked whenever a
        restart improves on the best score so far — used by the record-hunt
        example to report progress.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    work = counter if counter is not None else WorkCounter()
    best = BestTracker()
    completed = 0
    for i in range(restarts):
        if work_budget is not None and work.moves >= work_budget and completed > 0:
            break
        # One span per restart: coarse enough to stay off the playout hot
        # path, fine enough to show where a record hunt's time goes.
        with _obs_span("iterated.restart", restart=i, level=level):
            result = nested_search(state, level, seeds.child("restart", i), counter=work)
        completed += 1
        if best.offer(result.score, result.sequence) and on_improvement is not None:
            on_improvement(i, result)
    score, moves = best.best()
    return SearchResult(score=score, sequence=moves, work=work.snapshot(), level=level)
