"""Reflexive Monte-Carlo search (Cazenave 2007, reference [6] of the paper).

Reflexive Monte-Carlo search is the precursor of Nested Monte-Carlo Search
that was first shown effective on Morpion Solitaire.  The paper describes it
as "close in spirit to nested rollouts except that the base level plays random
games and does not follow a heuristic".  The practically relevant difference
with the ``nested`` function of Section III is that the reflexive search of
this formulation does **not** memorise the globally best sequence: at every
step it commits to the move whose lower-level search scored best *at that
step*, even if an earlier step had already discovered a better complete
sequence.

Keeping both algorithms in the library isolates what the best-sequence
memorisation of NMCS contributes: it is the only step in which they differ.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.counters import WorkCounter
from repro.core.result import SearchResult
from repro.core.sample import sample
from repro.games.base import GameState, Move
from repro.prng import SeedSequence

__all__ = ["reflexive_search"]


def reflexive_search(
    state: GameState,
    level: int,
    seeds: SeedSequence,
    counter: Optional[WorkCounter] = None,
    max_steps: Optional[int] = None,
) -> SearchResult:
    """Reflexive Monte-Carlo search of the given meta-level.

    ``level == 0`` is a single random playout; ``level >= 1`` plays a game
    choosing each move by the best lower-level search over all legal moves,
    *without* best-sequence memorisation.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    work = counter if counter is not None else WorkCounter()
    if level == 0:
        return sample(state, seeds=seeds, counter=work)

    position = state.copy()
    played: List[Move] = []
    step = 0
    while True:
        moves = position.legal_moves()
        if not moves:
            break
        best_score = float("-inf")
        best_move = None
        for i, move in enumerate(moves):
            child = position.play(move)
            work.add_step()
            sub = reflexive_search(
                child, level - 1, seeds.child("reflexive", level, step, i), counter=work
            )
            if sub.score > best_score:
                best_score = sub.score
                best_move = move
        position.apply(best_move)
        work.add_step()
        played.append(best_move)
        step += 1
        if max_steps is not None and step >= max_steps:
            break
    return SearchResult(
        score=position.score(),
        sequence=tuple(played),
        work=work.snapshot(),
        level=level,
    )
