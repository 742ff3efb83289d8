"""Sequential Nested Monte-Carlo Search (Section III of the paper).

The ``nested`` function plays a game; at every step it evaluates every legal
move with a search one nesting level below (a random playout at level 1) and
follows the best *sequence* seen so far:

```
int nested (position, level)
 1  best score = -1
 2  while not end of game
 3    if level is 1
 4      move = argmax_m (sample (play (position, m)))
 5    else
 6      move = argmax_m (nested (play (position, m), level - 1))
 7    if score of move > best score
 8      best score = score of move
 9      best sequence = seq. after move
10    bestMove = move of best sequence
11    position = play (position, bestMove)
12  return score
```

The memorisation of the best sequence (lines 7–10) is essential: when every
lower-level search of the current step is worse than what a previous step
found, the algorithm keeps following the previously found sequence instead of
committing to a worse move.

Determinism / distribution
--------------------------
Lines 2–11 of ``nested`` live in one object, :class:`NestedGame`, and every
NMCS game drives it: :func:`nested_search` evaluates a step's candidates
inline, while the root and median roles of :mod:`repro.parallel.roles` ship
them to median and client processes.  Every lower-level evaluation derives
its random seed from a :class:`repro.prng.SeedSequence` extended with
``(level, step, move_index)``, so its result does not depend on *where* it
runs, and :meth:`NestedGame.play` takes the answers in candidate order, so
the best sequence does not depend on *when* they arrive.  A parallel run
therefore returns the same score and sequence as the sequential run it
parallelises, whatever the schedule, because both play the same game.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.counters import WorkCounter
from repro.core.result import BestTracker, SearchResult
from repro.core.sample import sample
from repro.games.base import GameState, Move
from repro.prng import SeedSequence

__all__ = ["NestedGame", "nested_search", "nmcs", "evaluate_move"]


class NestedGame:
    """One game of the paper's ``nested`` function (lines 2–11), step by step.

    A driver asks for the step's :meth:`candidates`, evaluates each of them
    one level below in whatever way it likes, and hands the answers to
    :meth:`play`, which memorises the best sequence and plays the move it
    continues with.  :func:`nested_search` evaluates inline; the root and
    median processes of :mod:`repro.parallel.roles` ship the evaluations to
    other processes.

    ``position`` is the current position and ``step`` the number of moves
    played so far.  No position is ever mutated: each step's ``position`` is
    a new object, so a driver may ship it.  With ``max_steps`` the game stops
    after that many moves.
    """

    def __init__(
        self,
        state: GameState,
        level: int,
        seeds: SeedSequence,
        max_steps: Optional[int] = None,
    ) -> None:
        self.position = state
        self.step = 0
        self._level = level
        self._seeds = seeds
        self._max_steps = max_steps
        self._best = BestTracker()

    def candidates(self) -> List[Tuple[int, Move, SeedSequence]]:
        """This step's ``(index, move, child_seeds)`` triples.

        Empty once the game is over or ``max_steps`` moves are played.  The
        child seeds extend the game's seeds with ``(level, step, index)``.
        """
        if self._max_steps is not None and self.step >= self._max_steps:
            return []
        level, step, seeds = self._level, self.step, self._seeds
        return [
            (i, move, seeds.child(level, step, i))
            for i, move in enumerate(self.position.legal_moves())
        ]

    def play(self, answers: Mapping[int, Tuple[float, Sequence[Move]]]) -> Move:
        """Play the move the best sequence continues with, and return it.

        ``answers[i]`` is candidate ``i``'s ``(score, sequence from its move
        on)``.  The answers are offered in candidate order, whatever the
        mapping's order, and only a strictly better score replaces the best
        sequence (line 7), so a tie keeps the earliest candidate's sequence.
        """
        # Every offered sequence starts with the moves played so far, so
        # those are the best sequence's first ``step`` moves.
        played = self._best.moves[: self.step]
        for i in sorted(answers):
            score, sequence = answers[i]
            self._best.offer(score, played + tuple(sequence))
        move = self._best.moves[self.step]
        self.position = self.position.play(move)
        self.step += 1
        return move

    def result(self) -> Tuple[float, Tuple[Move, ...]]:
        """The best ``(score, moves)`` found; ``(score, ())`` if the start was terminal."""
        if self._best.has_sequence():
            return self._best.best()
        return self.position.score(), ()  # no move was played


def evaluate_move(
    state: GameState,
    move: Move,
    level: int,
    seeds: SeedSequence,
    counter: Optional[WorkCounter] = None,
) -> SearchResult:
    """Evaluate one candidate ``move`` with a search at ``level`` below.

    This is the unit of work the parallel algorithms ship to client
    processes: play ``move`` and run ``nested_search`` (or a playout when
    ``level == 0``) from the resulting position.  The returned sequence
    *includes* ``move`` itself so that the caller can splice it directly into
    its own sequence.
    """
    work = counter if counter is not None else WorkCounter()
    child = state.play(move)
    work.add_step()
    if level <= 0:
        result = sample(child, seeds=seeds, counter=work)
    else:
        result = nested_search(child, level, seeds, counter=work)
    return SearchResult(
        score=result.score,
        sequence=(move,) + tuple(result.sequence),
        work=work.snapshot(),
        level=level,
    )


def nested_search(
    state: GameState,
    level: int,
    seeds: SeedSequence,
    counter: Optional[WorkCounter] = None,
    max_steps: Optional[int] = None,
) -> SearchResult:
    """Nested Monte-Carlo Search of the given ``level`` from ``state``.

    Parameters
    ----------
    state:
        Starting position (not modified).
    level:
        Nesting level; level 0 is a single random playout, level 1 chooses
        each move by the best of one playout per candidate, etc.
    seeds:
        Seed sequence controlling every random decision below this call.
    counter:
        Optional shared :class:`WorkCounter`; a fresh one is used otherwise.
    max_steps:
        If given, commit at most this many moves at *this* level and then
        return the best sequence found so far.  ``max_steps=1`` reproduces the
        paper's "first move" experiments (Tables I, II, IV).

    Returns
    -------
    SearchResult
        Best score found and the move sequence (from ``state``) reaching it.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    work = counter if counter is not None else WorkCounter()
    if level == 0:
        return sample(state, seeds=seeds, counter=work)

    game = NestedGame(state, level, seeds, max_steps)
    while True:
        candidates = game.candidates()
        if not candidates:
            break
        answers = {}
        for i, move, child_seeds in candidates:
            result = evaluate_move(game.position, move, level - 1, child_seeds, counter=work)
            answers[i] = (result.score, result.sequence)
        game.play(answers)
        work.add_step()
    score, moves = game.result()
    return SearchResult(score=score, sequence=moves, work=work.snapshot(), level=level)


def nmcs(
    state: GameState,
    level: int,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> SearchResult:
    """Convenience front-end: run :func:`nested_search` from an integer seed."""
    return nested_search(state, level, SeedSequence(seed, "nmcs"), max_steps=max_steps)
