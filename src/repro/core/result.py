"""Search result containers.

Every search algorithm returns a :class:`SearchResult`: the score it reached,
the sequence of moves that reaches it from the *initial* position it was given,
and the amount of work spent.  The sequence always replays (this is verified
by the test suite), so callers can reconstruct the final position or render it
(e.g. the Figure 1 grid) without trusting anything but the move list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.counters import WorkCounter
from repro.games.base import GameState, Move, play_sequence

__all__ = ["SearchResult", "BestTracker"]


@dataclass
class SearchResult:
    """Outcome of a search from a given position.

    Attributes
    ----------
    score:
        The best terminal score reached.
    sequence:
        The moves reaching that score, starting from the searched position.
    work:
        The work spent (move applications / playouts / nested calls).
    level:
        Nesting level of the search that produced the result (0 = playout).
    """

    score: float
    sequence: Tuple[Move, ...] = ()
    work: WorkCounter = field(default_factory=WorkCounter)
    level: int = 0

    def final_state(self, initial: GameState) -> GameState:
        """Replay the result from ``initial`` and return the final state."""
        return play_sequence(initial, self.sequence)

    def verify(self, initial: GameState) -> bool:
        """True if replaying the sequence from ``initial`` yields ``score``."""
        return play_sequence(initial, self.sequence).score() == self.score


class BestTracker:
    """Keeps the best sequence seen so far ("best sequence" of the pseudo-code).

    The sequential nested search of the paper memorises, at each level, the
    best sequence found by any lower-level search so that it can keep
    following it when later samples are worse (lines 7–10 of the ``nested``
    pseudo-code).  :class:`repro.core.nested.NestedGame` keeps that
    bookkeeping here for every NMCS game, sequential or parallel.
    """

    __slots__ = ("score", "moves")

    def __init__(self) -> None:
        self.score: float = float("-inf")
        self.moves: Tuple[Move, ...] = ()

    def offer(self, score: float, moves: Tuple[Move, ...]) -> bool:
        """Register a candidate; returns True if it became the new best.

        Ties are *not* replaced, matching the strict ``>`` of the paper's
        pseudo-code (line 7), which keeps the earliest best sequence.
        """
        if score > self.score:
            self.score = score
            self.moves = tuple(moves)
            return True
        return False

    def has_sequence(self) -> bool:
        """True once at least one candidate has been offered."""
        return self.score != float("-inf")

    def best(self) -> Tuple[float, Tuple[Move, ...]]:
        """The best (score, moves) pair seen so far."""
        return self.score, self.moves
