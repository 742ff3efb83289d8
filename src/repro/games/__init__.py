"""Search-problem substrates (games / combinatorial optimisation domains).

Every domain implements the :class:`repro.games.base.GameState` interface used
by the sequential and parallel search algorithms in :mod:`repro.core` and
:mod:`repro.parallel`.

Available domains
-----------------
* :mod:`repro.games.morpion` — Morpion Solitaire (the paper's evaluation
  domain), disjoint (5D) and touching (5T) variants, parametrisable size.
* :mod:`repro.games.samegame` — SameGame puzzle.
* :mod:`repro.games.tsp` — Travelling Salesman rollout problem.
* :mod:`repro.games.sop` — Sequential Ordering Problem (TSP + precedences).
* :mod:`repro.games.weakschur` — Weak Schur number partitioning.
* :mod:`repro.games.leftmove` — deterministic toy game for exact tests.
"""

from repro.games.base import GameState, play_sequence, random_playout
from repro.games.leftmove import LeftMoveState
from repro.games.samegame import SameGameState
from repro.games.tsp import TSPState, TSPInstance
from repro.games.sop import SOPState, SOPInstance
from repro.games.weakschur import WeakSchurState
from repro.games.morpion import MorpionState, MorpionVariant

__all__ = [
    "GameState",
    "play_sequence",
    "random_playout",
    "LeftMoveState",
    "SameGameState",
    "TSPState",
    "TSPInstance",
    "SOPState",
    "SOPInstance",
    "WeakSchurState",
    "MorpionState",
    "MorpionVariant",
]
