"""Core abstractions shared by every search domain.

The paper's pseudo-code manipulates a *position*, a set of *possible moves*,
a ``play(position, m)`` operation and a terminal *score* to maximise.  The
:class:`GameState` abstract base class captures exactly that contract; every
domain in :mod:`repro.games` implements it.

Design notes
------------
* ``play`` returns a **new** state (copy-then-apply) because the nested search
  of the paper evaluates *every* legal move from the current position before
  committing to one; ``apply`` mutates in place and is used inside playouts
  where the state is private to the playout.
* Moves must be hashable and comparable so that sequences of moves can be
  replayed, compared and stored as dictionary keys by the dispatcher layers.
* ``score()`` may be called on non-terminal states; it must return the score
  of the position *as if the game stopped now* (for Morpion Solitaire, the
  number of moves played so far).  The search algorithms only compare scores,
  so any total order works.

Fast-state protocol (see docs/GAMES.md)
---------------------------------------
:meth:`GameState.playout` is the **in-place playout** primitive, an opt-in
extension that lets hot kernels avoid per-move overhead without changing
what any search computes.  The base implementation is the canonical
reference loop (``legal_moves`` → ``rng.randrange`` → ``apply``); kernels
may override it with a specialised loop **as long as it consumes the same
rng draws and picks the same moves** — the seeded playout goldens
(``tests/data/playout_golden.json``) enforce this bit-identically.
"""

from __future__ import annotations

import abc
import random
from typing import Hashable, Iterable, List, Optional, Tuple

__all__ = [
    "Move",
    "GameState",
    "play_sequence",
    "random_playout",
    "playout_from",
    "legal_after",
]

#: A move may be any hashable object; domains define their own concrete types.
Move = Hashable


class GameState(abc.ABC):
    """Abstract interface of a search problem state.

    Implementations must be *self-contained*: copying a state and playing
    moves on the copy must never affect the original.
    """

    # ------------------------------------------------------------------ #
    # Abstract primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def legal_moves(self) -> List[Move]:
        """Return the list of legal moves from this position.

        The returned list is owned by the caller (mutating it must not
        corrupt the state).  An empty list means the position is terminal.
        """

    @abc.abstractmethod
    def apply(self, move: Move) -> None:
        """Play ``move`` in place.  ``move`` must be legal."""

    @abc.abstractmethod
    def copy(self) -> "GameState":
        """Return an independent deep-enough copy of this state."""

    @abc.abstractmethod
    def score(self) -> float:
        """Score of the position (higher is better).

        For Morpion Solitaire this is the number of moves played; for TSP the
        negated tour length; etc.
        """

    # ------------------------------------------------------------------ #
    # Derived helpers (overridable for performance)
    # ------------------------------------------------------------------ #
    def is_terminal(self) -> bool:
        """True when no legal move remains."""
        return not self.legal_moves()

    def play(self, move: Move) -> "GameState":
        """Return a new state with ``move`` played (copy + apply)."""
        nxt = self.copy()
        nxt.apply(move)
        return nxt

    def moves_played(self) -> int:
        """Number of moves played so far from the initial position.

        Used by the Last-Minute dispatcher of the paper to estimate the
        *expected remaining computation time* of a job.  Domains that do not
        track it may fall back on 0 (every job then looks equally long).  A
        domain that tracks it adds exactly one per move played: the simulated
        cluster sizes a job's message from its parent position on that basis
        (:func:`repro.parallel.messages.estimate_child_size`).
        """
        return 0

    def heuristic_moves(self) -> List[Move]:
        """Moves ordered by a domain heuristic (best first).

        Defaults to :meth:`legal_moves`; rollout-with-heuristic algorithms
        (Section II of the paper: Klondike / Thoughtful solitaire rollouts)
        use this ordering for their base-level samples.
        """
        return self.legal_moves()

    # ------------------------------------------------------------------ #
    # In-place playout protocol
    # ------------------------------------------------------------------ #
    def playout(
        self, rng: random.Random, counter: Optional["object"] = None
    ) -> Tuple[float, Tuple[Move, ...]]:
        """Play uniformly random moves **in place** until terminal.

        Returns ``(score, moves_played)``.  This is the reference loop every
        playout in the library bottoms out in; kernels may override it with a
        specialised implementation, but the override must draw exactly one
        ``rng.randrange(len(legal))`` per move over the same ordered legal
        list, so that seeded playouts stay bit-identical with the generic
        loop (``tests/test_playout_golden.py`` enforces this).

        ``counter`` — if given, an object with an ``add_moves(n)`` method
        (see :class:`repro.core.counters.WorkCounter`), called exactly once
        with the total number of moves played.
        """
        moves_played: List[Move] = []
        append = moves_played.append
        legal_moves = self.legal_moves
        apply = self.apply
        randrange = rng.randrange
        while True:
            legal = legal_moves()
            if not legal:
                break
            move = legal[randrange(len(legal))]
            apply(move)
            append(move)
        if counter is not None:
            counter.add_moves(len(moves_played))
        return self.score(), tuple(moves_played)


def play_sequence(state: GameState, moves: Iterable[Move]) -> GameState:
    """Return a copy of ``state`` after playing every move of ``moves``.

    Raises ``ValueError`` if a move is illegal at the point it is played; this
    is the integrity check used by the tests ("every result replays").  A move
    given as a ``str`` is matched against the ``repr`` of the legal moves, so
    the rendered sequences of stored reports replay too.
    """
    current = state.copy()
    for i, move in enumerate(moves):
        legal = current.legal_moves()
        if isinstance(move, str):
            move = next((m for m in legal if repr(m) == move), move)
        if move not in legal:
            raise ValueError(
                f"move #{i} ({move!r}) is illegal at that point "
                f"({len(legal)} legal moves available)"
            )
        current.apply(move)
    return current


def playout_from(
    state: GameState,
    rng: random.Random,
    counter: Optional["object"] = None,
) -> Tuple[float, Tuple[Move, ...]]:
    """Play uniformly random moves from ``state`` until terminal (in place).

    ``state`` **is mutated**.  Returns ``(score, moves_played)``.

    ``counter`` — if given, an object with an ``add_moves(n)`` method (see
    :class:`repro.core.counters.WorkCounter`) incremented with the number of
    moves played, which feeds the simulated-time cost model.

    Delegates to :meth:`GameState.playout`, the overridable in-place playout
    primitive, so kernels with specialised loops are picked up everywhere.
    """
    return state.playout(rng, counter)


def random_playout(
    state: GameState,
    rng: random.Random,
    counter: Optional["object"] = None,
) -> Tuple[float, Tuple[Move, ...]]:
    """Non-destructive random playout: copies ``state`` first.

    This is the paper's ``sample(position)`` primitive (Section III), returning
    both the terminal score and the move sequence that reached it.
    """
    return state.copy().playout(rng, counter)


def legal_after(state: GameState, moves: Iterable[Move]) -> List[Move]:
    """Legal moves after playing ``moves`` from ``state`` (convenience)."""
    return play_sequence(state, moves).legal_moves()
