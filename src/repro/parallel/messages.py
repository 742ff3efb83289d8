"""Typed message payloads exchanged by the four process roles.

The paper (Section IV, figures 2–5) distinguishes the communications:

* (a) root → median: ask for a nested search at the lower level;
* (b) median → dispatcher → median, then median → client: obtain a client and
  ship it a position to evaluate;
* (c) client → median: the result of the client's search;
* (c') client → dispatcher: the client announces it is free (Last-Minute only);
* (d) median → root: the result of the median's game.

Each of these is a dataclass below.  A run builds one payload per message
(about 276,000 in a ``paper-tables`` pass), so they are slotted rather than
frozen, which makes them about four times cheaper to build; a process never
changes a payload once it has sent or received it.

Message tags separate the request and result planes so that a process never
mistakes a new task for a pending result (a median may be assigned a new
root task while still collecting client results for the previous one when
there are fewer medians than legal moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.games.base import GameState, Move
from repro.prng import SeedSequence

__all__ = [
    "TAG_TASK",
    "TAG_RESULT",
    "TAG_DISPATCH",
    "MedianTask",
    "MedianResult",
    "DispatchRequest",
    "DispatchReply",
    "ClientJob",
    "ClientResult",
    "ClientFree",
    "Shutdown",
    "estimate_state_size",
    "estimate_child_size",
]

#: Tag for new work assignments (root→median, median→client).
TAG_TASK = 1
#: Tag for results travelling upwards (client→median, median→root).
TAG_RESULT = 2
#: Tag for dispatcher traffic (median→dispatcher, client→dispatcher, replies).
TAG_DISPATCH = 3


def estimate_state_size(state: GameState) -> float:
    """Rough wire size (bytes) of a game position.

    Positions are shipped as a compact description whose size grows with the
    number of moves already played; the constant models the fixed overhead of
    the initial position and the message envelope.  Only the network delay
    depends on this value, and for the paper's workloads that delay is
    latency-dominated, so a rough estimate is sufficient.
    """
    return _size_after(state.moves_played())


def estimate_child_size(parent: GameState) -> float:
    """``estimate_state_size(parent.play(move))``, without building the child.

    A move adds one to :meth:`~repro.games.base.GameState.moves_played` in
    every domain that tracks it; a domain that keeps the base-class default
    reports 0 whatever has been played.
    """
    played = parent.moves_played()
    if type(parent).moves_played is not GameState.moves_played:
        played += 1
    return _size_after(played)


def _size_after(moves_played: int) -> float:
    return 512.0 + 16.0 * moves_played


@dataclass(slots=True)
class MedianTask:
    """Root → median: evaluate one candidate move of the root's game (comm. a)."""

    root_step: int
    candidate_index: int
    move: Move
    position: GameState  # the root position *after* ``move`` has been played
    level: int  # nesting level of the search the median must perform
    seeds: SeedSequence


@dataclass(slots=True)
class MedianResult:
    """Median → root: result of the median's game for one candidate (comm. d)."""

    root_step: int
    candidate_index: int
    move: Move
    score: float
    sequence: Tuple[Move, ...]  # includes ``move`` as its first element


@dataclass(slots=True)
class DispatchRequest:
    """Median → dispatcher: which client should run my next job? (comm. b)

    ``moves_played`` is the number of moves already played in the position to
    analyse — the Last-Minute dispatcher uses it to order pending jobs by
    expected remaining computation time (fewer moves played = longer job).
    """

    median: str
    moves_played: int


@dataclass(slots=True)
class DispatchReply:
    """Dispatcher → median: use this client for your job (comm. b)."""

    client: str


@dataclass(slots=True)
class ClientJob:
    """Median → client: run a nested rollout from ``parent.play(move)`` (comm. b).

    The job ships the median's position and its candidate move rather than
    the paper's ``p = play(position, m)``: the client's executor builds ``p``
    only when it actually runs the search, so a job answered from a cache
    never pays for it.  The median never mutates a position it has shipped.
    ``move`` is echoed back in the result so the median can splice sequences
    without bookkeeping.
    """

    job_id: Tuple
    parent: GameState
    move: Move
    level: int
    seeds: SeedSequence
    reply_to: str


@dataclass(slots=True)
class ClientResult:
    """Client → median: score and sequence of the client's search (comm. c)."""

    job_id: Tuple
    move: Move
    score: float
    sequence: Tuple[Move, ...]  # moves from the job position (excludes ``move``)
    client: str


@dataclass(slots=True)
class ClientFree:
    """Client → dispatcher: this client is now free (comm. c', Last-Minute only)."""

    client: str


@dataclass(slots=True)
class Shutdown:
    """Control message terminating the receiving process' main loop."""

    reason: str = "end of search"
