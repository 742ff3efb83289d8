"""Travelling Salesman Problem as a rollout / nested-search domain.

The paper's related-work section (Section II) cites Guerriero & Mancini's
parallel rollout strategies evaluated on the TSP and the Sequential Ordering
Problem.  This module provides the TSP substrate so that the library can run
the same comparison: nested rollouts versus a greedy nearest-neighbour
heuristic, sequentially or on the simulated cluster.

The state is a partial tour starting from city 0.  A move appends an unvisited
city; the game ends when every city is visited and the tour implicitly closes
back to the start.  The score is the *negated* total tour length so that the
maximisation convention of :class:`~repro.games.base.GameState` applies.

To keep the branching factor manageable for high nesting levels the candidate
moves can optionally be restricted to the ``k`` nearest unvisited cities
(``neighbourhood`` parameter) — this mirrors Guerriero & Mancini's use of
restricted neighbourhoods and is the knob their speedups were reported
against.

Fast-kernel notes
-----------------
The tour length is maintained incrementally (one distance-row lookup per
apply) on the instance's Python-float distance rows, and ``legal_moves``
walks a per-city neighbour order precomputed once per instance instead of
sorting the remaining cities every call.  The order table is built lazily
and shared by ``copy()``; a Python stable sort by distance equals the
precomputed ``(distance, index)`` order walk, so move ordering is
bit-identical with the reference implementation (pinned by
``tests/data/playout_golden.json``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.games.base import GameState, Move

__all__ = ["TSPInstance", "TSPState"]


@dataclass(frozen=True)
class TSPInstance:
    """An immutable TSP instance: city coordinates and the distance matrix."""

    coords: Tuple[Tuple[float, float], ...]
    distances: Tuple[Tuple[float, ...], ...]  # [i][j], symmetric, zero diagonal

    @property
    def n_cities(self) -> int:
        return len(self.coords)

    @classmethod
    def from_coords(cls, coords: Sequence[Tuple[float, float]]) -> "TSPInstance":
        """Build an instance from Euclidean city coordinates."""
        try:
            pts = tuple((float(x), float(y)) for x, y in coords)
        except (TypeError, ValueError):
            raise ValueError("coords must be a sequence of (x, y) pairs") from None
        if len(pts) < 2:
            raise ValueError("a TSP instance needs at least 2 cities")
        # dx * dx, not dx ** 2 or math.hypot: those round differently, and the
        # playout goldens pin these exact doubles.
        dist = tuple(
            tuple(
                math.sqrt((xi - xj) * (xi - xj) + (yi - yj) * (yi - yj)) for xj, yj in pts
            )
            for xi, yi in pts
        )
        return cls(pts, dist)

    @classmethod
    def random(cls, n_cities: int = 20, seed: int = 0, side: float = 100.0) -> "TSPInstance":
        """Uniformly random cities in a ``side`` x ``side`` square."""
        rng = random.Random(seed)
        coords = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n_cities)]
        return cls.from_coords(coords)

    def tour_length(self, tour: Sequence[int]) -> float:
        """Length of the closed tour visiting ``tour`` in order."""
        if sorted(tour) != list(range(self.n_cities)):
            raise ValueError("tour must visit every city exactly once")
        total = 0.0
        for i in range(len(tour)):
            total += self.distances[tour[i]][tour[(i + 1) % len(tour)]]
        return total

    def nearest_neighbour_tour(self, start: int = 0) -> List[int]:
        """The classical greedy nearest-neighbour heuristic tour."""
        unvisited = set(range(self.n_cities))
        unvisited.remove(start)
        tour = [start]
        while unvisited:
            last = tour[-1]
            nxt = min(unvisited, key=lambda c: self.distances[last][c])
            unvisited.remove(nxt)
            tour.append(nxt)
        return tour

    def fast_tables(self) -> Tuple[Tuple[Tuple[float, ...], ...], List[List[int]]]:
        """Hot-path tables: the distance rows and per-city neighbour order.

        ``order[c]`` lists all cities sorted by ``(distances[c][x], x)``, which
        is exactly the order a Python stable sort by distance produces over an
        index-ordered candidate list.  Built once per instance (cached on the
        frozen dataclass via ``object.__setattr__``) and shared by every state.
        """
        cached = getattr(self, "_fast_tables", None)
        if cached is None:
            rows = self.distances
            order = [
                sorted(range(len(rows)), key=lambda c, row=row: (row[c], c)) for row in rows
            ]
            cached = (rows, order)
            object.__setattr__(self, "_fast_tables", cached)
        return cached


class TSPState(GameState):
    """Partial tour state over a :class:`TSPInstance`."""

    __slots__ = ("instance", "neighbourhood", "_tour", "_visited", "_length", "_dist", "_order")

    def __init__(self, instance: TSPInstance, neighbourhood: Optional[int] = None):
        self.instance = instance
        if neighbourhood is not None and neighbourhood < 1:
            raise ValueError("neighbourhood must be >= 1 when given")
        self.neighbourhood = neighbourhood
        self._tour: List[int] = [0]
        self._visited = bytearray(instance.n_cities)
        self._visited[0] = 1
        self._length = 0.0
        self._dist, self._order = instance.fast_tables()

    # ------------------------------------------------------------------ #
    # GameState interface
    # ------------------------------------------------------------------ #
    def legal_moves(self) -> List[Move]:
        visited = self._visited
        n = len(visited)
        n_remaining = n - len(self._tour)
        if n_remaining == 0:
            return []
        k = self.neighbourhood
        if k is None or n_remaining <= k:
            return [c for c in range(n) if not visited[c]]
        moves: List[Move] = []
        for c in self._order[self._tour[-1]]:
            if not visited[c]:
                moves.append(c)
                if len(moves) == k:
                    break
        return moves

    def apply(self, move: Move) -> None:
        if (
            not isinstance(move, int)
            or not (0 <= move < len(self._visited))
            or self._visited[move]
        ):
            raise ValueError(f"illegal TSP move {move!r}")
        self._length += self._dist[self._tour[-1]][move]
        self._tour.append(move)
        self._visited[move] = 1

    def copy(self) -> "TSPState":
        clone = TSPState.__new__(TSPState)
        clone.instance = self.instance
        clone.neighbourhood = self.neighbourhood
        clone._tour = list(self._tour)
        clone._visited = bytearray(self._visited)
        clone._length = self._length
        clone._dist = self._dist
        clone._order = self._order
        return clone

    def score(self) -> float:
        # Negated tour length, including the closing edge once complete.
        length = self._length
        if len(self._tour) == len(self._visited):
            length += self._dist[self._tour[-1]][self._tour[0]]
        return -length

    def is_terminal(self) -> bool:
        return len(self._tour) == len(self._visited)

    def moves_played(self) -> int:
        return len(self._tour) - 1

    def heuristic_moves(self) -> List[Move]:
        """Unvisited cities ordered by distance from the current city."""
        last = self._tour[-1]
        moves = self.legal_moves()
        return sorted(moves, key=lambda c: self.instance.distances[last][c])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def tour(self) -> List[int]:
        """The partial (or complete) tour as a list of city indices."""
        return list(self._tour)

    def tour_length(self) -> float:
        """Current open-path length (closing edge added only when complete)."""
        return -self.score()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TSPState(visited={len(self._tour)}/{len(self._visited)}, length={self.tour_length():.1f})"
