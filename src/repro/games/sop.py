"""Sequential Ordering Problem (SOP) as a rollout / nested-search domain.

The SOP is an asymmetric TSP-path problem with precedence constraints: find a
Hamiltonian path from a start node to an end node of minimum cost such that
every node is visited after all of its declared predecessors.  It is the
second benchmark (besides the TSP) on which Guerriero & Mancini evaluated
their parallel rollout strategies, cited in Section II of the paper, so the
library provides it for the same comparison.

The state is a partial path starting at node 0.  Legal moves are the
unvisited nodes whose predecessors have all been visited (the terminal node
``n-1`` is only legal once everything else has been visited).  The score is
the negated path cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.games.base import GameState, Move

__all__ = ["SOPInstance", "SOPState"]


@dataclass(frozen=True)
class SOPInstance:
    """An immutable SOP instance.

    Attributes
    ----------
    costs:
        Asymmetric cost matrix as ``n`` rows of ``n`` floats, indexed
        ``costs[i][j]``.
    predecessors:
        ``predecessors[i]`` is the frozenset of nodes that must be visited
        before node ``i``.  Node 0 (start) has no predecessors and node
        ``n-1`` (end) implicitly requires every other node.
    """

    costs: Tuple[Tuple[float, ...], ...]
    predecessors: Tuple[FrozenSet[int], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.costs)

    def __post_init__(self) -> None:
        n = len(self.costs)
        if any(len(row) != n for row in self.costs):
            raise ValueError("cost matrix must be square")
        if len(self.predecessors) != n:
            raise ValueError("predecessors must have one entry per node")
        if self.predecessors[0]:
            raise ValueError("the start node (0) cannot have predecessors")
        for i, preds in enumerate(self.predecessors):
            for p in preds:
                if not 0 <= p < n or p == i:
                    raise ValueError(f"invalid predecessor {p} for node {i}")

    @classmethod
    def random(
        cls,
        n_nodes: int = 20,
        precedence_density: float = 0.15,
        seed: int = 0,
        cost_range: Tuple[int, int] = (1, 100),
    ) -> "SOPInstance":
        """Random instance with an acyclic random precedence structure.

        Precedences are only generated from lower-numbered to higher-numbered
        nodes, which guarantees at least one feasible ordering (the identity
        permutation) and therefore a playable game.
        """
        if n_nodes < 2:
            raise ValueError("a SOP instance needs at least 2 nodes")
        if not 0.0 <= precedence_density <= 1.0:
            raise ValueError("precedence_density must be in [0, 1]")
        rng = random.Random(seed)
        lo, hi = cost_range
        costs = tuple(
            tuple(0.0 if i == j else float(rng.randint(lo, hi)) for j in range(n_nodes))
            for i in range(n_nodes)
        )
        preds: List[set] = [set() for _ in range(n_nodes)]
        for j in range(1, n_nodes - 1):
            for i in range(1, j):
                if rng.random() < precedence_density:
                    preds[j].add(i)
        # The end node requires every other node.
        preds[n_nodes - 1] = set(range(n_nodes - 1))
        return cls(costs, tuple(frozenset(p) for p in preds))

    def path_cost(self, path: Sequence[int]) -> float:
        """Cost of visiting ``path`` in order (must start at 0, end at n-1)."""
        if sorted(path) != list(range(self.n_nodes)):
            raise ValueError("path must visit every node exactly once")
        if path[0] != 0 or path[-1] != self.n_nodes - 1:
            raise ValueError("path must start at node 0 and end at the last node")
        return float(sum(self.costs[path[i]][path[i + 1]] for i in range(len(path) - 1)))

    def is_feasible(self, path: Sequence[int]) -> bool:
        """True if ``path`` respects every precedence constraint."""
        position = {node: i for i, node in enumerate(path)}
        for node, preds in enumerate(self.predecessors):
            for p in preds:
                if position[p] > position[node]:
                    return False
        return True


class SOPState(GameState):
    """Partial feasible path over a :class:`SOPInstance`."""

    __slots__ = ("instance", "_path", "_visited", "_cost")

    def __init__(self, instance: SOPInstance):
        self.instance = instance
        self._path: List[int] = [0]
        self._visited = {0}
        self._cost = 0.0

    # ------------------------------------------------------------------ #
    # GameState interface
    # ------------------------------------------------------------------ #
    def legal_moves(self) -> List[Move]:
        n = self.instance.n_nodes
        moves = []
        for node in range(1, n):
            if node in self._visited:
                continue
            if self.instance.predecessors[node] <= self._visited:
                moves.append(node)
        return moves

    def apply(self, move: Move) -> None:
        if move not in self.legal_moves():
            raise ValueError(f"illegal SOP move {move!r}")
        last = self._path[-1]
        self._cost += self.instance.costs[last][move]
        self._path.append(move)
        self._visited.add(move)

    def copy(self) -> "SOPState":
        clone = SOPState.__new__(SOPState)
        clone.instance = self.instance
        clone._path = list(self._path)
        clone._visited = set(self._visited)
        clone._cost = self._cost
        return clone

    def score(self) -> float:
        return -self._cost

    def is_terminal(self) -> bool:
        return len(self._visited) == self.instance.n_nodes

    def moves_played(self) -> int:
        return len(self._path) - 1

    def heuristic_moves(self) -> List[Move]:
        """Feasible successors ordered by immediate cost (cheapest first)."""
        last = self._path[-1]
        return sorted(self.legal_moves(), key=lambda c: self.instance.costs[last][c])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def path(self) -> List[int]:
        """The partial (or complete) path."""
        return list(self._path)

    def path_cost(self) -> float:
        """Cost of the partial path so far."""
        return self._cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SOPState(visited={len(self._visited)}/{self.instance.n_nodes}, cost={self._cost:.1f})"
