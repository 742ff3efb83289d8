"""SameGame puzzle as a :class:`~repro.games.base.GameState`.

SameGame is a classic single-agent Monte-Carlo search benchmark (it is the
domain used in the companion paper "Nested Monte-Carlo Search", IJCAI 2009,
reference [7] of the parallel paper).  It exercises the library on a domain
whose scoring is *not* simply the number of moves played, unlike Morpion
Solitaire, which matters for testing the generality of the search code.

Rules
-----
* The board is a grid of coloured cells (0 = empty).
* A move removes a connected group (4-neighbourhood) of at least two cells of
  the same colour and scores ``(n - 2)**2`` points where ``n`` is the group
  size.
* After a removal, cells fall down within their column (gravity) and empty
  columns are compacted to the left.
* Clearing the whole board grants a bonus of 1000 points.
* The game ends when no group of two or more cells remains.

Moves are identified by the *anchor cell* of the group: the (column, row) of
the lowest-then-leftmost cell of the group, which is stable under the
canonical board representation and therefore hashable and replayable.

Fast-kernel notes
-----------------
Columns are stored as ``bytearray`` stacks (bottom first, colours ``1..255``)
and all removable groups are enumerated by **one** iterative flood-fill pass
over a flat sentinel-padded scratch board — replacing the per-cell
``_group_at``/``_cell_color`` call storm the rollout profiler identified as
the dominant hotspot.  The group table is computed at most once per position
and shared between :meth:`legal_moves` and :meth:`apply` (the pre-refactor
kernel recomputed every group in both).  Move identifiers, ordering and
scores are bit-identical with the reference implementation; the seeded
playout goldens (``tests/data/playout_golden.json``) pin this.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.games.base import GameState, Move

__all__ = ["SameGameState", "random_board"]

Cell = Tuple[int, int]  # (column, row) with row 0 at the bottom


def random_board(
    width: int = 15,
    height: int = 15,
    colors: int = 5,
    seed: int = 0,
) -> List[List[int]]:
    """Generate a random SameGame board.

    The board is a list of ``width`` columns, each a list of ``height`` colour
    values in ``1..colors``.  A fixed ``seed`` gives a reproducible instance.
    """
    if width < 1 or height < 1:
        raise ValueError("board dimensions must be positive")
    if colors < 1:
        raise ValueError("colors must be >= 1")
    rng = random.Random(seed)
    return [
        [rng.randint(1, colors) for _ in range(height)] for _ in range(width)
    ]


class SameGameState(GameState):
    """SameGame position (see module docstring)."""

    FULL_CLEAR_BONUS = 1000.0

    __slots__ = ("_columns", "_score", "_moves_played", "height", "_group_cache")

    def __init__(self, board: Sequence[Sequence[int]], height: Optional[int] = None):
        # Internally columns only store the stacked (non-empty) cells, bottom
        # first; ``height`` is retained for rendering / invariants.
        columns: List[bytearray] = []
        for col in board:
            cells = list(col)
            if any(v <= 0 for v in cells):
                raise ValueError("board colours must be positive integers")
            if any(v > 255 for v in cells):
                raise ValueError("board colours must fit in a byte (1..255)")
            columns.append(bytearray(cells))
        self._columns = columns
        self.height = height if height is not None else (
            max((len(c) for c in self._columns), default=0)
        )
        for col in self._columns:
            if len(col) > self.height:
                raise ValueError("column taller than the declared height")
        self._score = 0.0
        self._moves_played = 0
        self._group_cache: Optional[Dict[Cell, List[int]]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls, width: int = 15, height: int = 15, colors: int = 5, seed: int = 0
    ) -> "SameGameState":
        """A random instance of the usual 15x15, 5-colour benchmark size."""
        return cls(random_board(width, height, colors, seed), height=height)

    # ------------------------------------------------------------------ #
    # Group computation
    # ------------------------------------------------------------------ #
    def _cell_color(self, col: int, row: int) -> int:
        if 0 <= col < len(self._columns) and 0 <= row < len(self._columns[col]):
            return self._columns[col][row]
        return 0

    def _groups(self) -> Dict[Cell, List[int]]:
        """All removable groups, keyed by anchor cell, cells as flat indices.

        One flood-fill pass over a sentinel-padded flat scratch board: a cell
        at ``(col, row)`` sits at index ``(col + 1) * stride + row`` with
        ``stride = height + 1``, so its four neighbours are ``±1`` (within
        the column, the sentinel byte above each stack stops the walk) and
        ``±stride`` (adjacent columns; ghost columns of zeros pad both
        sides).  Every cell is visited once; singletons short-circuit before
        any stack work.
        """
        cached = self._group_cache
        if cached is not None:
            return cached
        columns = self._columns
        width = len(columns)
        stride = self.height + 1
        flat = bytearray((width + 2) * stride)
        for ci, col in enumerate(columns):
            base = (ci + 1) * stride
            flat[base : base + len(col)] = col
        # Visited cells are zeroed in place (colours are >= 1, so zero is
        # unambiguous).  This is safe for the singleton fast path: a cell is
        # only zeroed when absorbed into a group, and any same-coloured
        # neighbour of a still-unvisited cell is necessarily unvisited too
        # (otherwise this cell would already belong to that group).
        groups: Dict[Cell, List[int]] = {}
        w2 = width + 2
        for ci, col in enumerate(columns):
            idx = (ci + 1) * stride
            top = idx + len(col)
            while idx < top:
                color = flat[idx]
                # Singleton fast path: skip unless a same-coloured neighbour
                # exists (visited cells are zero and colours are >= 1).
                if color and (
                    flat[idx + 1] == color
                    or flat[idx - 1] == color
                    or flat[idx + stride] == color
                    or flat[idx - stride] == color
                ):
                    # Breadth-first flood with a read cursor over ``cells``
                    # itself — one append per cell, no stack pops.  The anchor
                    # (lowest row, then leftmost column) is tracked inline as
                    # the minimum of row * (width + 2) + (col + 1), an integer
                    # with the same ordering; cells reached via ``j + 1`` sit
                    # one row higher than ``j``, so only the other three
                    # neighbours can lower it.
                    flat[idx] = 0
                    cells = [idx]
                    keep = cells.append
                    ak = (idx % stride) * w2 + idx // stride
                    pos = 0
                    n = 1
                    while pos < n:
                        j = cells[pos]
                        pos += 1
                        k = j + 1
                        if flat[k] == color:
                            flat[k] = 0
                            keep(k)
                            n += 1
                        k = j - 1
                        if flat[k] == color:
                            flat[k] = 0
                            keep(k)
                            n += 1
                            kk = (k % stride) * w2 + k // stride
                            if kk < ak:
                                ak = kk
                        k = j + stride
                        if flat[k] == color:
                            flat[k] = 0
                            keep(k)
                            n += 1
                            kk = (k % stride) * w2 + k // stride
                            if kk < ak:
                                ak = kk
                        k = j - stride
                        if flat[k] == color:
                            flat[k] = 0
                            keep(k)
                            n += 1
                            kk = (k % stride) * w2 + k // stride
                            if kk < ak:
                                ak = kk
                    groups[(ak % w2 - 1, ak // w2)] = cells
                idx += 1
        self._group_cache = groups
        return groups

    # ------------------------------------------------------------------ #
    # GameState interface
    # ------------------------------------------------------------------ #
    def legal_moves(self) -> List[Move]:
        return sorted(self._groups().keys())

    def apply(self, move: Move) -> None:
        groups = self._groups()
        cells = groups.get(move)
        if cells is None:
            raise ValueError(f"illegal SameGame move {move!r}")
        n = len(cells)
        stride = self.height + 1
        # Remove the cells column by column (from the top so indices stay valid).
        by_column: Dict[int, List[int]] = {}
        for idx in cells:
            by_column.setdefault(idx // stride - 1, []).append(idx % stride)
        columns = self._columns
        for c, rows in by_column.items():
            col = columns[c]
            for r in sorted(rows, reverse=True):
                del col[r]
        # Compact empty columns to the left.
        self._columns = [col for col in columns if col]
        self._score += float((n - 2) ** 2)
        self._moves_played += 1
        if not self._columns:
            self._score += self.FULL_CLEAR_BONUS
        self._group_cache = None

    def copy(self) -> "SameGameState":
        clone = SameGameState.__new__(SameGameState)
        clone._columns = [bytearray(col) for col in self._columns]
        clone.height = self.height
        clone._score = self._score
        clone._moves_played = self._moves_played
        clone._group_cache = None
        return clone

    def score(self) -> float:
        return self._score

    def moves_played(self) -> int:
        return self._moves_played

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests and examples
    # ------------------------------------------------------------------ #
    def remaining_cells(self) -> int:
        """Number of non-empty cells left on the board."""
        return sum(len(col) for col in self._columns)

    def cleared(self) -> bool:
        """True when the whole board has been removed."""
        return self.remaining_cells() == 0

    def columns(self) -> List[List[int]]:
        """A copy of the internal column representation (bottom first)."""
        return [list(col) for col in self._columns]

    def render(self) -> str:
        """ASCII rendering, one character per cell, top row first."""
        width = len(self._columns)
        lines = []
        for row in range(self.height - 1, -1, -1):
            line = []
            for col in range(width):
                v = self._cell_color(col, row)
                line.append("." if v == 0 else str(v % 10))
            lines.append("".join(line) if line else "")
        return "\n".join(lines) if lines else "(empty board)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SameGameState(cells={self.remaining_cells()}, "
            f"score={self._score}, moves={self._moves_played})"
        )
