"""Morpion Solitaire game state (disjoint and touching variants).

The state keeps, besides the occupied cells, an **incrementally maintained**
set of legal moves: after each move only the lines through the new point can
become legal and only moves conflicting with the new point / the newly used
points or segments can become illegal.  A full re-scan
(:meth:`MorpionState.recompute_legal_moves`) is kept for cross-checking in the
property-based tests.

A move is a :class:`MorpionMove` ``(point, direction_index, start)``: the new
circle ``point`` and the line identified by its starting cell ``start`` and
its canonical direction index.  Two moves placing the same point but drawing
different lines are distinct moves, exactly as in the paper-and-pencil game.

Fast-kernel notes
-----------------
Occupancy and per-direction usage marks live on flat ``bytearray`` grids
(origin-offset, with a margin of at least ``line_length`` around every
occupied cell, regrown on demand as the position spreads), so the window
scans of the incremental update are integer index walks instead of
tuple-hashing set probes.  ``_legal`` maps each legal move to its
precomputed usage-mark ``frozenset``, which turns the conflict pruning in
:meth:`apply` into ``frozenset.isdisjoint`` calls, and the sorted legal list
is cached between moves.  Move identity, ordering and rng consumption are
bit-identical with the reference implementation; the seeded playout goldens
(``tests/data/playout_golden.json``) pin this.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.games.base import GameState, Move
from repro.games.morpion.geometry import (
    DIRECTIONS,
    Point,
    bounding_box,
    cross_points,
    line_cells,
    neighbours,
    segment_starts,
)

__all__ = ["MorpionVariant", "MorpionMove", "MorpionState"]


class MorpionVariant(str, enum.Enum):
    """Rule variant: how two lines of the same direction may interact."""

    #: Lines of the same direction may not share any point (paper's variant).
    DISJOINT = "disjoint"
    #: Lines of the same direction may share endpoints but not segments.
    TOUCHING = "touching"

    @classmethod
    def parse(cls, value: "MorpionVariant | str") -> "MorpionVariant":
        """Accept either an enum member or its string value ("5D"/"5T" aliases too)."""
        if isinstance(value, MorpionVariant):
            return value
        normalized = str(value).strip().lower()
        aliases = {
            "disjoint": cls.DISJOINT,
            "5d": cls.DISJOINT,
            "d": cls.DISJOINT,
            "touching": cls.TOUCHING,
            "5t": cls.TOUCHING,
            "t": cls.TOUCHING,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown Morpion variant {value!r}")
        return aliases[normalized]


class MorpionMove(NamedTuple):
    """A Morpion move: place ``point`` and draw the line ``(start, direction)``."""

    point: Point
    direction: int  # index into geometry.DIRECTIONS
    start: Point

    def cells(self, line_length: int) -> Tuple[Point, ...]:
        """The cells of the drawn line."""
        return line_cells(self.start, DIRECTIONS[self.direction], line_length)


class MorpionState(GameState):
    """A Morpion Solitaire position.

    Parameters
    ----------
    line_length:
        Number of circles per line (5 for the standard game, 4 for the
        scaled-down boards used in fast experiments).
    variant:
        :class:`MorpionVariant` (or its string form).
    initial_points:
        Optional explicit starting circles; defaults to the standard cross for
        the chosen ``line_length``.
    max_moves:
        Optional cap on the game length: once this many moves have been
        played the position is terminal even if further lines could be drawn.
        The full game has no such cap; the cap exists so that tests and
        CI-sized benchmark workloads can bound the cost of a playout while
        keeping the branching structure of the real game.
    """

    __slots__ = (
        "line_length",
        "variant",
        "max_moves",
        "_initial",
        "_occupied",
        "_used",
        "_legal",
        "_history",
        "_sorted_legal",
        "_occ",
        "_usedg",
        "_gx0",
        "_gy0",
        "_gx1",
        "_gy1",
        "_gh",
    )

    def __init__(
        self,
        line_length: int = 5,
        variant: "MorpionVariant | str" = MorpionVariant.DISJOINT,
        initial_points: Optional[Iterable[Point]] = None,
        max_moves: Optional[int] = None,
    ) -> None:
        if line_length < 3:
            raise ValueError("line_length must be at least 3")
        if max_moves is not None and max_moves < 0:
            raise ValueError("max_moves must be non-negative when given")
        self.line_length = line_length
        self.variant = MorpionVariant.parse(variant)
        self.max_moves = max_moves
        pts = set(initial_points) if initial_points is not None else cross_points(line_length)
        if not pts:
            raise ValueError("the initial position needs at least one circle")
        self._initial: FrozenSet[Point] = frozenset(pts)
        self._occupied: Set[Point] = set(pts)
        # Per-direction usage marks: points for DISJOINT, segment starts for TOUCHING.
        self._used: List[Set[Point]] = [set() for _ in DIRECTIONS]
        self._history: List[MorpionMove] = []
        self._rebuild_grids()
        self._legal: Dict[MorpionMove, FrozenSet[Point]] = self._scan_all_legal()
        self._sorted_legal: Optional[List[MorpionMove]] = None

    # ------------------------------------------------------------------ #
    # Flat-grid plumbing
    # ------------------------------------------------------------------ #
    def _rebuild_grids(self, extra: Optional[Point] = None) -> None:
        """(Re)allocate the occupancy / usage grids around the current position.

        The pad of ``2 * line_length + 2`` keeps every occupied cell at least
        ``line_length`` away from the grid edge even after another
        ``line_length`` moves toward that edge, so regrows are amortised and
        every window scan through a candidate cell stays in bounds with no
        wraparound between grid columns.
        """
        pts = self._occupied if extra is None else self._occupied | {extra}
        min_x, min_y, max_x, max_y = bounding_box(pts)
        pad = 2 * self.line_length + 2
        self._gx0 = min_x - pad
        self._gy0 = min_y - pad
        self._gx1 = max_x + pad
        self._gy1 = max_y + pad
        self._gh = self._gy1 - self._gy0 + 1
        size = (self._gx1 - self._gx0 + 1) * self._gh
        gx0, gy0, gh = self._gx0, self._gy0, self._gh
        occ = bytearray(size)
        for (x, y) in self._occupied:
            occ[(x - gx0) * gh + (y - gy0)] = 1
        usedg = bytearray(size)
        for di, marks in enumerate(self._used):
            bit = 1 << di
            for (x, y) in marks:
                usedg[(x - gx0) * gh + (y - gy0)] |= bit
        self._occ = occ
        self._usedg = usedg

    def _marks_for(self, move: MorpionMove) -> FrozenSet[Point]:
        return frozenset(self._usage_marks(move))

    # ------------------------------------------------------------------ #
    # Rule primitives
    # ------------------------------------------------------------------ #
    def _usage_marks(self, move: MorpionMove) -> Tuple[Point, ...]:
        """The cells this move marks as used in its direction."""
        direction = DIRECTIONS[move.direction]
        if self.variant is MorpionVariant.DISJOINT:
            return line_cells(move.start, direction, self.line_length)
        return segment_starts(move.start, direction, self.line_length)

    def _conflicts(self, move: MorpionMove) -> bool:
        """True if the move's line re-uses a point/segment already used in its direction."""
        used = self._used[move.direction]
        if not used:
            return False
        return any(cell in used for cell in self._usage_marks(move))

    def _window_move(self, start: Point, di: int) -> Optional[MorpionMove]:
        """If the window ``(start, di)`` has exactly one empty cell and no
        conflict, return the corresponding legal move, else ``None``."""
        length = self.line_length
        dx, dy = DIRECTIONS[di]
        gh = self._gh
        step = dx * gh + dy
        j = (start[0] - self._gx0) * gh + (start[1] - self._gy0)
        occ = self._occ
        empty = -1
        for _ in range(length):
            if not occ[j]:
                if empty >= 0:
                    return None  # two empty cells: not playable yet
                empty = j
            j += step
        if empty < 0:
            return None  # fully occupied window: nothing to place
        usedg = self._usedg
        bit = 1 << di
        j = (start[0] - self._gx0) * gh + (start[1] - self._gy0)
        mark_count = length if self.variant is MorpionVariant.DISJOINT else length - 1
        for _ in range(mark_count):
            if usedg[j] & bit:
                return None
            j += step
        ex, ey = divmod(empty, gh)
        return MorpionMove((ex + self._gx0, ey + self._gy0), di, start)

    def _scan_all_legal(self) -> Dict[MorpionMove, FrozenSet[Point]]:
        """Full scan of legal moves (used at construction and for testing)."""
        legal: Dict[MorpionMove, FrozenSet[Point]] = {}
        length = self.line_length
        occupied = self._occupied
        candidates: Set[Point] = set()
        for pt in occupied:
            for q in neighbours(pt):
                if q not in occupied:
                    candidates.add(q)
        for p in candidates:
            for di, (dx, dy) in enumerate(DIRECTIONS):
                for offset in range(length):
                    start = (p[0] - offset * dx, p[1] - offset * dy)
                    move = self._window_move(start, di)
                    if move is not None and move.point == p:
                        legal[move] = self._marks_for(move)
        return legal

    def recompute_legal_moves(self) -> List[MorpionMove]:
        """Legal moves recomputed from scratch (ignores the incremental cache)."""
        return sorted(self._scan_all_legal())

    # ------------------------------------------------------------------ #
    # GameState interface
    # ------------------------------------------------------------------ #
    def legal_moves(self) -> List[Move]:
        if self.max_moves is not None and len(self._history) >= self.max_moves:
            return []
        cached = self._sorted_legal
        if cached is None:
            cached = self._sorted_legal = sorted(self._legal)
        return list(cached)

    def is_terminal(self) -> bool:
        if self.max_moves is not None and len(self._history) >= self.max_moves:
            return True
        return not self._legal

    def apply(self, move: Move) -> None:
        if self.max_moves is not None and len(self._history) >= self.max_moves:
            raise ValueError("the move cap has been reached; the game is over")
        if not isinstance(move, MorpionMove):
            # Allow plain tuples of the right shape (e.g. after (de)serialisation).
            try:
                move = MorpionMove(*move)  # type: ignore[misc]
            except TypeError as exc:  # pragma: no cover - defensive
                raise ValueError(f"not a Morpion move: {move!r}") from exc
        new_marks = self._legal.get(move)
        if new_marks is None:
            raise ValueError(f"illegal Morpion move {move!r}")
        length = self.line_length
        p = move.point
        x, y = p
        if (
            x - self._gx0 < length
            or self._gx1 - x < length
            or y - self._gy0 < length
            or self._gy1 - y < length
        ):
            self._rebuild_grids(extra=p)
        gx0, gy0, gh = self._gx0, self._gy0, self._gh
        occ = self._occ
        usedg = self._usedg
        idx_p = (x - gx0) * gh + (y - gy0)

        # 1. Occupancy.
        occ[idx_p] = 1
        self._occupied.add(p)

        # 2. Usage marks for the move's direction.
        di = move.direction
        bit = 1 << di
        self._used[di] |= new_marks
        for (qx, qy) in new_marks:
            usedg[(qx - gx0) * gh + (qy - gy0)] |= bit

        # 3. Incremental legal-move maintenance.
        #    (a) moves that wanted to place a circle on p are gone;
        #    (b) moves in the same direction that now conflict are gone;
        #    (c) windows through p may have become playable.
        mark_count = length if self.variant is MorpionVariant.DISJOINT else length - 1
        # A move conflicts with the new line iff it is in the same direction
        # and its marks overlap ``new_marks``.  Every mark set is an
        # arithmetic progression of ``mark_count`` cells from its move's
        # start along the direction vector, so overlap reduces to a
        # colinearity-plus-distance test on the two starts — plain integer
        # arithmetic instead of a set intersection per candidate.
        prev_legal = self._legal
        stx, sty = move.start
        mc = mark_count
        if di == 0:
            self._legal = {
                m: marks
                for m, marks in prev_legal.items()
                if m[0] != p
                and (m[1] != 0 or m[2][1] != sty or not -mc < m[2][0] - stx < mc)
            }
        elif di == 1:
            self._legal = {
                m: marks
                for m, marks in prev_legal.items()
                if m[0] != p
                and (m[1] != 1 or m[2][0] != stx or not -mc < m[2][1] - sty < mc)
            }
        elif di == 2:
            self._legal = {
                m: marks
                for m, marks in prev_legal.items()
                if m[0] != p
                and (
                    m[1] != 2
                    or m[2][0] - stx != m[2][1] - sty
                    or not -mc < m[2][0] - stx < mc
                )
            }
        else:
            self._legal = {
                m: marks
                for m, marks in prev_legal.items()
                if m[0] != p
                and (
                    m[1] != 3
                    or m[2][0] - stx != sty - m[2][1]
                    or not -mc < m[2][0] - stx < mc
                )
            }
        for dii, (dx, dy) in enumerate(DIRECTIONS):
            step = dx * gh + dy
            b = 1 << dii
            span = length * step
            mark_span = mark_count * step
            s = idx_p
            stop = idx_p - span
            while s != stop:
                empty = -1
                j = s
                jend = s + span
                playable = True
                while j != jend:
                    if not occ[j]:
                        if empty >= 0:
                            playable = False
                            break
                        empty = j
                    j += step
                if playable and empty >= 0:
                    j = s
                    jend = s + mark_span
                    while j != jend:
                        if usedg[j] & b:
                            playable = False
                            break
                        j += step
                    if playable:
                        sax = s // gh + gx0
                        say = s % gh + gy0
                        new_move = MorpionMove(
                            (empty // gh + gx0, empty % gh + gy0), dii, (sax, say)
                        )
                        self._legal[new_move] = frozenset(
                            [(sax + i * dx, say + i * dy) for i in range(mark_count)]
                        )
                s -= step

        self._history.append(move)
        self._sorted_legal = None

    def copy(self) -> "MorpionState":
        clone = MorpionState.__new__(MorpionState)
        clone.line_length = self.line_length
        clone.variant = self.variant
        clone.max_moves = self.max_moves
        clone._initial = self._initial
        clone._occupied = set(self._occupied)
        clone._used = [set(u) for u in self._used]
        clone._legal = self._legal  # never mutated in place; replaced on apply
        clone._history = list(self._history)
        clone._sorted_legal = self._sorted_legal
        clone._occ = bytearray(self._occ)
        clone._usedg = bytearray(self._usedg)
        clone._gx0 = self._gx0
        clone._gy0 = self._gy0
        clone._gx1 = self._gx1
        clone._gy1 = self._gy1
        clone._gh = self._gh
        return clone

    def score(self) -> float:
        """Morpion's objective: the number of moves played."""
        return float(len(self._history))

    def moves_played(self) -> int:
        return len(self._history)

    # ------------------------------------------------------------------ #
    # Introspection used by rendering, records and tests
    # ------------------------------------------------------------------ #
    def occupied(self) -> FrozenSet[Point]:
        """All circles currently on the grid (initial cross + played moves)."""
        return frozenset(self._occupied)

    def initial_points(self) -> FrozenSet[Point]:
        """The circles of the starting position."""
        return self._initial

    def history(self) -> Tuple[MorpionMove, ...]:
        """The moves played so far, in order."""
        return tuple(self._history)

    def used_marks(self) -> Tuple[FrozenSet[Point], ...]:
        """Per-direction used points (disjoint) or segment starts (touching)."""
        return tuple(frozenset(u) for u in self._used)

    def lines_drawn(self) -> List[Tuple[Point, ...]]:
        """The full cell tuples of every line drawn so far, in play order."""
        return [m.cells(self.line_length) for m in self._history]

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if an internal invariant is violated.

        Exercised heavily by the property-based tests: the usage marks must be
        consistent with the history, every played point must be occupied, and
        the incremental legal-move cache must equal a full re-scan.
        """
        expected_used: List[Set[Point]] = [set() for _ in DIRECTIONS]
        occupied = set(self._initial)
        for m in self._history:
            assert m.point not in occupied, "move placed a circle on an occupied cell"
            cells = m.cells(self.line_length)
            for cell in cells:
                if cell != m.point:
                    assert cell in occupied, "line drawn through an empty cell"
            direction = DIRECTIONS[m.direction]
            if self.variant is MorpionVariant.DISJOINT:
                marks = set(cells)
            else:
                marks = set(segment_starts(m.start, direction, self.line_length))
            assert not (marks & expected_used[m.direction]), (
                "two lines of the same direction share a forbidden point/segment"
            )
            expected_used[m.direction] |= marks
            occupied.add(m.point)
        assert occupied == self._occupied, "occupancy inconsistent with history"
        assert [set(u) for u in self._used] == expected_used, "usage marks inconsistent"
        gx0, gy0, gh = self._gx0, self._gy0, self._gh
        for (x, y) in self._occupied:
            assert self._occ[(x - gx0) * gh + (y - gy0)] == 1, "occupancy grid diverged"
        assert sum(self._occ) == len(self._occupied), "occupancy grid has stray cells"
        for di, marks_set in enumerate(self._used):
            bit = 1 << di
            marked = sum(1 for v in self._usedg if v & bit)
            assert marked == len(marks_set), "usage grid diverged"
            for (x, y) in marks_set:
                assert self._usedg[(x - gx0) * gh + (y - gy0)] & bit, "usage grid missing mark"
        assert self._legal == self._scan_all_legal(), "incremental legal moves diverged"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MorpionState(length={self.line_length}, variant={self.variant.value}, "
            f"moves={len(self._history)}, legal={len(self._legal)})"
        )
