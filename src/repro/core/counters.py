"""Work counters: the bridge between executed search work and simulated time.

The paper measures wall-clock seconds of a C + MPI implementation on physical
hardware.  A pure-Python reproduction cannot reproduce those absolute numbers,
and a single host cannot reproduce 64-way scaling, so the cluster experiments
of this library run on a simulated cluster (see :mod:`repro.cluster`).  The
searches themselves are *really executed*; what is simulated is only the time
they take on a node of a given frequency.

The unit of work is the **primitive move application** (one ``apply`` on a
game state), because in Morpion Solitaire — and in the other domains — the
cost of a rollout is proportional to the number of moves it plays.  Every
search algorithm in :mod:`repro.core` threads a :class:`WorkCounter` through
its playouts; the cost model (:mod:`repro.timemodel`) converts the counter
into simulated seconds for the executing node.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkCounter"]


@dataclass
class WorkCounter:
    """Accumulates the amount of search work performed.

    Attributes
    ----------
    moves:
        Number of primitive move applications (the cost unit).
    playouts:
        Number of random playouts completed.
    """

    moves: int = 0
    playouts: int = 0

    def add_moves(self, n: int) -> None:
        """Record ``n`` primitive move applications (and one playout)."""
        self.moves += int(n)
        self.playouts += 1

    def add_step(self, n: int = 1) -> None:
        """Record ``n`` move applications outside a playout (tree descent)."""
        self.moves += int(n)

    def snapshot(self) -> "WorkCounter":
        """An independent copy of the current totals."""
        return WorkCounter(self.moves, self.playouts)
