"""Reference scores for Morpion Solitaire (disjoint / 5D version).

These are the scores quoted in the paper (Sections I and V) and are used by
the Figure 1 section of the ``paper.md`` that ``repro paper`` writes, and by
the record-hunt example, to put the scores found by this reproduction into
context.  They are *reference data*, not something the
library claims to reach on a laptop: the paper's 80-move sequences required a
level-4 nested search running for days on a 64-core cluster.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.games.morpion.state import MorpionState, MorpionVariant

__all__ = ["RECORD_SCORES", "reference_records", "is_new_record", "best_known_score"]

#: Scores for the standard 5-line disjoint (5D) game, as reported in the paper.
RECORD_SCORES: Dict[str, int] = {
    # Best score obtained by a human player (Demaine et al. 2006, cited as [11]).
    "human": 68,
    # Previous best computer score, obtained with Simulated Annealing
    # (Hyyrö & Poranen 2007, cited as [16]).
    "simulated_annealing": 79,
    # The paper's result: two sequences of 80 moves found by Parallel Nested
    # Monte-Carlo Search at level 4 on the 64-core cluster (Section V, fig. 1).
    "parallel_nmcs_paper": 80,
}


def reference_records() -> Dict[str, int]:
    """A copy of the reference record table for the 5D variant."""
    return dict(RECORD_SCORES)


def best_known_score(variant: "MorpionVariant | str" = MorpionVariant.DISJOINT) -> int:
    """Best score known *at the time of the paper* for the given variant.

    Only the disjoint variant is reported in the paper; for the touching
    variant this returns 0 (meaning: no reference available here).
    """
    variant = MorpionVariant.parse(variant)
    if variant is MorpionVariant.DISJOINT:
        return RECORD_SCORES["parallel_nmcs_paper"]
    return 0


def is_new_record(score: float, variant: "MorpionVariant | str" = MorpionVariant.DISJOINT) -> bool:
    """Would ``score`` have beaten the paper-time record for this variant?"""
    return score > best_known_score(variant)
