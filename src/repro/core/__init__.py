"""Search algorithms: the paper's primary contribution and its baselines.

* :func:`repro.core.sample.sample` — one random playout (Section III).
* :func:`repro.core.nested.nested_search` / :func:`repro.core.nested.nmcs` —
  sequential Nested Monte-Carlo Search (Section III);
  :class:`repro.core.nested.NestedGame` is its game loop, which the parallel
  roles of :mod:`repro.parallel` drive too.
* :func:`repro.core.flat.flat_monte_carlo` — flat Monte-Carlo baseline.
* :func:`repro.core.reflexive.reflexive_search` — reflexive Monte-Carlo search
  (reference [6]), i.e. nesting without best-sequence memorisation.
* :func:`repro.core.iterated.iterated_search` — multi-restart NMCS.
* :func:`repro.core.nrpa.nrpa_search` — Nested Rollout Policy Adaptation
  (extension beyond the paper).
"""

from repro.core.counters import WorkCounter
from repro.core.result import SearchResult, BestTracker
from repro.core.sample import sample, best_of_samples
from repro.core.nested import NestedGame, nested_search, nmcs, evaluate_move
from repro.core.flat import flat_monte_carlo, Aggregation
from repro.core.reflexive import reflexive_search
from repro.core.iterated import iterated_search
from repro.core.nrpa import nrpa_search

__all__ = [
    "WorkCounter",
    "SearchResult",
    "BestTracker",
    "sample",
    "best_of_samples",
    "NestedGame",
    "nested_search",
    "nmcs",
    "evaluate_move",
    "flat_monte_carlo",
    "Aggregation",
    "reflexive_search",
    "iterated_search",
    "nrpa_search",
]
