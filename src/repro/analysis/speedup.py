"""Speedup computations.

The paper's headline numbers are speedups: "the speedup of the algorithm for
64 clients is 56" (Section V).  These helpers compute the same quantities
from measured or simulated durations.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["speedup", "speedup_table"]


def speedup(baseline_seconds: float, parallel_seconds: float) -> float:
    """Classical speedup: baseline time divided by parallel time."""
    if baseline_seconds < 0 or parallel_seconds <= 0:
        raise ValueError("durations must be positive")
    return baseline_seconds / parallel_seconds


def speedup_table(
    times_by_clients: Mapping[int, float], baseline_clients: int = 1
) -> Dict[int, float]:
    """Speedups relative to the ``baseline_clients`` entry of a sweep.

    ``times_by_clients`` maps a client count to the measured duration, like a
    column of Tables II–V.  The returned mapping contains a speedup for every
    client count present (including the baseline itself, whose speedup is 1).
    """
    if baseline_clients not in times_by_clients:
        raise ValueError(f"no baseline entry for {baseline_clients} client(s)")
    baseline = times_by_clients[baseline_clients]
    return {
        clients: speedup(baseline, seconds) for clients, seconds in sorted(times_by_clients.items())
    }
