"""Cost model: work units -> simulated seconds.

The unit of work is one primitive move application (see
:mod:`repro.core.counters`).  A node of frequency ``f`` GHz executes
``units_per_ghz_per_second * f`` work units per second per core, so the
simulated duration of a job is::

    seconds = work_units / (units_per_ghz_per_second * freq_ghz * share)

where ``share`` accounts for core oversubscription (handled by
:class:`repro.cluster.node.Node`).

Calibration
-----------
The default rate is chosen so that a *standard 5D Morpion* level-3 "first
move" search — about 170 million move applications when run with this
library's playout statistics — takes roughly the 8 minutes the paper reports
on a single 1.86 GHz core (Table I).  The absolute value is irrelevant for
every speedup in the ``paper.md`` that ``repro paper`` writes (speedups are
time ratios on the same workload), but keeping the calibrated figure makes
the simulated tables read on the same scale as the paper's.

:func:`calibrate_from_reference` recalibrates the rate from any measured
(work, reference-seconds, frequency) triple, e.g. from the sequential Table I
run (:func:`repro.paper.calibrated_cost_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "CostModel",
    "calibrate_from_reference",
    "DEFAULT_UNITS_PER_GHZ",
    "CALIBRATED_UNITS_PER_GHZ",
    "calibrated_units_per_ghz",
]

#: Default work-unit rate: move applications per second per GHz of clock.
#: Chosen so a 1.86 GHz node performs ~650k move applications per second,
#: in the ballpark of the authors' C implementation on their hardware.
DEFAULT_UNITS_PER_GHZ: float = 350_000.0

#: Per-workload rates measured with the rollout profiler on this library's
#: own kernels (``repro profile``, see benchmarks/results/BENCH_rollout_hotpath.json):
#: ``measured units/s ÷ REFERENCE_FREQ_GHZ`` from the committed pre-refactor
#: baseline.  These are *pinned as data* on each registered workload
#: (``Workload.units_per_ghz``) for consumers that want the simulated clock
#: to track what the Python kernels actually cost, e.g. profiler drift
#: reports.  The :class:`CostModel` default stays at
#: :data:`DEFAULT_UNITS_PER_GHZ` — the kernel-regression goldens
#: (Tables II–VI) are expressed on that paper-calibrated scale and must not
#: move when the kernels get faster.
CALIBRATED_UNITS_PER_GHZ: Dict[str, float] = {
    "morpion-bench": 2271.2,
    "samegame": 792.5,
    "tsp": 22261.8,
    "sop": 8339.5,
    "weakschur": 38250.9,
    "leftmove": 49304.8,
}


def calibrated_units_per_ghz(workload_name: str) -> Optional[float]:
    """The measured per-GHz work rate for a named workload, if calibrated."""
    return CALIBRATED_UNITS_PER_GHZ.get(workload_name)


@dataclass(frozen=True)
class CostModel:
    """Converts work units into simulated seconds for a node frequency."""

    units_per_ghz_per_second: float = DEFAULT_UNITS_PER_GHZ

    def __post_init__(self) -> None:
        if self.units_per_ghz_per_second <= 0:
            raise ValueError("units_per_ghz_per_second must be positive")

    def units_per_second(self, freq_ghz: float) -> float:
        """Work units per second for one computation alone on a core."""
        if freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        return self.units_per_ghz_per_second * freq_ghz

    def seconds_for(self, work_units: float, freq_ghz: float) -> float:
        """Uncontended duration of ``work_units`` on a ``freq_ghz`` core."""
        if work_units < 0:
            raise ValueError("work_units must be non-negative")
        return work_units / self.units_per_second(freq_ghz)

    def work_for(self, seconds: float, freq_ghz: float) -> float:
        """Inverse of :meth:`seconds_for` (useful for synthetic workloads)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return seconds * self.units_per_second(freq_ghz)


def calibrate_from_reference(
    work_units: float, reference_seconds: float, freq_ghz: float = 1.86
) -> CostModel:
    """Build a cost model such that ``work_units`` takes ``reference_seconds``.

    Typical use: run the sequential level-3 first-move search once, take its
    work counter, and calibrate so that it maps to the paper's 8m03s — then
    every simulated table is expressed on the paper's time scale.
    """
    if work_units <= 0 or reference_seconds <= 0:
        raise ValueError("work_units and reference_seconds must be positive")
    rate = work_units / (reference_seconds * freq_ghz)
    return CostModel(units_per_ghz_per_second=rate)
