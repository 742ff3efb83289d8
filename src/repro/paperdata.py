"""The paper's reported measurements (Tables I–VI), as machine-readable data.

Every duration quoted in Section V of the paper is recorded here in seconds,
with the standard deviation when the paper gives one and ``single_run=True``
for the parenthesised single-run entries.  ``repro paper`` prints these
values beside the reproduced tables in its ``paper.md``; its fidelity check
compares the *shape* of our simulated results (speedups, RR-vs-LM orderings,
level ratios) with the paper's — never the absolute seconds, which belong to
the authors' C + MPI code and hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.timefmt import parse_hms

__all__ = [
    "PaperTime",
    "TABLE_I",
    "TABLE_II",
    "TABLE_III",
    "TABLE_IV",
    "TABLE_V",
    "TABLE_VI",
    "PAPER_SPEEDUPS",
    "paper_speedup",
]


@dataclass(frozen=True)
class PaperTime:
    """One duration reported by the paper."""

    seconds: float
    std_seconds: Optional[float] = None
    single_run: bool = False

    @classmethod
    def of(cls, text: str, std: Optional[str] = None, single_run: bool = False) -> "PaperTime":
        return cls(
            seconds=parse_hms(text),
            std_seconds=parse_hms(std) if std else None,
            single_run=single_run,
        )


# --------------------------------------------------------------------------- #
# Table I — sequential algorithm (level -> {"first_move", "rollout"})
# --------------------------------------------------------------------------- #
TABLE_I: Dict[int, Dict[str, PaperTime]] = {
    3: {
        "first_move": PaperTime.of("08m03s", "19s"),
        "rollout": PaperTime.of("1h07m33s", "42s"),
    },
    4: {
        "first_move": PaperTime.of("28h00m06s", "58m55s"),
        "rollout": PaperTime.of("09d18h58m", single_run=True),
    },
}

# --------------------------------------------------------------------------- #
# Tables II-V — parallel times ({clients: {level: PaperTime}})
# --------------------------------------------------------------------------- #
TABLE_II: Dict[int, Dict[int, PaperTime]] = {  # Round-Robin, first move
    64: {3: PaperTime.of("10s", "1s"), 4: PaperTime.of("33m11s", "1m33s")},
    32: {3: PaperTime.of("20s", "2s"), 4: PaperTime.of("1h04m44s", "3m02s")},
    16: {3: PaperTime.of("37s", "5s"), 4: PaperTime.of("2h10m", single_run=True)},
    8: {3: PaperTime.of("01m11s", "8s")},
    4: {3: PaperTime.of("02m22s", "11s")},
    1: {3: PaperTime.of("09m07s", "28s"), 4: PaperTime.of("29h56m14s", single_run=True)},
}

TABLE_III: Dict[int, Dict[int, PaperTime]] = {  # Round-Robin, rollout
    64: {3: PaperTime.of("01m52s", "8s"), 4: PaperTime.of("5h09m16s", "5m40s")},
    32: {3: PaperTime.of("03m08s", "26s"), 4: PaperTime.of("6h31m", single_run=True)},
    16: {3: PaperTime.of("05m22s", "29s")},
    8: {3: PaperTime.of("10m18s", "1m21s")},
    4: {3: PaperTime.of("21m41s", "3m13s")},
    1: {3: PaperTime.of("1h26m28s")},
}

TABLE_IV: Dict[int, Dict[int, PaperTime]] = {  # Last-Minute, first move
    64: {3: PaperTime.of("09s", "2s"), 4: PaperTime.of("27m20s", "1m22s")},
    32: {3: PaperTime.of("19s", "1s"), 4: PaperTime.of("59m44s", "2m21s")},
    16: {3: PaperTime.of("37s", "4s"), 4: PaperTime.of("2h05m17s", single_run=True)},
    8: {3: PaperTime.of("01m12s", "5s")},
    4: {3: PaperTime.of("02m23s", "4s")},
    1: {3: PaperTime.of("09m30s", "21s"), 4: PaperTime.of("33h06m57s", single_run=True)},
}

TABLE_V: Dict[int, Dict[int, PaperTime]] = {  # Last-Minute, rollout
    64: {3: PaperTime.of("01m32s", "5s"), 4: PaperTime.of("4h10m09s", "24m04s")},
    32: {3: PaperTime.of("02m43s", "16s"), 4: PaperTime.of("6h58m21s", "52m42s")},
    16: {3: PaperTime.of("05m35s", "40s")},
    8: {3: PaperTime.of("11m33s", "1m34s")},
    4: {3: PaperTime.of("19m51s", "3m34s")},
    1: {3: PaperTime.of("1h31m40s")},
}

# --------------------------------------------------------------------------- #
# Table VI — heterogeneous repartitions, first move
#   keyed by (configuration, algorithm) -> {level: PaperTime}
# --------------------------------------------------------------------------- #
TABLE_VI: Dict[Tuple[str, str], Dict[int, PaperTime]] = {
    ("16x4+16x2", "LM"): {3: PaperTime.of("14s", "2s"), 4: PaperTime.of("28m37s", "1m30s")},
    ("16x4+16x2", "RR"): {3: PaperTime.of("16s", "2s"), 4: PaperTime.of("45m17s", "1m19s")},
    ("8x4+8x2", "LM"): {3: PaperTime.of("18s", "3s"), 4: PaperTime.of("58m21s", "2m44s")},
    ("8x4+8x2", "RR"): {3: PaperTime.of("25s", "2s"), 4: PaperTime.of("1h24m11s", "3m24s")},
}

# --------------------------------------------------------------------------- #
# Headline speedups quoted in the text of Section V.
# --------------------------------------------------------------------------- #
PAPER_SPEEDUPS: Dict[str, float] = {
    "rr_first_move_64_clients_level3": 56.0,
    "rr_first_move_64_clients_level3_frequency_corrected": 51.0,
    "rr_first_move_32_clients_level3": 29.8,
    "rr_first_move_32_clients_level4": 28.50,
    "rr_rollout_64_clients_level3": 44.0,
    "lm_first_move_32_clients_level4": 30.0,
    "lm_rollout_64_clients_level4": 56.0,
    "frequency_ratio_r": 1.09,
    "table1_level4_over_level3_first_move": 207.0,
    "table1_rollout_over_first_move_level3": 9.0,
}


def paper_speedup(table: Mapping[int, Dict[int, PaperTime]], clients: int, level: int) -> float:
    """Speedup implied by a paper table: time(1 client) / time(``clients``)."""
    baseline = table[1][level].seconds
    return baseline / table[clients][level].seconds
