"""Capture golden kernel results for the virtual-work-time regression test.

Run once against a kernel revision considered correct::

    PYTHONPATH=src python tests/data/capture_golden.py

and commit the resulting ``kernel_golden.json``.  The scenarios cover the
Table II-VI shapes (RR/LM x first-move/rollout x homogeneous/heterogeneous)
at test scale; ``tests/test_kernel_regression.py`` replays them and requires
bit-identical scores/sequences and matching work totals.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import Engine, SearchSpec

SCENARIOS = [
    # Table II: RR first move, client sweep.
    {"workload": "morpion-small", "backend": "sim-cluster", "dispatcher": "rr",
     "max_steps": 1, "n_clients": 4, "n_medians": 8},
    {"workload": "morpion-small", "backend": "sim-cluster", "dispatcher": "rr",
     "max_steps": 1, "n_clients": 8, "n_medians": 8},
    # Table III: RR rollout.
    {"workload": "leftmove", "backend": "sim-cluster", "dispatcher": "rr",
     "n_clients": 4, "n_medians": 4},
    # Table IV: LM first move.
    {"workload": "morpion-small", "backend": "sim-cluster", "dispatcher": "lm",
     "max_steps": 1, "n_clients": 8, "n_medians": 8},
    # Table V: LM rollout.
    {"workload": "leftmove", "backend": "sim-cluster", "dispatcher": "lm",
     "n_clients": 4, "n_medians": 4},
    # Table VI: heterogeneous oversubscribed clusters, both dispatchers.
    {"workload": "morpion-small", "backend": "sim-cluster", "dispatcher": "rr",
     "max_steps": 1, "cluster": "heterogeneous:2x4+2x2", "n_clients": 12, "n_medians": 8},
    {"workload": "morpion-small", "backend": "sim-cluster", "dispatcher": "lm",
     "max_steps": 1, "cluster": "heterogeneous:2x4+2x2", "n_clients": 12, "n_medians": 8},
]


def main() -> None:
    engine = Engine()
    records = []
    for overrides in SCENARIOS:
        spec = SearchSpec(**overrides)
        report = engine.run(spec)
        records.append(
            {
                "spec": overrides,
                "score": report.score,
                "sequence": [repr(move) for move in report.sequence],
                "work_units": report.work_units,
                "simulated_seconds": report.simulated_seconds,
                "n_messages": sum(report.raw.trace.payload_counts().values()),
            }
        )
        print(f"{overrides}: score={report.score} sim={report.simulated_seconds:.6f}")
    out = Path(__file__).parent / "kernel_golden.json"
    out.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(records)} scenarios)")


if __name__ == "__main__":
    main()
