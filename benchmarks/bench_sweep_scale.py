"""Sweep-scale benchmark: process-parallel sweep execution vs serial.

The sweep layer's cells are pure CPU (simulated clusters burn real cycles in
one Python process), so a thread pool cannot scale them past the GIL.  This
benchmark times the same seeded grid executed serially and sharded across the
persistent worker-process pool (``Engine.run_many(..., executor="process")``,
see :mod:`repro.lab.procpool`) at 2/4/8 workers, and — before looking at any
clock — asserts the *contract* that makes the speedup meaningful: every mode
leaves byte-identical science in its :class:`~repro.lab.ResultStore` (same
keys, same scores, same move sequences).

Honest-numbers note: speedup is bounded by physical cores.  Each trajectory
entry records ``cpu_count`` alongside the timings, and the ≥2.5x speedup
floor at 4 workers is only asserted when the machine actually has ≥4 CPUs —
on a 1-core container the expected speedup is ~1.0x and the entry says so
rather than flattering the pool.

Each session appends an entry to ``results/BENCH_sweep_scale.json`` — the
scaling trajectory of the sweep executor across sessions (linked from the
ROADMAP's dispatcher-science item).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import write_result
from repro.api import Engine, SearchSpec
from repro.lab import ResultStore, SweepSpec
from repro.lab.procpool import close_shared_pool

#: A CPU-bound grid: 8 independent level-2 Weak Schur searches (~0.3s each
#: serially on the reference container), varied only by seed so every cell
#: does comparable work.
GRID = SweepSpec(
    base=SearchSpec(workload="weakschur", level=2),
    axes={"seed": tuple(range(8))},
    name="sweep-scale",
)
WORKER_COUNTS = (2, 4, 8)
#: Speedup floor at 4 workers — asserted only on machines with >= 4 CPUs.
SPEEDUP_FLOOR_AT_4 = 2.5

TRAJECTORY = Path(__file__).parent / "results" / "BENCH_sweep_scale.json"


def append_trajectory_entry(entry: dict) -> None:
    """Append one scaling-trajectory record (the file is a JSON array)."""
    TRAJECTORY.parent.mkdir(exist_ok=True)
    history = []
    if TRAJECTORY.is_file():
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def _science(store: ResultStore) -> dict:
    """The store's content reduced to what must match across executors."""
    return {
        record["key"]: (
            record["report"]["score"],
            tuple(record["report"]["sequence"]),
            record["report"]["work_units"],
        )
        for record in store.records()
    }


def test_sweep_scale_process_pool(results_dir, tmp_path):
    engine = Engine()

    serial_store = ResultStore(tmp_path / "serial")
    t0 = time.perf_counter()
    engine.run_many(GRID, store=serial_store)
    serial_wall = time.perf_counter() - t0
    serial_science = _science(serial_store)
    assert len(serial_science) == len(GRID)

    by_workers = {}
    try:
        for n_workers in WORKER_COUNTS:
            close_shared_pool()  # time each pool size from a cold start
            store = ResultStore(tmp_path / f"proc-{n_workers}")
            t0 = time.perf_counter()
            engine.run_many(
                GRID, store=store, executor="process", max_workers=n_workers
            )
            wall = time.perf_counter() - t0
            # Correctness before speed: identical keys, scores and sequences.
            assert _science(store) == serial_science, (
                f"process pool ({n_workers} workers) stored different science"
            )
            by_workers[n_workers] = {
                "wall_seconds": round(wall, 4),
                "speedup_vs_serial": round(serial_wall / wall, 3),
            }
    finally:
        close_shared_pool()

    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4:
        speedup = by_workers[4]["speedup_vs_serial"]
        assert speedup >= SPEEDUP_FLOOR_AT_4, (
            f"4 process workers on {cpu_count} CPUs only reached "
            f"{speedup:.2f}x over serial (floor {SPEEDUP_FLOOR_AT_4}x)"
        )

    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "executor": "process",
        "cpu_count": cpu_count,
        "scenario": {
            "workload": GRID.base.workload,
            "level": GRID.base.level,
            "cells": len(GRID),
            "backend": GRID.base.backend,
        },
        "serial_wall_seconds": round(serial_wall, 4),
        "by_workers": by_workers,
        "stores_identical_to_serial": True,
    }
    append_trajectory_entry(entry)

    lines = [
        f"Sweep scale ({len(GRID)} x level-{GRID.base.level} {GRID.base.workload} "
        f"cells, {cpu_count} CPUs)",
        f"{'workers':>8s} {'wall_s':>8s} {'speedup':>8s}",
        f"{'serial':>8s} {serial_wall:8.3f} {'1.00x':>8s}",
    ]
    for n_workers, cell in by_workers.items():
        lines.append(
            f"{n_workers:8d} {cell['wall_seconds']:8.3f} "
            f"{cell['speedup_vs_serial']:7.2f}x"
        )
    write_result(results_dir, "sweep_scale", "\n".join(lines))
