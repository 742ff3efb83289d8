"""Kernel stress benchmark: the high-latency completion-reschedule regime.

The scenario the ROADMAP flagged as CPU-pathological: ``latency_s=0.5`` (a
network round-trip ~1000x longer than a demo job) with up to 64 client
processes oversubscribed onto a single node.  Under the pre-rewrite node
scheduler this spun for minutes of wall time (every arrival/completion
cancelled and re-pushed a completion event per running computation, and
float drift re-fired full reschedules); under virtual-work-time scheduling
it completes in milliseconds with one live completion event per node.

Beyond timing the 64-client run, the benchmark asserts the structural fix:
total events fired grow ~linearly (not quadratically) in the client count,
and the whole sweep respects a hard wall-time budget so the storm can never
regress silently (CI runs this file as a smoke job).

Each session appends an entry to ``results/BENCH_kernel_stress.json`` — the
perf trajectory of the kernel across sessions.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from conftest import write_result
from repro.cluster.network import NetworkModel
from repro.cluster.topology import single_machine
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.driver import run_parallel_nmcs
from repro.workloads import get_workload

#: Latency ~1000x the mean demo job duration: the pathological ratio.
STRESS_LATENCY_S = 0.5
CLIENT_COUNTS = (8, 16, 32, 64)
#: Hard budget for the full sweep.  The rewritten kernel needs well under a
#: second; the seed kernel did not finish the 8-client cell in 10 minutes.
WALL_BUDGET_S = 60.0

TRAJECTORY = Path(__file__).parent / "results" / "BENCH_kernel_stress.json"


def run_stress(n_clients: int):
    """One pathological cell: oversubscribed single node, huge latency."""
    workload = get_workload("leftmove")
    config = ParallelConfig(
        level=workload.low_level,
        dispatcher=DispatcherKind.LAST_MINUTE,
        n_medians=8,
        max_root_steps=1,
    )
    return run_parallel_nmcs(
        workload.state(),
        config,
        single_machine(n_clients),
        network=NetworkModel(latency_s=STRESS_LATENCY_S),
    )


def append_trajectory_entry(entry: dict) -> None:
    """Append one perf-trajectory record (the file is a JSON array)."""
    TRAJECTORY.parent.mkdir(exist_ok=True)
    history = []
    if TRAJECTORY.is_file():
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


@pytest.mark.benchmark(group="kernel-stress")
def test_kernel_stress_event_storm(benchmark, results_dir):
    wall_start = time.perf_counter()
    by_clients = {}
    for n in CLIENT_COUNTS:
        t0 = time.perf_counter()
        run = run_stress(n)
        cell_wall = time.perf_counter() - t0
        assert run.kernel_stats is not None
        stats = run.kernel_stats.to_dict()
        by_clients[n] = {
            "wall_seconds": round(cell_wall, 4),
            "events_fired": stats["events_fired"],
            "events_cancelled": stats["events_cancelled"],
            "peak_queue_size": stats["peak_queue_size"],
            "simulated_seconds": stats["simulated_seconds"],
            "score": run.score,
        }
    sweep_wall = time.perf_counter() - wall_start

    # The benchmarked figure: the headline 64-client pathological cell.
    benchmark(run_stress, 64)

    # Structural assertions — the storm must stay dead:
    # (1) events grow ~linearly in the client count (8x clients allows 8x
    #     events; the quadratic storm would be 64x),
    ratio = by_clients[64]["events_fired"] / by_clients[8]["events_fired"]
    assert ratio <= 8.0, f"event growth ratio {ratio:.1f} suggests superlinear scheduling"
    # (2) the whole sweep respects the wall budget,
    assert sweep_wall < WALL_BUDGET_S, f"stress sweep took {sweep_wall:.1f}s"
    # (3) cancelled events stay a minority (no cancel/re-push churn), and
    #     all runs produced the optimal leftmove first move.
    for n, cell in by_clients.items():
        assert cell["events_cancelled"] < cell["events_fired"], (n, cell)
        assert cell["score"] > 0.0, (n, cell)

    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "kernel": "virtual-work-time",
        "scenario": {
            "workload": "leftmove",
            "dispatcher": "lm",
            "cluster": "single",
            "latency_s": STRESS_LATENCY_S,
            "max_steps": 1,
            "n_medians": 8,
        },
        "by_clients": by_clients,
        "sweep_wall_seconds": round(sweep_wall, 3),
        "event_growth_ratio_64_over_8": round(ratio, 3),
    }
    append_trajectory_entry(entry)

    lines = [
        "Kernel stress (latency_s=0.5, single oversubscribed node, LM first-move)",
        f"{'clients':>8s} {'wall_s':>8s} {'events':>8s} {'cancelled':>10s} {'peak_q':>7s}",
    ]
    for n, cell in by_clients.items():
        lines.append(
            f"{n:8d} {cell['wall_seconds']:8.3f} {cell['events_fired']:8d} "
            f"{cell['events_cancelled']:10d} {cell['peak_queue_size']:7d}"
        )
    lines.append(f"sweep wall: {sweep_wall:.2f}s  event growth 64/8: {ratio:.2f}x")
    write_result(results_dir, "kernel_stress", "\n".join(lines))
