"""Ablations: network-latency sensitivity and the thread-vs-process GIL effect.

* **Latency** — the speedup of the cluster algorithms depends on client jobs
  being much longer than a message round-trip; sweeping the simulated latency
  quantifies that margin.
* **GIL** — the reason this reproduction simulates the cluster instead of
  using Python threads: one grid of pure-Python searches run serially, on a
  plain thread pool calling ``Engine.run`` and on ``Engine.run_many``'s
  process executor.  The thread pool gives essentially no speedup, while the
  process pool does.  Measured with real wall clock on the local machine.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import MASTER_SEED, write_result
from repro.analysis.timefmt import format_hms
from repro.api import Engine, SearchSpec
from repro.cluster.network import NetworkModel
from repro.cluster.topology import homogeneous_cluster
from repro.parallel.config import ParallelConfig
from repro.parallel.driver import run_parallel_nmcs


@pytest.mark.benchmark(group="ablation-latency")
def test_ablation_network_latency(
    benchmark, bench_workload, bench_executor, bench_cost_model, results_dir
):
    cluster = homogeneous_cluster(32)
    latencies_ms = (0.0, 0.05, 1.0, 10.0)

    def run():
        times = {}
        for latency in latencies_ms:
            network = (
                NetworkModel.instantaneous() if latency == 0.0 else NetworkModel.slow(latency_ms=latency)
            )
            config = ParallelConfig(
                level=bench_workload.low_level, max_root_steps=1, master_seed=MASTER_SEED
            )
            run_result = run_parallel_nmcs(
                bench_workload.state(), config, cluster,
                executor=bench_executor, cost_model=bench_cost_model, network=network,
            )
            times[latency] = run_result.simulated_seconds
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "Network latency ablation (32 clients, low level, first move)\n" + "\n".join(
        f"latency {latency:6.2f} ms: {format_hms(seconds)}" for latency, seconds in times.items()
    )
    write_result(results_dir, "ablation_latency", text)
    # Simulated time grows monotonically with latency, and a 10 ms latency
    # (200x the Gigabit default) visibly hurts.
    ordered = [times[latency] for latency in latencies_ms]
    assert ordered == sorted(ordered)
    assert times[10.0] > times[0.05] * 1.05


@pytest.mark.benchmark(group="ablation-gil")
def test_ablation_threads_vs_processes(benchmark, results_dir):
    """Real wall-clock comparison on the local machine (not simulated)."""
    n_workers = min(4, os.cpu_count() or 1)
    cells = [
        SearchSpec(workload="weakschur", level=2, seed=MASTER_SEED + i)
        for i in range(2 * n_workers)
    ]

    def timed(run_cells):
        start = time.perf_counter()
        reports = run_cells()
        return reports, time.perf_counter() - start

    def threads():
        with ThreadPoolExecutor(n_workers) as pool:
            return list(pool.map(Engine().run, cells))

    def run():
        return (
            timed(lambda: Engine().run_many(cells)),
            timed(threads),
            timed(lambda: Engine().run_many(cells, executor="process", max_workers=n_workers)),
        )

    (serial, serial_s), (threaded, thread_s), (procs, proc_s) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    text = (
        f"GIL ablation: {len(cells)} level-2 NMCS cells on Weak Schur (k=4, n<=50), "
        f"{n_workers} workers\n"
        f"serial:           {serial_s:.2f} s wall\n"
        f"thread pool:      {thread_s:.2f} s wall\n"
        f"process pool:     {proc_s:.2f} s wall\n"
        f"thread speedup:   {serial_s / thread_s:.2f}x\n"
        f"process speedup:  {serial_s / proc_s:.2f}x"
    )
    write_result(results_dir, "ablation_gil", text)
    benchmark.extra_info["thread_speedup"] = round(serial_s / thread_s, 2)
    benchmark.extra_info["process_speedup"] = round(serial_s / proc_s, 2)

    # All three executors return the same search results.  Process-executor
    # reports carry rendered move strings, so compare the rendered form.
    def results(reports):
        return [(report.score, report.to_dict()["sequence"]) for report in reports]

    assert results(serial) == results(threaded) == results(procs)
    # The GIL keeps the thread pool well below linear scaling.
    assert serial_s / thread_s < 2.0
