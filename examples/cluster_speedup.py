"""Reproduce the paper's cluster speedup curve on the simulated cluster.

Runs the Round-Robin and Last-Minute parallel NMCS for the first move of a
scaled Morpion game on 1 to 64 simulated clients (Tables II and IV of the
paper) and prints the resulting times and speedups.  The searches are really
executed; elapsed time is simulated through the calibrated cost model, which
is how a pure-Python reproduction can exercise a 64-core cluster.

Run with:  python examples/cluster_speedup.py
"""

from __future__ import annotations

from repro import Engine
from repro.analysis.speedup import speedup_table
from repro.analysis.tables import pivot_table
from repro.analysis.timefmt import format_hms
from repro.lab import rows_from_reports
from repro.paper import calibrated_cost_model, paper_sweeps
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("morpion-small")
    # paper_sweeps builds each table as one SweepSpec; the engine's job cache
    # makes both tables execute each search job exactly once.
    engine = Engine(cost_model=calibrated_cost_model(workload, master_seed=0))
    sweeps = paper_sweeps(workload.name, [workload.low_level], seed=0)

    for name, title in (("table2", "Round-Robin"), ("table4", "Last-Minute")):
        rows = rows_from_reports(engine.run_many(sweeps[name]))
        print(
            pivot_table(
                rows,
                title=f"First move times for the {title} algorithm",
                index="n_clients",
                column="level",
                value="simulated_seconds",
                row_label="clients",
                fmt=format_hms,
                column_fmt=lambda level: f"level {level}",
            ).render()
        )
        speedups = speedup_table({row["n_clients"]: row["simulated_seconds"] for row in rows})
        print("speedups:", ", ".join(f"{c}: {s:.1f}x" for c, s in speedups.items()))
        print()

    print(
        "Paper reference (full 5D board, level 3 first move, Round-Robin):\n"
        "  64 clients: 10s   (speedup ~56)\n"
        "  32 clients: 20s   (speedup ~30)\n"
        "   1 client : 9m07s"
    )


if __name__ == "__main__":
    main()
