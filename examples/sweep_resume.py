"""Declarative sweeps with a durable, resumable result store (repro.lab).

Reproduces the shape of Tables II and IV — first-move times of Round-Robin
vs Last-Minute over a grid of client counts — as ONE declarative
:class:`repro.SweepSpec` executed through the engine's streaming batch
layer.  Results land in a content-addressed :class:`repro.ResultStore`, so
running this script a second time executes zero new searches (watch the
``cached`` events), and interrupting it mid-sweep (Ctrl-C) loses nothing:
the next run completes only the missing cells.

Run with:  python examples/sweep_resume.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Engine, ResultStore, SearchSpec, SweepSpec
from repro.analysis.tables import pivot_table
from repro.analysis.timefmt import format_hms
from repro.paper import calibrated_cost_model
from repro.lab import rows_from_reports, write_csv

STORE_DIR = Path(tempfile.gettempdir()) / "repro-sweep-demo"


def main() -> None:
    # One declarative object for the whole grid: dispatcher × client count.
    # Every cell shares the master seed, so the engine's job cache executes
    # each search job exactly once however many topologies replay it.
    sweep = SweepSpec(
        base=SearchSpec(workload="morpion-small", backend="sim-cluster", max_steps=1),
        axes={"dispatcher": ("rr", "lm"), "n_clients": (1, 4, 8, 16)},
        name="rr-vs-lm-first-move",
    )
    store = ResultStore(STORE_DIR)
    engine = Engine(cost_model=calibrated_cost_model("morpion-small"))

    print(f"Sweep {sweep.name!r}: {len(sweep)} cells -> store {STORE_DIR}")
    print("(re-run this script: every cell below turns 'cached'; Ctrl-C then re-run:")
    print(" only the missing cells execute)\n")

    def show(event) -> None:
        cell = f"dispatcher={event.spec.dispatcher} clients={event.spec.n_clients}"
        if event.kind == "started":
            print(f"  [{event.done + 1}/{event.total}] running {cell} ...")
        elif event.terminal:
            print(f"  [{event.done}/{event.total}] {event.kind:9s} {cell}")

    reports = engine.run_many(sweep, store=store, on_event=show)

    # Flat rows -> paper-style table, straight from the export layer.
    rows = rows_from_reports(reports, store=store)
    print()
    print(
        pivot_table(
            rows,
            title="First move times (simulated) — Round-Robin vs Last-Minute",
            index="n_clients",
            column="dispatcher",
            value="simulated_seconds",
            row_label="clients",
            fmt=format_hms,
        ).render()
    )
    csv_path = STORE_DIR / "rows.csv"
    write_csv(rows, csv_path)
    print(f"\nrows exported to {csv_path}")
    print(f"store now holds {len(store)} result(s); delete {STORE_DIR} to start fresh")


if __name__ == "__main__":
    main()
