"""Last-Minute vs Round-Robin on an oversubscribed heterogeneous cluster.

Reproduces the shape of Table VI: when half of the PCs run four client
processes on two cores (so each client runs at half speed whenever the node is
saturated), the Last-Minute dispatcher — which hands freed clients to the job
with the longest expected remaining computation — clearly beats the blind
Round-Robin assignment.

Run with:  python examples/heterogeneous_cluster.py
"""

from __future__ import annotations

from repro import Engine, SearchSpec
from repro.analysis.timefmt import format_hms
from repro.paper import calibrated_cost_model
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("morpion-small")
    level = workload.high_level
    engine = Engine(cost_model=calibrated_cost_model(workload, master_seed=0))

    print(f"Workload: {workload.description}")
    print(f"Search: parallel NMCS level {level}, first move only\n")

    for label in ("16x4+16x2", "8x4+8x2"):
        spec = SearchSpec(
            workload=workload.name,
            backend="sim-cluster",
            cluster=f"heterogeneous:{label}",
            level=level,
            seed=0,
            max_steps=1,
        )
        rr = engine.run(spec.replace(dispatcher="rr"))
        lm = engine.run(spec.replace(dispatcher="lm"))
        assert rr.sequence == lm.sequence  # same search, different schedule
        print(
            f"{label:10s}  Round-Robin {format_hms(rr.simulated_seconds):>9s}   "
            f"Last-Minute {format_hms(lm.simulated_seconds):>9s}   "
            f"RR/LM = {rr.simulated_seconds / lm.simulated_seconds:.2f}"
        )

    print(
        "\nPaper reference (level 4 first move): 16x4+16x2 -> RR 45m17s vs LM 28m37s (1.58x);"
        " 8x4+8x2 -> RR 1h24m11s vs LM 58m21s (1.44x)"
    )


if __name__ == "__main__":
    main()
