"""Nested rollouts on the Travelling Salesman Problem.

Section II of the paper cites Guerriero & Mancini's parallel rollout
strategies evaluated on the TSP and the SOP.  This example runs the library's
search algorithms on a random Euclidean TSP instance and compares them with
the greedy nearest-neighbour heuristic, then shows the same search running on
the simulated cluster.

Run with:  python examples/tsp_rollout.py
"""

from __future__ import annotations

import time

from repro import (
    ParallelConfig,
    SeedSequence,
    TSPInstance,
    TSPState,
    homogeneous_cluster,
    nmcs,
    run_parallel_nmcs,
    sample,
)


def main() -> None:
    instance = TSPInstance.random(n_cities=30, seed=7)
    state = TSPState(instance, neighbourhood=8)

    nn_tour = instance.nearest_neighbour_tour()
    nn_length = instance.tour_length(nn_tour)
    print(f"TSP with {instance.n_cities} cities")
    print(f"nearest-neighbour heuristic: {nn_length:8.1f}")

    random_tour = sample(state, seeds=SeedSequence(0))
    print(f"single random rollout:       {-random_tour.score:8.1f}")

    for level in (1, 2):
        start = time.perf_counter()
        result = nmcs(state, level=level, seed=0)
        print(
            f"NMCS level {level}:               {-result.score:8.1f} "
            f"({time.perf_counter() - start:.1f}s, {result.work.playouts} rollouts)"
        )

    # The same level-2 search on the simulated cluster.  This instance is not
    # a named workload, so it runs through the parallel kernel directly, as
    # the nmcs and sample lines above call theirs (see docs/API.md).
    cluster_run = run_parallel_nmcs(
        state.copy(), ParallelConfig(level=2, master_seed=0), homogeneous_cluster(8)
    )
    print(
        f"parallel NMCS level 2 (8 simulated clients): {-cluster_run.score:8.1f} "
        f"in {cluster_run.simulated_seconds:.1f} simulated seconds"
    )


if __name__ == "__main__":
    main()
