"""Quickstart: sequential Nested Monte-Carlo Search on Morpion Solitaire.

Runs the paper's sequential algorithm (Section III) at levels 0-2 on a
scaled-down Morpion board, compares it against the flat Monte-Carlo baseline,
renders the best grid found, and finishes with the unified API: the same
search moved onto the simulated cluster by changing one field of a
:class:`repro.SearchSpec`.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import Engine, MorpionState, SearchSpec, SeedSequence, flat_monte_carlo, nmcs, sample
from repro.games.morpion import render_state
from repro.games.morpion.geometry import cross_points


def main() -> None:
    # A line-length-4 board with the compact 12-circle cross: the same rules as
    # the paper's 5D game, small enough for a laptop demo.
    def fresh_state() -> MorpionState:
        return MorpionState(line_length=4, initial_points=cross_points(3), max_moves=25)

    print("Morpion Solitaire (disjoint rules, line length 4)")
    print(f"initial legal moves: {len(fresh_state().legal_moves())}\n")

    # Level 0: a single random playout (the paper's `sample` function).
    playout = sample(fresh_state(), seeds=SeedSequence(0))
    print(f"random playout score:            {playout.score:4.0f} moves")

    # Flat Monte-Carlo baseline: best of 4 playouts per candidate move.
    flat = flat_monte_carlo(fresh_state(), playouts_per_move=4, seeds=SeedSequence(0))
    print(f"flat Monte-Carlo (4 samples):    {flat.score:4.0f} moves")

    # Nested Monte-Carlo Search, levels 1 and 2.
    best = None
    for level in (1, 2):
        start = time.perf_counter()
        result = nmcs(fresh_state(), level=level, seed=0)
        elapsed = time.perf_counter() - start
        print(
            f"NMCS level {level}:                    {result.score:4.0f} moves "
            f"({result.work.playouts} playouts, {elapsed:.1f}s)"
        )
        best = result if best is None or result.score > best.score else best

    print("\nBest grid found (initial circles 'o', played circles numbered):\n")
    print(render_state(best.final_state(fresh_state())))

    # The unified API: one spec per scenario, one field per difference.  The
    # calibrated cost model puts the scaled workload on the paper's timescale
    # (without it the demo-sized jobs are dominated by simulated latency).
    from repro.paper import calibrated_cost_model

    engine = Engine(cost_model=calibrated_cost_model("morpion-small"))
    spec = SearchSpec(workload="morpion-small", algorithm="nmcs", max_steps=1)
    sequential = engine.run(spec)
    cluster = engine.run(spec.replace(backend="sim-cluster", dispatcher="lm", n_clients=8))
    print(
        f"\nUnified API, first move at level {sequential.level}: "
        f"sequential {sequential.simulated_seconds:.1f}s simulated vs "
        f"{cluster.simulated_seconds:.1f}s on 8 Last-Minute clients "
        f"(same score: {sequential.score == cluster.score})"
    )

    # Sweeps are declarative too: a SweepSpec is a base spec plus axes, and
    # the engine's batch layer runs the whole grid in one call (attach a
    # repro.ResultStore to make it durable and resumable — see
    # examples/sweep_resume.py and docs/SWEEPS.md).
    from repro import SweepSpec

    sweep = SweepSpec(
        base=spec.replace(backend="sim-cluster", dispatcher="lm"),
        axes={"n_clients": (1, 4, 8)},
    )
    reports = engine.run_many(sweep)
    curve = ", ".join(f"{r.spec.n_clients}: {r.simulated_seconds:.1f}s" for r in reports)
    print(f"Sweep over clients (one SweepSpec, one run_many): {curve}")


if __name__ == "__main__":
    main()
