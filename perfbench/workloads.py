"""The benchmark's four workloads, driven only through the library's public surface.

Each workload builds its inputs from the run seed, sets up once
(:meth:`Workload.setup`), then runs self-contained *passes*
(:meth:`Workload.run_pass`): pass ``i`` always does the same work for the
same seed, whatever ran before it, so a traced re-run of pass 0 must
reproduce its exact counts.  Every pass checks its own outputs and counts
each mismatch as a failed operation.

The public surface used here is ``SearchSpec``/``SweepSpec``,
``Engine.run``/``run_many``, ``ResultStore``, ``SearchService``/
``ServiceServer``/``ServiceClient`` and ``calibrate_from_reference``;
``get_workload`` only supplies start positions for replaying results.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from harness import HostClock, latency_summary, summary
from repro.api import Engine, SearchSpec
from repro.lab.store import ResultStore
from repro.lab.sweep import SweepSpec
from repro.service import SearchService, ServiceClient, ServiceConfig, ServiceError, ServiceServer
from repro.timemodel.cost import calibrate_from_reference
from repro.workloads import get_workload


@dataclass
class PassResult:
    """What one pass measured and how many of its operations were wrong."""

    wall_s: float
    attempted: int
    #: checks the pass's outputs and returns the number of wrong operations;
    #: the harness calls it once, after the pass, with any tracer removed
    check: Callable[[], int]
    #: latency samples by name (milliseconds), pooled across passes
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: per-layer numbers only the workload can see (e.g. service job snapshots)
    layer: Dict[str, float] = field(default_factory=dict)
    #: factor that scales this pass's times to the reference host speed
    #: (``HostClock.scale``)
    host_scale: float = 1.0


def derived_seeds(seed: int, label: str, n: int) -> List[int]:
    """``n`` reproducible 31-bit seeds for one pass or one role of a run."""
    rng = random.Random(f"perfbench:{seed}:{label}")
    return [rng.randrange(2**31) for _ in range(n)]


def rendered(sequence: Sequence[Any]) -> Tuple[str, ...]:
    """A move sequence in the wire/store form (``repr`` per move)."""
    return tuple(move if isinstance(move, str) else repr(move) for move in sequence)


def replays(workload: str, sequence: Sequence[Any], score: float) -> bool:
    """True when ``sequence`` plays legally from the workload's start to ``score``.

    Moves may be objects or their ``repr`` strings (store records keep the
    latter); each is matched against the position's legal moves.
    """
    state = get_workload(workload).state()
    for move in sequence:
        if isinstance(move, str):
            move = next((m for m in state.legal_moves() if repr(m) == move), None)
        if move is None or move not in state.legal_moves():
            return False
        state.apply(move)
    return state.score() == score


class Workload:
    """One named workload: set up once, then run repeatable passes.

    A pass may run only once its predecessor's check has run (the check
    also restores any state the pass changed)."""

    name = ""
    #: run seconds per pass: ``--seconds`` divided by it is the pass count
    nominal_pass_s = 1.0
    min_passes = 1

    def __init__(self, seed: int, tmp: Path, passes: int) -> None:
        self.seed = seed
        self.tmp = tmp
        self.passes = passes
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    @classmethod
    def passes_for(cls, seconds: float) -> int:
        return max(cls.min_passes, round(seconds / cls.nominal_pass_s))

    def setup(self) -> None:
        """Everything before the first pass (timed as ``setup_s``)."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def recorded(self, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
        """This workload's own metrics, kept in the run's record only.

        The result line holds only metrics every workload reports; these
        name what ``wall_s`` measures here, or are too unsteady to bound.
        """
        return {}

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""


def _wall_metric(name: str, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
    """``wall_s`` under the workload's own name: the median pass."""
    wall = summary(p.wall_s * p.host_scale for p in passes)
    return {name: {"value": wall["median"], "unit": "s", **wall}}


# --------------------------------------------------------------------------- #
# paper-tables
# --------------------------------------------------------------------------- #
class PaperTables(Workload):
    """Tables I–VI of the paper on morpion-small at level 2, from cold caches."""

    name = "paper-tables"
    #: a pass takes ~22 s; a run makes two and reports their median (mean)
    nominal_pass_s = 10.0
    WORKLOAD = "morpion-small"
    LEVEL = 2
    #: the paper's client counts for Tables II–V
    CLIENTS = (64, 32, 16, 8, 4, 1)
    #: rollout Tables III/V: the largest client count only, to fit the run length
    ROLLOUT_CLIENTS = (64,)
    #: Table VI repartitions (16/8 oversubscribed dual-core PCs + 16/8 regular)
    HETEROGENEOUS = ("heterogeneous:16x4+16x2", "heterogeneous:8x4+8x2")
    #: the paper's sequential first-move time at its level 3 (Table I, 8m03s)
    REFERENCE_SECONDS = 483.0
    FREQ_GHZ = 1.86

    def master_seed(self, index: int) -> int:
        (seed,) = derived_seeds(self.seed, f"tables:{index}", 1)
        return seed

    def setup(self) -> None:
        # Each pass's tables are calibrated on that pass's own Table I first
        # move, as the paper does, so every pass runs on the paper's timescale.
        self.cost_models = []
        for index in range(self.passes):
            reference = Engine().run(SearchSpec(
                workload=self.WORKLOAD, level=self.LEVEL, seed=self.master_seed(index), max_steps=1
            ))
            self.cost_models.append(calibrate_from_reference(
                reference.work_units, self.REFERENCE_SECONDS, self.FREQ_GHZ
            ))

    def sweeps(self, master_seed: int) -> Dict[str, SweepSpec]:
        sequential = SearchSpec(workload=self.WORKLOAD, level=self.LEVEL, seed=master_seed)
        simulated = sequential.replace(backend="sim-cluster", cluster="paper-mix")
        return {
            "table1": SweepSpec(base=sequential, axes={"max_steps": (1, None)}, name="table1"),
            "tables2_4": SweepSpec(
                base=simulated.replace(max_steps=1),
                axes={"dispatcher": ("rr", "lm"), "n_clients": self.CLIENTS},
                name="tables2_4",
            ),
            "table6": SweepSpec(
                base=sequential.replace(backend="sim-cluster", max_steps=1),
                axes={"cluster": self.HETEROGENEOUS, "dispatcher": ("lm", "rr")},
                name="table6",
            ),
            "tables3_5": SweepSpec(
                base=simulated,
                axes={"dispatcher": ("rr", "lm"), "n_clients": self.ROLLOUT_CLIENTS},
                name="tables3_5",
            ),
        }

    def run_pass(self, index: int) -> PassResult:
        sweeps = self.sweeps(self.master_seed(index))
        engine = Engine(cost_model=self.cost_models[index])
        store = ResultStore(self.fresh_dir("tables"))
        # A pass is ~20 s: each cell is a segment of its own, with a short probe.
        clock = HostClock(probe_repeats=1)

        def lap_per_cell(event: Any) -> None:
            if event.kind != "started":
                clock.lap()

        reports = {}
        for name, sweep in sweeps.items():
            clock.start()
            reports[name] = engine.run_many(
                sweep, store=store, error_policy="skip", on_event=lap_per_cell
            )
            clock.stop()
        attempted = sum(len(sweep) for sweep in sweeps.values())

        def check() -> int:
            failed = attempted - sum(len(batch) for batch in reports.values())
            # Every simulated cell must equal the sequential Table I cell with
            # the same level, seed and max_steps: the parallel search is exact.
            table1 = {r.spec.max_steps: (r.score, rendered(r.sequence)) for r in reports["table1"]}
            for name in ("tables2_4", "table6", "tables3_5"):
                for report in reports[name]:
                    if (report.score, rendered(report.sequence)) != table1.get(report.spec.max_steps):
                        failed += 1
            return failed

        return PassResult(
            wall_s=clock.raw_s, attempted=attempted, check=check, host_scale=clock.scale
        )

    def recorded(self, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
        return _wall_metric("tables_wall_s", passes)


# --------------------------------------------------------------------------- #
# search-kernels
# --------------------------------------------------------------------------- #
class SearchKernels(Workload):
    """Sequential level-2 NMCS on five games plus one NRPA run, no store."""

    name = "search-kernels"
    nominal_pass_s = 4.0
    min_passes = 2
    #: (workload, max_steps): morpion-bench commits two root moves, the
    #: others play the whole game
    NMCS = (
        ("samegame", None),
        ("morpion-bench", 2),
        ("tsp", None),
        ("weakschur", None),
        ("sop", None),
    )
    NRPA = SearchSpec(workload="tsp", algorithm="nrpa", level=2, params={"iterations": 30})

    def setup(self) -> None:
        self.engine = Engine()
        for workload in {name for name, _ in self.NMCS} | {self.NRPA.workload}:
            get_workload(workload).state()  # build the cached start positions

    def specs(self, index: int) -> List[SearchSpec]:
        seeds = derived_seeds(self.seed, f"search:{index}", len(self.NMCS) + 1)
        specs = [
            SearchSpec(workload=name, level=2, seed=seed, max_steps=max_steps)
            for (name, max_steps), seed in zip(self.NMCS, seeds)
        ]
        return specs + [self.NRPA.replace(seed=seeds[-1])]

    def run_pass(self, index: int) -> PassResult:
        specs = self.specs(index)
        clock = HostClock()
        reports = [clock.time(self.engine.run, spec) for spec in specs]

        def check() -> int:
            return sum(
                not replays(report.spec.workload, report.sequence, report.score)
                for report in reports
            )

        return PassResult(
            wall_s=clock.raw_s, attempted=len(specs), check=check, host_scale=clock.scale
        )

    def recorded(self, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
        return _wall_metric("search_wall_s", passes)


# --------------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------------- #
class ServiceMix(Workload):
    """One closed-loop client over a unix socket: cached re-submissions + fresh jobs."""

    name = "service-mix"
    nominal_pass_s = 0.7
    min_passes = 10
    #: distinct specs primed into the store; cached jobs re-submit these
    PRIMED = 200
    #: jobs of each kind per pass (a run has at least 10 passes: >= 1000 each)
    PER_KIND = 100
    BASE = SearchSpec(workload="leftmove", level=1)

    def _spec(self, offset: int) -> SearchSpec:
        return self.BASE.replace(seed=self.seed * 10**9 + offset)

    def setup(self) -> None:
        self.store = ResultStore(self.fresh_dir("service-store"))
        self.primed = [self._spec(k) for k in range(self.PRIMED)]
        self.primed_results = {
            report.spec.seed: (report.score, rendered(report.sequence))
            for report in Engine().run_many(self.primed, store=self.store)
        }
        self.reference_engine = Engine()
        self.service = SearchService(store=self.store, config=ServiceConfig(n_workers=2))
        socket_path = self.tmp / "service.sock"
        relative = os.path.relpath(socket_path)  # unix socket paths must be short
        self.server = ServiceServer(
            self.service,
            socket_path=relative if len(relative) < len(str(socket_path)) else str(socket_path),
        )
        self.client = ServiceClient(self.server.start(), client="perfbench")

    def plan(self, index: int) -> List[Tuple[str, SearchSpec]]:
        rng = random.Random(f"perfbench:{self.seed}:service:{index}")
        fresh = [
            ("uncached", self._spec(10**6 * (index + 1) + j)) for j in range(self.PER_KIND)
        ]
        cached = [
            ("cached", self.primed[rng.randrange(self.PRIMED)]) for _ in range(self.PER_KIND)
        ]
        jobs = fresh + cached
        rng.shuffle(jobs)
        return jobs

    def run_pass(self, index: int) -> PassResult:
        plan = self.plan(index)
        samples: Dict[str, List[float]] = {"cached": [], "uncached": []}
        outcomes = []

        def send_all() -> None:
            for kind, spec in plan:
                sent = time.perf_counter()
                try:
                    outcome = self.client.run(spec)
                except ServiceError:  # rejected: counts as a failure, no latency
                    outcome = None
                round_trip = time.perf_counter() - sent
                if outcome is not None:
                    samples[kind].append(round_trip * 1000.0)
                outcomes.append((kind, spec, outcome, round_trip))

        clock = HostClock()
        clock.time(send_all)

        waits, walls, transports = [], [], []
        for _, _, outcome, round_trip in outcomes:
            if outcome is not None:
                job = outcome["job"]
                waits.append(job["queue_wait_seconds"] * 1000.0)
                walls.append(job["wall_seconds"] * 1000.0)
                transports.append(
                    (round_trip - job["queue_wait_seconds"] - job["wall_seconds"]) * 1000.0
                )
        rejected = sum(outcome is None for _, _, outcome, _ in outcomes)

        def check() -> int:
            failed = rejected
            for kind, spec, outcome, _ in outcomes:
                if outcome is None:
                    continue
                (report,) = outcome["reports"] or [None]
                got = None if report is None else (report["score"], tuple(report["sequence"]))
                if kind == "cached":
                    expected = self.primed_results[spec.seed]
                    ok = outcome["submit"]["status"] == "cached"
                else:
                    direct = self.reference_engine.run(spec)
                    expected = (direct.score, rendered(direct.sequence))
                    ok = outcome["submit"]["status"] == "queued"
                    self.store.discard(spec)  # the next pass finds it uncached again
                failed += not ok or got != expected
            return failed

        return PassResult(
            wall_s=clock.raw_s,
            attempted=len(plan),
            check=check,
            host_scale=clock.scale,
            samples=samples,
            layer={
                "service.queue_wait_ms": statistics.median(waits) if waits else 0.0,
                "service.job_wall_ms": statistics.median(walls) if walls else 0.0,
                "service.transport_ms": statistics.median(transports) if transports else 0.0,
                "service.rejected": rejected,
                "service.round_trip_s": sum(o[3] for o in outcomes),
            },
        )

    def recorded(self, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
        """Per kind: the p50 and p99 round trip over the run's pooled samples."""
        metrics = {}
        for kind in ("cached", "uncached"):
            medians = [statistics.median(p.samples[kind]) * p.host_scale for p in passes]
            pooled = latency_summary([ms * p.host_scale for p in passes for ms in p.samples[kind]])
            metrics[f"service_{kind}_p50_ms"] = {
                "value": pooled["p50"], "unit": "ms", "pass_medians": medians, **pooled
            }
            metrics[f"service_{kind}_p99_ms"] = {"value": pooled["p99"], "unit": "ms", **pooled}
        return metrics

    def close(self) -> None:
        if hasattr(self, "server"):
            self.server.stop()
            self.service.shutdown(drain=False, timeout=10.0)


# --------------------------------------------------------------------------- #
# sweep-process
# --------------------------------------------------------------------------- #
class SweepProcess(Workload):
    """A 16-cell weakschur level-2 sweep on 2 worker processes into a fresh store."""

    name = "sweep-process"
    nominal_pass_s = 4.0
    min_passes = 2
    WORKERS = 2
    CELLS = 16
    BASE = SearchSpec(workload="weakschur", level=2)

    def setup(self) -> None:
        self.engine = Engine()
        # Spawn the worker processes with a two-cell warm-up batch.
        warm = [SearchSpec(workload="leftmove", level=1, seed=seed) for seed in (0, 1)]
        self.engine.run_many(
            warm, store=ResultStore(self.fresh_dir("warm")),
            executor="process", max_workers=self.WORKERS,
        )

    def run_pass(self, index: int) -> PassResult:
        sweep = SweepSpec(
            base=self.BASE,
            axes={"seed": tuple(derived_seeds(self.seed, f"sweep:{index}", self.CELLS))},
            name="sweep-process",
        )
        store = ResultStore(self.fresh_dir("sweep"))
        clock = HostClock()  # one segment: probing mid-sweep would race the workers
        reports = clock.time(
            self.engine.run_many, sweep, store=store, executor="process",
            max_workers=self.WORKERS, error_policy="skip",
        )
        specs = sweep.specs()

        def check() -> int:
            failed = len(specs) - len(reports)
            if set(store.keys()) != {store.key(spec) for spec in specs}:
                failed += 1
            for spec in specs:
                stored = store.get(spec)
                if stored is None or not replays(spec.workload, stored.sequence, stored.score):
                    failed += 1
            return failed

        return PassResult(
            wall_s=clock.raw_s, attempted=len(specs), check=check, host_scale=clock.scale
        )

    def recorded(self, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
        return _wall_metric("sweep_wall_s", passes)


WORKLOADS = {cls.name: cls for cls in (PaperTables, SearchKernels, ServiceMix, SweepProcess)}


def remove_tree(path: Path) -> None:
    """Delete a run's scratch directory, and its parent once no run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass
