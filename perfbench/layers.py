"""Per-layer tracing from outside the program: wrappers around each layer's entry points.

:class:`LayerTracer` patches a timing wrapper onto each entry point *where
its caller looks the name up* (a module global or a class attribute), and
:meth:`LayerTracer.remove` puts the originals back.  The program's own
telemetry (``repro.obs``) stays off.

Spans nest per thread: a span's *self* time is its duration minus the time
of the spans it encloses, so the self times of all layers add up to the
wall time they cover.  Layers are named after the package modules:

========== ============================================================
layer      wrapped entry points
========== ============================================================
games      ``GameState.playout`` (every game's rollout loop)
core       ``nested_search`` (per level) and ``nrpa_search``
cluster    ``Kernel.run`` (the event loop, incl. the role coroutines)
parallel   ``run_parallel_nmcs`` and the client job executors
analysis   ``analyze_communications``
api        ``Engine.run``; ``Engine.stream`` events are counted
lab        ``ResultStore.get/put``, ``SweepWorkerPool.submit_chunk/next_frame``
service    ``SearchService.submit``
========== ============================================================
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.analysis.commpattern as commpattern_mod
import repro.api as api_mod
import repro.core.nested as nested_mod
import repro.parallel.jobs as jobs_mod
from repro.api import Engine
from repro.cluster.simulator import Kernel
from repro.games.base import GameState
from repro.lab.procpool import SweepWorkerPool
from repro.lab.store import ResultStore
from repro.parallel.jobs import CachingJobExecutor, DirectJobExecutor
from repro.service import SearchService

LAYERS = ("games", "core", "cluster", "parallel", "analysis", "api", "lab", "service")
#: ``other`` is pass wall time that no layer's span covers
SHARE_LAYERS = LAYERS + ("other",)
GAMES = ("samegame", "morpion", "tsp", "weakschur", "sop")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"games.{game}.units_per_s", "1/s") for game in GAMES]
    + [
        ("games.units", "count"),
        ("core.nmcs.level1_self_s", "s"),
        ("core.nmcs.level2_self_s", "s"),
        ("core.nrpa.self_s", "s"),
        ("cluster.kernel_run_s", "s"),
        ("cluster.events_fired", "count"),
        ("cluster.events_cancelled", "count"),
        ("cluster.peak_queue", "count"),
        ("cluster.events_per_s", "1/s"),
        ("cluster.wall_per_sim_s", "ratio"),
        ("parallel.job_calls", "count"),
        ("parallel.jobs_executed", "count"),
        ("parallel.job_cache_hit_ratio", "ratio"),
        ("parallel.job_exec_s", "s"),
        ("parallel.driver_self_s", "s"),
        ("analysis.commpattern_s", "s"),
        ("api.run_overhead_ms", "ms"),
        ("api.cells_completed", "count"),
        ("api.cells_cached", "count"),
        ("api.cells_failed", "count"),
        ("lab.store_get_ms", "ms"),
        ("lab.store_put_ms", "ms"),
        ("lab.store_hit_ratio", "ratio"),
        ("lab.store_puts", "count"),
        ("lab.procpool.frame_wait_s", "s"),
        ("lab.procpool.chunks", "count"),
        ("lab.procpool.worker_busy_ratio", "ratio"),
        ("service.queue_wait_ms", "ms"),
        ("service.job_wall_ms", "ms"),
        ("service.transport_ms", "ms"),
        ("service.rejected", "count"),
    ]
    + [(f"{layer}.self_s", "s") for layer in SHARE_LAYERS]
    + [(f"{layer}.share", "ratio") for layer in SHARE_LAYERS]
    + [("trace.overhead_ratio", "ratio"), ("failed_ratio", "ratio")]
)
#: the per-layer metrics of the result line: every workload reports each of
#: them.  Times (``s``, ``ms``) read a constant 0 on workloads that leave
#: their layer unused, so they go to the run's record only; a layer's
#: ``share`` carries its self time into the result line.
REPORTED = [(name, unit) for name, unit in PER_LAYER if unit not in ("s", "ms")]
#: counts that must repeat exactly when the same pass is traced twice
EXACT_COUNTS = ("cluster.events_fired", "parallel.jobs_executed", "games.units", "lab.store_puts")

#: Game-state class name -> game label of the ``games.<game>.*`` metrics.
GAME_OF_CLASS = {
    "SameGameState": "samegame",
    "MorpionState": "morpion",
    "TSPState": "tsp",
    "WeakSchurState": "weakschur",
    "SOPState": "sop",
    "LeftMoveState": "leftmove",
}

_MISSING = object()


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


class LayerTracer:
    """Collects self time, call counts and samples per span while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.peak_queue = 0
        #: worker processes of the last process-executor batch
        self.child_workers = 0

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _timed(
        self,
        fn: Callable[..., Any],
        name: Callable[[tuple, dict], str],
        after: Optional[Callable[[tuple, dict, Any, float], None]] = None,
    ) -> Callable[..., Any]:
        local, lock, perf = self._local, self._lock, time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = name(args, kwargs)
                with lock:
                    self_s[span] += elapsed - children
                    total_s[span] += elapsed
                    calls[span] += 1
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def install(self) -> "LayerTracer":
        """Patch every wrapped entry point (call :meth:`remove` to undo)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        fixed = lambda label: (lambda args, kwargs: label)  # noqa: E731

        def game_span(args: tuple, kwargs: dict) -> str:
            return "games." + GAME_OF_CLASS.get(type(args[0]).__name__, "other")

        def after_playout(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            with self._lock:
                self.counts[game_span(args, kwargs) + ".units"] += len(result[1])

        self._patch(GameState, "playout", self._timed(GameState.playout, game_span, after_playout))

        def nmcs_span(args: tuple, kwargs: dict) -> str:
            return f"core.nmcs.level{_arg(args, kwargs, 1, 'level')}"

        for module in (nested_mod, api_mod, jobs_mod):
            self._patch(module, "nested_search", self._timed(nested_mod.nested_search, nmcs_span))
        self._patch(api_mod, "nrpa_search", self._timed(api_mod.nrpa_search, fixed("core.nrpa")))

        self._patch(Kernel, "run", self._timed(Kernel.run, fixed("cluster.kernel")))
        self._patch(
            api_mod, "run_parallel_nmcs",
            self._timed(api_mod.run_parallel_nmcs, fixed("parallel.driver")),
        )
        self._patch(
            CachingJobExecutor, "execute",
            self._timed(CachingJobExecutor.execute, fixed("parallel.job_cache")),
        )
        self._patch(
            DirectJobExecutor, "execute",
            self._timed(DirectJobExecutor.execute, fixed("parallel.job_exec")),
        )
        self._patch(
            commpattern_mod, "analyze_communications",
            self._timed(commpattern_mod.analyze_communications, fixed("analysis.commpattern")),
        )

        def after_run(args: tuple, kwargs: dict, report: Any, elapsed: float) -> None:
            stats = report.kernel_stats or {}
            with self._lock:
                self.samples["api.run_overhead_ms"].append(
                    (elapsed - report.wall_seconds) * 1000.0
                )
                if stats:
                    self.counts["cluster.events_fired"] += stats["events_fired"]
                    self.counts["cluster.events_cancelled"] += stats["events_cancelled"]
                    self.peak_queue = max(self.peak_queue, stats["peak_queue_size"])
                    self.samples["cluster.kernel_wall_s"].append(stats["wall_seconds"])
                    self.samples["cluster.simulated_s"].append(stats["simulated_seconds"])

        self._patch(Engine, "run", self._timed(Engine.run, fixed("api.run"), after_run))
        self._patch(Engine, "stream", self._counted_stream(Engine.stream))

        def after_get(args: tuple, kwargs: dict, report: Any, elapsed: float) -> None:
            with self._lock:
                self.samples["lab.store_get_ms"].append(elapsed * 1000.0)
                if report is not None:
                    self.counts["lab.store_hits"] += 1

        def after_put(args: tuple, kwargs: dict, key: Any, elapsed: float) -> None:
            with self._lock:
                self.samples["lab.store_put_ms"].append(elapsed * 1000.0)

        self._patch(ResultStore, "get", self._timed(ResultStore.get, fixed("lab.store_get"), after_get))
        self._patch(ResultStore, "put", self._timed(ResultStore.put, fixed("lab.store_put"), after_put))
        self._patch(
            SweepWorkerPool, "submit_chunk",
            self._timed(SweepWorkerPool.submit_chunk, fixed("lab.procpool.submit")),
        )
        self._patch(
            SweepWorkerPool, "next_frame",
            self._timed(SweepWorkerPool.next_frame, fixed("lab.procpool.next_frame")),
        )
        self._patch(
            SearchService, "submit", self._timed(SearchService.submit, fixed("service.submit"))
        )
        return self

    def _counted_stream(self, stream: Callable[..., Any]) -> Callable[..., Any]:
        """Count ``RunEvent`` kinds; sum child wall time of process-executor cells."""

        def wrapper(engine: Any, *args: Any, **kwargs: Any) -> Any:
            in_children = kwargs.get("executor") == "process"
            if in_children:
                self.child_workers = kwargs.get("max_workers") or os.cpu_count() or 1
            for event in stream(engine, *args, **kwargs):
                with self._lock:
                    self.counts[f"api.cells_{event.kind}"] += 1
                    if in_children and event.kind == "completed":
                        game = _game_of_workload(event.spec.workload)
                        self.counts[f"games.{game}.child_units"] += event.report.work_units or 0
                        self.total_s[f"games.{game}.child"] += event.report.wall_seconds
                yield event

        return wrapper

    def remove(self) -> None:
        """Restore every patched name (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading the numbers
    # ------------------------------------------------------------------ #
    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (the first dotted component of each span)."""
        layers = {layer: 0.0 for layer in LAYERS}
        for span, seconds in self.self_s.items():
            layers[span.split(".", 1)[0]] += seconds
        return layers

    def median_sample(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


def _game_of_workload(workload: str) -> str:
    return "morpion" if workload.startswith("morpion") else workload


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer, wall_s: float, workload_layer: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is unused).

    ``workload_layer`` holds the numbers only the workload sees (the
    service's job snapshots and client round trips).
    """
    calls, counts, self_s, total_s = tracer.calls, tracer.counts, tracer.self_s, tracer.total_s
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    # Sweep worker processes run untraced: their reports give units and wall.
    for game in GAMES:
        values[f"games.{game}.units_per_s"] = _ratio(
            counts[f"games.{game}.units"], self_s.get(f"games.{game}", 0.0)
        ) or _ratio(counts[f"games.{game}.child_units"], total_s.get(f"games.{game}.child", 0.0))
    values["games.units"] = sum(n for name, n in counts.items() if name.startswith("games."))
    child_wall = sum(s for name, s in total_s.items() if name.endswith(".child"))
    values["core.nmcs.level1_self_s"] = self_s.get("core.nmcs.level1", 0.0)
    values["core.nmcs.level2_self_s"] = self_s.get("core.nmcs.level2", 0.0)
    values["core.nrpa.self_s"] = self_s.get("core.nrpa", 0.0)
    kernel_s = self_s.get("cluster.kernel", 0.0)
    values["cluster.kernel_run_s"] = kernel_s
    values["cluster.events_fired"] = counts["cluster.events_fired"]
    values["cluster.events_cancelled"] = counts["cluster.events_cancelled"]
    values["cluster.peak_queue"] = tracer.peak_queue
    values["cluster.events_per_s"] = _ratio(counts["cluster.events_fired"], kernel_s)
    values["cluster.wall_per_sim_s"] = _ratio(
        sum(tracer.samples["cluster.kernel_wall_s"]), sum(tracer.samples["cluster.simulated_s"])
    )
    values["parallel.job_calls"] = calls["parallel.job_cache"]
    values["parallel.jobs_executed"] = calls["parallel.job_exec"]
    if calls["parallel.job_cache"]:
        values["parallel.job_cache_hit_ratio"] = 1 - calls["parallel.job_exec"] / calls["parallel.job_cache"]
    values["parallel.job_exec_s"] = total_s.get("parallel.job_exec", 0.0)
    values["parallel.driver_self_s"] = self_s.get("parallel.driver", 0.0)
    values["analysis.commpattern_s"] = self_s.get("analysis.commpattern", 0.0)
    values["api.run_overhead_ms"] = tracer.median_sample("api.run_overhead_ms")
    for kind in ("completed", "cached", "failed"):
        values[f"api.cells_{kind}"] = counts[f"api.cells_{kind}"]
    values["lab.store_get_ms"] = tracer.median_sample("lab.store_get_ms")
    values["lab.store_put_ms"] = tracer.median_sample("lab.store_put_ms")
    values["lab.store_hit_ratio"] = _ratio(counts["lab.store_hits"], calls["lab.store_get"])
    values["lab.store_puts"] = calls["lab.store_put"]
    values["lab.procpool.frame_wait_s"] = total_s.get("lab.procpool.next_frame", 0.0)
    values["lab.procpool.chunks"] = calls["lab.procpool.submit"]
    values["lab.procpool.worker_busy_ratio"] = _ratio(child_wall, tracer.child_workers * wall_s)
    values.update((name, value) for name, value in workload_layer.items() if name in values)

    layers = tracer.layer_self_s()
    covered = sum(layers.values())
    if "service.round_trip_s" in workload_layer:
        # Closed loop, one request in flight: the round trip not spent in a
        # lower layer is transport, queueing and job bookkeeping.
        layers["service"] += workload_layer["service.round_trip_s"] - covered
        covered = workload_layer["service.round_trip_s"]
    layers["other"] = max(0.0, wall_s - covered)
    for layer, seconds in layers.items():
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.share"] = seconds / wall_s
    return values
