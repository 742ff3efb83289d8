"""repro — reproduction of "Parallel Nested Monte-Carlo Search" (Cazenave & Jouandeau, 2009).

The library is organised as:

* :mod:`repro.api` — **the front door**: declarative :class:`SearchSpec` +
  :class:`Engine` running any registered algorithm on any registered backend
  with one :class:`RunReport` schema, plus the streaming batch layer
  (``Engine.stream`` / ``Engine.run_many``);
* :mod:`repro.lab` — declarative sweeps: :class:`SweepSpec` grids,
  content-addressed :class:`ResultStore` (resumable sweeps), JSON/CSV export
  and the worker-process pool that runs batches of cells;
* :mod:`repro.games` — search domains (Morpion Solitaire, SameGame, TSP, SOP,
  Weak Schur, toy games);
* :mod:`repro.core` — sequential search algorithms (random sampling, flat
  Monte-Carlo, Nested Monte-Carlo Search, reflexive search, iterated NMCS,
  NRPA);
* :mod:`repro.cluster` — the simulated heterogeneous cluster (discrete-event
  kernel, nodes, network, traces);
* :mod:`repro.parallel` — the paper's parallel algorithms (root / median /
  dispatcher / client roles, Round-Robin and Last-Minute dispatching);
* :mod:`repro.paper` — the paper as data: one sweep per table, the published
  numbers beside ours and an automatic fidelity check (``repro paper``);
* :mod:`repro.timemodel`, :mod:`repro.analysis`, :mod:`repro.paperdata`,
  :mod:`repro.workloads` — cost model, reporting, the published numbers of
  Tables I–VI and the named workloads;
* :mod:`repro.service` — search-as-a-service: a job server multiplexing
  client submissions onto the Engine with a bounded FIFO queue, dedup
  (store + in-flight) and a JSONL socket protocol (``repro serve``);
* :mod:`repro.obs` — opt-in telemetry: process-wide metrics registry,
  tracing spans (``RunReport.telemetry``), the rollout profiler
  (``repro profile``) and live exposition (``repro stats``, the service's
  ``metrics`` verb); zero overhead while disabled;
* :mod:`repro.cli` — ``python -m repro`` command-line interface.

Quickstart
----------
Describe a scenario with a :class:`SearchSpec` and run it through an
:class:`Engine`; change *one field* to move the same search between the
sequential baseline and the simulated cluster (Round-Robin or Last-Minute),
and pass ``executor="process"`` to ``Engine.run_many`` to run a batch of
them on worker processes (see ``docs/API.md`` for the full tour):

>>> from repro import Engine, SearchSpec
>>> from repro.paper import calibrated_cost_model
>>> engine = Engine(cost_model=calibrated_cost_model("morpion-small"))
>>> spec = SearchSpec(workload="morpion-small", algorithm="nmcs", max_steps=1)
>>> sequential = engine.run(spec)
>>> cluster = engine.run(spec.replace(backend="sim-cluster", dispatcher="lm", n_clients=8))
>>> sequential.score == cluster.score  # same search, different substrate
True
>>> cluster.simulated_seconds < sequential.simulated_seconds  # but faster
True

The kernels under the API (``nmcs``, ``run_parallel_nmcs``) remain
importable: a position, job executor or network model of your own runs
through them, since an :class:`Engine` result is a function of the spec and
the engine's cost model.
"""

from repro.api import (
    Engine,
    RunEvent,
    RunReport,
    SearchSpec,
    list_algorithms,
    list_backends,
    register_algorithm,
    register_backend,
)
from repro.lab import ResultStore, SweepSpec, spec_key
from repro.prng import SeedSequence, derive_seed, spawn_rng
from repro.games import (
    GameState,
    LeftMoveState,
    MorpionState,
    MorpionVariant,
    SameGameState,
    SOPInstance,
    SOPState,
    TSPInstance,
    TSPState,
    WeakSchurState,
)
from repro.core import (
    SearchResult,
    WorkCounter,
    flat_monte_carlo,
    iterated_search,
    nested_search,
    nmcs,
    nrpa_search,
    reflexive_search,
    sample,
)
from repro.cluster import ClusterSpec, Kernel, NetworkModel, NodeSpec
from repro.cluster.topology import (
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
    single_machine,
)
from repro.parallel import (
    CachingJobExecutor,
    DispatcherKind,
    ParallelConfig,
    ParallelRunResult,
    run_parallel_nmcs,
)
from repro.service import (
    SearchService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
)
from repro.timemodel import CostModel
from repro.workloads import Workload, get_workload, list_workloads

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # unified API
    "Engine",
    "SearchSpec",
    "RunReport",
    "RunEvent",
    "register_algorithm",
    "register_backend",
    "list_algorithms",
    "list_backends",
    # sweeps / lab
    "SweepSpec",
    "ResultStore",
    "spec_key",
    # randomness
    "SeedSequence",
    "derive_seed",
    "spawn_rng",
    # games
    "GameState",
    "LeftMoveState",
    "MorpionState",
    "MorpionVariant",
    "SameGameState",
    "SOPInstance",
    "SOPState",
    "TSPInstance",
    "TSPState",
    "WeakSchurState",
    # sequential search
    "SearchResult",
    "WorkCounter",
    "sample",
    "nmcs",
    "nested_search",
    "flat_monte_carlo",
    "reflexive_search",
    "iterated_search",
    "nrpa_search",
    # cluster simulation
    "Kernel",
    "NodeSpec",
    "NetworkModel",
    "ClusterSpec",
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "paper_cluster",
    "single_machine",
    # parallel search
    "DispatcherKind",
    "ParallelConfig",
    "ParallelRunResult",
    "CachingJobExecutor",
    "run_parallel_nmcs",
    # service
    "SearchService",
    "ServiceConfig",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
    # support
    "CostModel",
    "Workload",
    "get_workload",
    "list_workloads",
]
