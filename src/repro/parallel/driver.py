"""Driver orchestrating a parallel NMCS run on the simulated cluster.

:func:`run_parallel_nmcs` builds the simulation (nodes, root, medians,
dispatcher, clients), runs it until the root finishes its game and returns a
:class:`ParallelRunResult` bundling the search result, the simulated elapsed
time and the execution trace.  It is the kernel underneath the ``sim-cluster``
backend of :mod:`repro.api`; the paper's experiment types are specs run
through :class:`repro.api.Engine` (``max_steps=1`` is the "first move"
experiment, ``max_steps=None`` the "one rollout" one).

By default the trace keeps per-payload message tallies and the compute
records but no message log (see :mod:`repro.cluster.trace`);
``trace=Trace()`` records the log too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.network import NetworkModel
from repro.cluster.simulator import Kernel, KernelStats
from repro.cluster.topology import ClusterSpec
from repro.cluster.trace import Trace
from repro.core.result import SearchResult
from repro.games.base import GameState
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.dispatchers import last_minute_dispatcher, round_robin_dispatcher
from repro.parallel.jobs import CachingJobExecutor, JobExecutor
from repro.obs import span as _obs_span
from repro.parallel.messages import TAG_DISPATCH, TAG_TASK
from repro.parallel.roles import client_process, median_name, median_process, root_process
from repro.timemodel.cost import CostModel

__all__ = ["ParallelRunResult", "run_parallel_nmcs"]

DISPATCHER_NAME = "dispatcher"
ROOT_NAME = "root"


@dataclass
class ParallelRunResult:
    """Everything a benchmark needs to know about one simulated parallel run."""

    result: SearchResult
    simulated_seconds: float
    #: What the run recorded: message tallies and compute records, plus the
    #: message log when the caller passed a trace that keeps one.
    trace: Trace
    config: ParallelConfig
    cluster: ClusterSpec
    total_client_work: float
    n_jobs: int
    #: Event-loop diagnostics of the simulated run (events fired/cancelled,
    #: peak heap size, wall-clock per simulated second).
    kernel_stats: Optional[KernelStats] = None

    @property
    def score(self) -> float:
        return self.result.score

    def client_utilisation(self) -> float:
        """Fraction of total client-seconds actually spent computing."""
        if self.simulated_seconds <= 0 or self.cluster.n_clients == 0:
            return 0.0
        busy = self.trace.busy_time("client")
        return busy / (self.simulated_seconds * self.cluster.n_clients)


def run_parallel_nmcs(
    state: GameState,
    config: ParallelConfig,
    cluster: ClusterSpec,
    executor: Optional[JobExecutor] = None,
    cost_model: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
    trace: Optional[Trace] = None,
) -> ParallelRunResult:
    """Run one parallel NMCS search on the simulated ``cluster``.

    Parameters
    ----------
    state:
        The initial position of the top-level game.
    config:
        Search parameters (level, dispatcher, medians, seeds, ...).
    cluster:
        Cluster topology (nodes, client placement).
    executor:
        Job executor used by the simulated clients; pass a shared
        :class:`~repro.parallel.jobs.CachingJobExecutor` to amortise the real
        search work across several topologies of the same workload.
    cost_model / network:
        Simulation parameters; defaults model the paper's hardware.
    trace:
        The trace to record into.  The default,
        ``Trace(log_messages=False)``, keeps the message tallies and the
        compute records, which is all the ``sim-cluster`` reports and the
        paper's figures read; pass ``Trace()`` to keep one
        :class:`~repro.cluster.trace.MessageRecord` per message as well.
    """
    if cluster.n_clients < 1:
        raise ValueError("the cluster must host at least one client process")
    executor = executor if executor is not None else CachingJobExecutor()
    with _obs_span(
        "parallel.setup",
        dispatcher=config.dispatcher.value,
        n_clients=cluster.n_clients,
        n_medians=config.n_medians,
    ):
        kernel = Kernel(
            cost_model=cost_model,
            network=network,
            trace=trace if trace is not None else Trace(log_messages=False),
        )
        kernel.add_nodes(cluster.nodes)

        client_names = cluster.client_names()
        median_names = [median_name(i) for i in range(config.n_medians)]

        # Dispatcher and medians live on the server node, as in the paper.
        if config.dispatcher is DispatcherKind.ROUND_ROBIN:
            kernel.spawn(DISPATCHER_NAME, cluster.server_node, round_robin_dispatcher, client_names)
        else:
            kernel.spawn(
                DISPATCHER_NAME,
                cluster.server_node,
                last_minute_dispatcher,
                client_names,
                config.lm_fifo_jobs,
            )
        for name in median_names:
            kernel.spawn(name, cluster.server_node, median_process, DISPATCHER_NAME, ROOT_NAME)
        for placement in cluster.clients:
            kernel.spawn(
                placement.client_name,
                placement.node_name,
                client_process,
                config,
                executor,
                DISPATCHER_NAME,
            )

        shutdown_plan: List[Tuple[str, int]] = (
            [(name, TAG_TASK) for name in median_names]
            + [(name, TAG_TASK) for name in client_names]
            + [(DISPATCHER_NAME, TAG_DISPATCH)]
        )
        kernel.spawn(
            ROOT_NAME,
            cluster.server_node,
            root_process,
            state,
            config,
            median_names,
            shutdown_plan,
        )

    with _obs_span("parallel.kernel_run", dispatcher=config.dispatcher.value):
        kernel.run(until_process=ROOT_NAME)
    root = kernel.process(ROOT_NAME)
    if root.exception is not None:  # pragma: no cover - defensive
        raise root.exception
    result: SearchResult = root.return_value
    finish_time = root.finished_at if root.finished_at is not None else kernel.now

    trace = kernel.trace
    total_client_work = trace.total_work("client")
    n_jobs = len(trace.computes_by_process("client"))
    return ParallelRunResult(
        result=result,
        simulated_seconds=finish_time,
        trace=trace,
        config=config,
        cluster=cluster,
        total_client_work=total_client_work,
        n_jobs=n_jobs,
        kernel_stats=kernel.stats(),
    )
