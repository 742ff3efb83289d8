"""Integration tests for the *timing* behaviour of the simulated parallel runs.

These tests assert the qualitative properties the paper's evaluation section
reports: more clients make the simulated search faster, the Last-Minute
algorithm is at least as good as Round-Robin on oversubscribed heterogeneous
clusters, client computations really overlap, and the communication pattern
matches Figures 2–5.
"""

from __future__ import annotations

import pytest

from repro.analysis.commpattern import analyze_communications, verify_pattern
from repro.api import Engine, SearchSpec
from repro.cluster.network import NetworkModel
from repro.cluster.topology import heterogeneous_cluster, homogeneous_cluster
from repro.games.base import GameState
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.driver import run_parallel_nmcs
from repro.parallel.jobs import CachingJobExecutor
from repro.timemodel.cost import CostModel
from repro.workloads import get_workload

#: A cost model that makes the scaled workload's client jobs last ~0.1-1 s of
#: simulated time, i.e. orders of magnitude above the network latency — the
#: regime of the paper's cluster.
SLOW_COST_MODEL = CostModel(units_per_ghz_per_second=50.0)


#: the scaled Morpion workload; the sequential reference runs it by name
WORKLOAD = "morpion-small"


def bench_state() -> GameState:
    return get_workload(WORKLOAD).state()


@pytest.fixture(scope="module")
def shared_executor():
    return CachingJobExecutor()


def run_first_move(dispatcher, cluster, executor, level=2, seed=3, **kwargs):
    config = ParallelConfig(
        level=level,
        dispatcher=DispatcherKind.parse(dispatcher),
        n_medians=20,
        max_root_steps=1,
        master_seed=seed,
        **kwargs,
    )
    return run_parallel_nmcs(
        bench_state(), config, cluster, executor=executor, cost_model=SLOW_COST_MODEL
    )


class TestSpeedup:
    def test_more_clients_is_faster(self, shared_executor):
        t1 = run_first_move("rr", homogeneous_cluster(1), shared_executor).simulated_seconds
        t4 = run_first_move("rr", homogeneous_cluster(4), shared_executor).simulated_seconds
        t16 = run_first_move("rr", homogeneous_cluster(16), shared_executor).simulated_seconds
        assert t4 < t1
        assert t16 < t4
        assert t1 / t16 > 4.0  # clearly super-unitary speedup at 16 clients

    def test_single_client_close_to_sequential(self, shared_executor):
        sequential = Engine(cost_model=SLOW_COST_MODEL).run(
            SearchSpec(workload=WORKLOAD, level=2, seed=3, max_steps=1)
        )
        parallel = run_first_move("rr", homogeneous_cluster(1), shared_executor)
        # One client does all the client work sequentially, so the simulated
        # time stays in the ballpark of the sequential reference.  It is not
        # identical: the root/median bookkeeping runs on the (faster) server
        # node and overlaps with the client, while the sequential reference
        # charges every move application to the single 1.86 GHz core.
        assert parallel.simulated_seconds >= 0.6 * sequential.simulated_seconds
        assert parallel.simulated_seconds < 1.3 * sequential.simulated_seconds

    def test_clients_really_overlap(self, shared_executor):
        run = run_first_move("rr", homogeneous_cluster(16), shared_executor)
        assert run.trace.max_concurrency("client") > 4
        assert run.n_jobs > 50

    def test_total_client_work_independent_of_topology(self, shared_executor):
        a = run_first_move("rr", homogeneous_cluster(2), shared_executor)
        b = run_first_move("rr", homogeneous_cluster(16), shared_executor)
        assert a.total_client_work == pytest.approx(b.total_client_work)

    def test_faster_nodes_run_faster(self, shared_executor):
        slow = run_parallel_nmcs(
            bench_state(),
            ParallelConfig(level=2, max_root_steps=1, master_seed=3, n_medians=20),
            homogeneous_cluster(4, freq_ghz=1.86),
            executor=shared_executor,
            cost_model=SLOW_COST_MODEL,
        )
        fast = run_parallel_nmcs(
            bench_state(),
            ParallelConfig(level=2, max_root_steps=1, master_seed=3, n_medians=20),
            homogeneous_cluster(4, freq_ghz=2.33),
            executor=shared_executor,
            cost_model=SLOW_COST_MODEL,
        )
        assert fast.simulated_seconds < slow.simulated_seconds


class TestLastMinuteAdvantage:
    def test_lm_at_least_as_fast_as_rr_when_oversubscribed(self, shared_executor):
        """On the Table VI style topology (fewer clients than outstanding jobs,
        half of them on oversubscribed PCs) Last-Minute must not lose to
        Round-Robin."""
        cluster = heterogeneous_cluster(2, 2)  # 2x4 + 2x2 = 12 clients, 8 cores
        rr = run_first_move("rr", cluster, shared_executor)
        lm = run_first_move("lm", cluster, shared_executor)
        assert lm.simulated_seconds <= rr.simulated_seconds * 1.02

    def test_lm_notifications_present_only_for_lm(self, shared_executor):
        cluster = homogeneous_cluster(4)
        rr = run_first_move("rr", cluster, shared_executor)
        lm = run_first_move("lm", cluster, shared_executor)
        rr_summary = analyze_communications(rr.trace)
        lm_summary = analyze_communications(lm.trace)
        assert rr_summary.count("c': client->dispatcher free") == 0
        # Every shipped client job triggers exactly one free notification.
        assert lm_summary.count("c': client->dispatcher free") == lm_summary.count(
            "b3: median->client job"
        )

    def test_communication_pattern_matches_figures(self, shared_executor):
        for dispatcher in (DispatcherKind.ROUND_ROBIN, DispatcherKind.LAST_MINUTE):
            run = run_first_move(dispatcher, homogeneous_cluster(6), shared_executor)
            summary = analyze_communications(run.trace)
            assert verify_pattern(summary, dispatcher) == []


class TestNetworkSensitivity:
    def test_slower_network_slows_the_run(self, shared_executor):
        cluster = homogeneous_cluster(8)
        config = ParallelConfig(level=2, max_root_steps=1, master_seed=3, n_medians=20)
        fast_net = run_parallel_nmcs(
            bench_state(), config, cluster, executor=shared_executor,
            cost_model=SLOW_COST_MODEL, network=NetworkModel.instantaneous(),
        )
        slow_net = run_parallel_nmcs(
            bench_state(), config, cluster, executor=shared_executor,
            cost_model=SLOW_COST_MODEL, network=NetworkModel.slow(latency_ms=5.0),
        )
        assert slow_net.simulated_seconds > fast_net.simulated_seconds

    def test_client_utilisation_reported(self, shared_executor):
        run = run_first_move("rr", homogeneous_cluster(8), shared_executor)
        assert 0.0 < run.client_utilisation() <= 1.0
