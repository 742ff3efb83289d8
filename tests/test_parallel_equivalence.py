"""Integration tests: the parallel search returns the sequential search's result.

The root and the medians play the sequential ``nested`` function's game
(:class:`repro.core.nested.NestedGame`) and ship its candidate evaluations,
with the same derived seeds, to other processes, so the score *and* the move
sequence must be identical whatever the dispatcher, the cluster topology,
the network latency or the number of clients.  This is the strongest
correctness property of the reproduction and the reason the benchmark
tables compare like with like.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import SearchSpec, build_cluster
from repro.cluster.network import NetworkModel
from repro.cluster.topology import heterogeneous_cluster, homogeneous_cluster, single_machine
from repro.core.counters import WorkCounter
from repro.core.nested import nested_search
from repro.games.weakschur import WeakSchurState
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.driver import run_parallel_nmcs
from repro.parallel.jobs import CachingJobExecutor
from repro.prng import SeedSequence
from repro.timemodel.cost import CostModel
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def workload_state():
    return WeakSchurState(k=3, limit=14)


@pytest.fixture(scope="module")
def sequential_result(workload_state):
    return nested_search(workload_state, 2, SeedSequence(11, "nmcs"))


@pytest.fixture(scope="module")
def shared_executor():
    return CachingJobExecutor()


class TestEquivalenceWithSequential:
    @pytest.mark.parametrize("dispatcher", [DispatcherKind.ROUND_ROBIN, DispatcherKind.LAST_MINUTE])
    @pytest.mark.parametrize("n_clients", [1, 3, 8])
    def test_parallel_matches_sequential(
        self, workload_state, sequential_result, shared_executor, dispatcher, n_clients
    ):
        config = ParallelConfig(level=2, dispatcher=dispatcher, n_medians=5, master_seed=11)
        run = run_parallel_nmcs(
            workload_state, config, homogeneous_cluster(n_clients), executor=shared_executor
        )
        assert run.result.score == sequential_result.score
        assert run.result.sequence == sequential_result.sequence

    def test_parallel_matches_on_heterogeneous_cluster(
        self, workload_state, sequential_result, shared_executor
    ):
        config = ParallelConfig(
            level=2, dispatcher=DispatcherKind.LAST_MINUTE, n_medians=4, master_seed=11
        )
        run = run_parallel_nmcs(
            workload_state, config, heterogeneous_cluster(2, 2), executor=shared_executor
        )
        assert run.result.sequence == sequential_result.sequence

    def test_fewer_medians_than_moves_still_correct(
        self, workload_state, sequential_result, shared_executor
    ):
        config = ParallelConfig(level=2, n_medians=1, master_seed=11)
        run = run_parallel_nmcs(
            workload_state, config, homogeneous_cluster(2), executor=shared_executor
        )
        assert run.result.sequence == sequential_result.sequence

    def test_result_replays_on_the_original_position(
        self, workload_state, shared_executor
    ):
        config = ParallelConfig(level=2, master_seed=11)
        run = run_parallel_nmcs(
            workload_state, config, homogeneous_cluster(4), executor=shared_executor
        )
        assert run.result.verify(workload_state)

    def test_first_move_matches_sequential_first_move(self, workload_state, shared_executor):
        sequential = nested_search(workload_state, 2, SeedSequence(11, "nmcs"), max_steps=1)
        config = ParallelConfig(level=2, master_seed=11, max_root_steps=1)
        run = run_parallel_nmcs(
            workload_state, config, homogeneous_cluster(4), executor=shared_executor
        )
        assert run.result.score == sequential.score
        assert run.result.sequence == sequential.sequence


class TestSchedulerIndependence:
    def test_rr_and_lm_return_identical_results(self, workload_state, shared_executor):
        results = []
        for dispatcher in (DispatcherKind.ROUND_ROBIN, DispatcherKind.LAST_MINUTE):
            config = ParallelConfig(level=2, dispatcher=dispatcher, master_seed=23, n_medians=6)
            run = run_parallel_nmcs(
                workload_state, config, homogeneous_cluster(5), executor=shared_executor
            )
            results.append(run.result)
        assert results[0].score == results[1].score
        assert results[0].sequence == results[1].sequence

    def test_topology_does_not_change_results(self, workload_state, shared_executor):
        sequences = set()
        for cluster in (single_machine(2), homogeneous_cluster(6), heterogeneous_cluster(1, 2)):
            config = ParallelConfig(level=2, master_seed=31, n_medians=3)
            run = run_parallel_nmcs(workload_state, config, cluster, executor=shared_executor)
            sequences.add(run.result.sequence)
        assert len(sequences) == 1


class TestLevel3:
    def test_level3_parallel_matches_sequential(self, shared_executor):
        state = WeakSchurState(k=3, limit=8)
        sequential = nested_search(state, 3, SeedSequence(7, "nmcs"))
        config = ParallelConfig(level=3, master_seed=7, n_medians=3)
        run = run_parallel_nmcs(state, config, homogeneous_cluster(4), executor=CachingJobExecutor())
        assert run.result.score == sequential.score
        assert run.result.sequence == sequential.sequence


# At the default cost model every client job ends before the median's next
# dispatch round trip, so answers never arrive out of candidate order.  At
# 100 work units per GHz-second jobs outlast a round trip: on leftmove,
# morpion-small, weakschur and samegame (LM, heterogeneous:2x4+2x2, four
# medians, seed 0, two root moves) 684 of 1,010 median steps got their
# answers out of order, against none at the default cost model.
SLOW_JOBS = 100.0


@functools.lru_cache(maxsize=None)
def _sequential(workload, seed, max_steps):
    """``(score, sequence, playouts)`` of the level-2 sequential search."""
    counter = WorkCounter()
    result = nested_search(
        get_workload(workload).state(), 2, SeedSequence(seed, "nmcs"),
        counter=counter, max_steps=max_steps,
    )
    return result.score, result.sequence, counter.playouts


_HETEROGENEOUS = st.builds(
    "heterogeneous:{}x{}+{}x{}".format,
    st.integers(1, 3), st.integers(1, 4), st.integers(0, 2), st.integers(1, 4),
)


class TestPlacementIndependence:
    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(
        workload=st.sampled_from(["leftmove", "weakschur", "morpion-small", "tsp", "sop", "samegame"]),
        max_steps=st.sampled_from([1, 2, None]),
        seed=st.integers(0, 3),
        dispatcher=st.sampled_from([("rr", False), ("lm", False), ("lm", True)]),
        cluster=st.sampled_from(["homogeneous", "single", "paper", "paper-mix"]) | _HETEROGENEOUS,
        n_clients=st.integers(1, 12),
        n_medians=st.integers(1, 6),
        latency_ms=st.sampled_from([0.0, 0.05, 1.0, 25.0]),
    )
    # A median that takes its answers in arrival order scores 12.0 here too,
    # but plays another sequence.
    @example(
        workload="morpion-small", max_steps=2, seed=0, dispatcher=("lm", False),
        cluster="heterogeneous:2x4+2x2", n_clients=8, n_medians=4, latency_ms=0.05,
    )
    def test_a_sim_cluster_run_is_the_sequential_search(
        self, workload, max_steps, seed, dispatcher, cluster, n_clients, n_medians, latency_ms
    ):
        kind, fifo = dispatcher
        config = ParallelConfig(
            level=2, dispatcher=kind, n_medians=n_medians, max_root_steps=max_steps,
            master_seed=seed, lm_fifo_jobs=fifo,
        )
        run = run_parallel_nmcs(
            get_workload(workload).state(),
            config,
            build_cluster(SearchSpec(cluster=cluster, n_clients=n_clients)),
            # A fresh cache: it keys jobs on seed paths, so a shared one would
            # hide a job shipped with the wrong position.
            executor=CachingJobExecutor(),
            cost_model=CostModel(units_per_ghz_per_second=SLOW_JOBS),
            network=NetworkModel(latency_s=latency_ms / 1000.0),
        )
        score, sequence, playouts = _sequential(workload, seed, max_steps)
        assert (run.result.score, run.result.sequence) == (score, sequence)
        # At level 2 every client job is one level-0 evaluation: one playout.
        assert run.n_jobs == playouts
