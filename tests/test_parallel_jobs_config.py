"""Tests for parallel configuration, message payloads and job executors."""

from __future__ import annotations

import pytest

from repro.cluster.topology import homogeneous_cluster
from repro.games.leftmove import LeftMoveState
from repro.games.weakschur import WeakSchurState
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.driver import run_parallel_nmcs
from repro.parallel.jobs import CachingJobExecutor, DirectJobExecutor
from repro.parallel.messages import estimate_state_size
from repro.prng import SeedSequence


class TestDispatcherKind:
    def test_parse_aliases(self):
        assert DispatcherKind.parse("rr") is DispatcherKind.ROUND_ROBIN
        assert DispatcherKind.parse("last-minute") is DispatcherKind.LAST_MINUTE
        assert DispatcherKind.parse(DispatcherKind.LAST_MINUTE) is DispatcherKind.LAST_MINUTE

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            DispatcherKind.parse("random")


class TestParallelConfig:
    def test_a_string_dispatcher_is_parsed(self):
        # A string used to construct unparsed and crash the run's setup.
        assert ParallelConfig(level=2, dispatcher="rr").dispatcher is DispatcherKind.ROUND_ROBIN
        assert ParallelConfig(level=2, dispatcher="lm").dispatcher is DispatcherKind.LAST_MINUTE
        with pytest.raises(ValueError, match="unknown dispatcher kind"):
            ParallelConfig(level=2, dispatcher="last_mintue")

    @pytest.mark.parametrize("dispatcher", ["rr", "lm"])
    def test_a_string_dispatcher_runs(self, dispatcher):
        state = LeftMoveState(depth=4, branching=2)
        run = run_parallel_nmcs(
            state, ParallelConfig(level=2, dispatcher=dispatcher), homogeneous_cluster(2)
        )
        assert run.result.verify(state)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(level=1)
        with pytest.raises(ValueError):
            ParallelConfig(n_medians=0)
        with pytest.raises(ValueError):
            ParallelConfig(max_root_steps=0)


class TestMessages:
    def test_estimate_state_size_grows_with_moves(self):
        state = LeftMoveState(depth=10)
        before = estimate_state_size(state)
        state.apply(0)
        state.apply(0)
        assert estimate_state_size(state) > before


class TestExecutors:
    def test_direct_executor_runs_searches(self):
        executor = DirectJobExecutor()
        state = WeakSchurState(k=3, limit=10)
        outcome = executor.execute(state, 0, SeedSequence(0, "job"))
        assert outcome.work_units > 0
        assert executor.jobs_executed == 1

    def test_direct_executor_levels(self):
        executor = DirectJobExecutor()
        state = WeakSchurState(k=3, limit=10)
        level0 = executor.execute(state, 0, SeedSequence(1, "a"))
        level1 = executor.execute(state, 1, SeedSequence(1, "b"))
        assert level1.work_units > level0.work_units

    def test_caching_executor_reuses_results(self):
        executor = CachingJobExecutor()
        state = WeakSchurState(k=3, limit=10)
        seeds = SeedSequence(5, "job", 1)
        first = executor.execute(state, 1, seeds)
        second = executor.execute(state, 1, seeds)
        assert first == second
        assert executor.hits == 1 and executor.misses == 1
        assert executor.cache_size() == 1

    def test_caching_executor_distinguishes_levels_and_seeds(self):
        executor = CachingJobExecutor()
        state = WeakSchurState(k=3, limit=10)
        executor.execute(state, 0, SeedSequence(5, "job", 1))
        executor.execute(state, 1, SeedSequence(5, "job", 1))
        executor.execute(state, 0, SeedSequence(5, "job", 2))
        assert executor.cache_size() == 3
        assert executor.hits == 0

    def test_caching_executor_clear(self):
        executor = CachingJobExecutor()
        executor.execute(WeakSchurState(k=2, limit=5), 0, SeedSequence(0))
        executor.clear()
        assert executor.cache_size() == 0
        assert executor.misses == 0

    def test_executor_results_deterministic_across_instances(self):
        state = WeakSchurState(k=3, limit=12)
        a = DirectJobExecutor().execute(state, 1, SeedSequence(9, "x"))
        b = DirectJobExecutor().execute(state, 1, SeedSequence(9, "x"))
        assert a == b
