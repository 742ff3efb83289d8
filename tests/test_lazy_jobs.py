"""Lazy job positions: a client job's position is built only when a search runs.

The median ships its position and the candidate move (``ClientJob.parent`` /
``ClientJob.move``) and the client's executor builds ``parent.play(move)``
only on a job-cache miss.  These tests pin what that must not change: every
executor still receives a real :class:`GameState` and returns the same
search, a warm cache builds no position at all, message sizes stay those of
the child position, and the median never mutates a position it has shipped.
"""

from __future__ import annotations

import pickle
import sys
from collections import Counter

import pytest

from repro.api import Engine, SearchSpec
from repro.cluster.topology import homogeneous_cluster
from repro.games.base import GameState
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.driver import run_parallel_nmcs
from repro.parallel.jobs import CachingJobExecutor, DirectJobExecutor, JobExecutor
from repro.parallel import roles
from repro.parallel.messages import ClientJob, estimate_child_size, estimate_state_size
from repro.workloads import get_workload

#: a full level-2 rollout: every median step ships a fresh position
CONFIG = ParallelConfig(level=2, dispatcher=DispatcherKind.LAST_MINUTE, n_medians=8)


def _run(executor, state=None):
    """The level-2 LM rollout from ``state`` (leftmove's start by default)."""
    state = get_workload("leftmove").state() if state is None else state.copy()
    return run_parallel_nmcs(state, CONFIG, homogeneous_cluster(8), executor=executor)


class StrictExecutor(JobExecutor):
    """A user executor implementing only ``execute``: it must get real positions."""

    def __init__(self) -> None:
        self.inner = DirectJobExecutor()
        self.positions = 0

    def execute(self, position, level, seeds):
        assert isinstance(position, GameState), type(position)
        self.positions += 1
        return self.inner.execute(position, level, seeds)


@pytest.fixture
def play_callers(monkeypatch):
    """Count ``GameState.play`` calls by the name of the calling function."""
    callers: Counter = Counter()
    original = GameState.play

    def counting_play(self, move):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(self, move)

    monkeypatch.setattr(GameState, "play", counting_play)
    return callers


def _result(run):
    # The stored form: it renders each move, so it also tells a game's move
    # objects from plain tuples of the same value.
    return run.score, [repr(move) for move in run.result.sequence], run.simulated_seconds


def _run_every_executor(state=None):
    """Run the rollout once per executor kind; returns ``(results, executors)``."""
    executors = {
        "direct": DirectJobExecutor(),
        "caching": CachingJobExecutor(),
        "user": StrictExecutor(),
    }
    results = {name: _result(_run(executor, state)) for name, executor in executors.items()}
    return results, executors


class TestExecutorMatrix:
    def test_every_executor_returns_the_same_run(self):
        results, executors = _run_every_executor()
        reference = results["direct"]
        assert all(result == reference for result in results.values()), results
        assert executors["user"].positions == executors["direct"].jobs_executed > 0

    def test_every_executor_returns_the_same_morpion_run(self):
        """Morpion moves are namedtuples (leftmove's are ints): an executor
        that handed back plain tuples would change the stored sequence."""
        # Four moves from the end of a level-1 game keeps the run to ~700 jobs.
        state = get_workload("morpion-small").state()
        played = Engine().run(SearchSpec(workload="morpion-small", level=1, seed=3))
        for move in played.sequence[:8]:
            state.apply(move)
        results, _ = _run_every_executor(state)
        reference = results["direct"]
        assert "MorpionMove" in reference[1][-1]
        assert all(result == reference for result in results.values()), results

    def test_warm_cache_builds_no_job_position(self, play_callers):
        executor = CachingJobExecutor()
        cold = _run(executor)
        cold_plays = dict(play_callers)
        assert cold_plays["execute_move"] == executor.misses == cold.n_jobs

        play_callers.clear()
        warm = _run(executor)
        assert _result(warm) == _result(cold)
        assert executor.hits == warm.n_jobs
        assert play_callers["execute_move"] == 0
        # The root's and the medians' own moves are unchanged.
        del cold_plays["execute_move"]
        assert dict(play_callers) == cold_plays

    def test_direct_executor_builds_every_job_position(self, play_callers):
        run = _run(DirectJobExecutor())
        assert play_callers["execute_move"] == run.n_jobs


class TestShippedPositions:
    @pytest.mark.parametrize(
        "workload", ["morpion-small", "samegame", "tsp", "sop", "weakschur", "leftmove"]
    )
    def test_child_size_matches_the_built_child(self, workload):
        state = get_workload(workload).state()
        for _ in range(3):
            moves = state.legal_moves()
            if not moves:
                break
            for move in moves[:4]:
                assert estimate_child_size(state) == estimate_state_size(state.play(move))
            state = state.play(moves[0])

    def test_child_size_of_a_game_without_move_count(self):
        class Untracked(GameState):
            def __init__(self, left=3):
                self.left = left

            def legal_moves(self):
                return list(range(self.left))

            def apply(self, move):
                self.left -= 1

            def copy(self):
                return Untracked(self.left)

            def score(self):
                return 0.0

        state = Untracked()
        assert state.play(0).moves_played() == 0
        assert estimate_child_size(state) == estimate_state_size(state.play(0)) == 512.0

    def test_shipped_parents_are_never_mutated(self, monkeypatch):
        shipped = []

        def recording_job(**fields):
            job = ClientJob(**fields)
            shipped.append((job, pickle.dumps(job.parent)))
            return job

        monkeypatch.setattr(roles, "ClientJob", recording_job)
        _run(DirectJobExecutor())
        assert shipped
        assert all(pickle.dumps(job.parent) == at_send for job, at_send in shipped)
        assert all(job.move in job.parent.legal_moves() for job, _ in shipped)
