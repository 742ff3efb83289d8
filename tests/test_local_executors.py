"""Tests for the real (non-simulated) local executor: root-level NMCS on worker processes."""

from __future__ import annotations

import pytest

from repro.core.nested import nested_search
from repro.games.weakschur import WeakSchurState
from repro.parallel.multiproc import multiprocessing_nmcs
from repro.prng import SeedSequence


def small_state() -> WeakSchurState:
    return WeakSchurState(k=3, limit=12)


class TestMultiprocessing:
    def test_matches_sequential_result(self):
        state = small_state()
        sequential = nested_search(state, 1, SeedSequence(5, "nmcs"))
        parallel = multiprocessing_nmcs(state, 1, master_seed=5, n_workers=2)
        assert parallel.result.score == sequential.score
        assert parallel.result.sequence == sequential.sequence
        assert parallel.n_workers == 2
        assert parallel.n_evaluations > 0
        assert parallel.wall_seconds > 0

    def test_max_steps(self):
        state = small_state()
        sequential = nested_search(state, 1, SeedSequence(5, "nmcs"), max_steps=1)
        parallel = multiprocessing_nmcs(state, 1, master_seed=5, n_workers=2, max_steps=1)
        assert parallel.result.sequence == sequential.sequence

    def test_result_replays(self):
        state = small_state()
        parallel = multiprocessing_nmcs(state, 1, master_seed=9, n_workers=2)
        assert parallel.result.verify(state)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            multiprocessing_nmcs(small_state(), 0)
