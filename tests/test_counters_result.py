"""Tests for work counters and search-result containers (repro.core)."""

from __future__ import annotations

import pytest

from repro.core.counters import WorkCounter
from repro.core.result import BestTracker, SearchResult
from repro.games.leftmove import LeftMoveState


class TestWorkCounter:
    def test_add_moves_counts_playouts(self):
        counter = WorkCounter()
        counter.add_moves(10)
        counter.add_moves(5)
        assert counter.moves == 15
        assert counter.playouts == 2

    def test_add_step(self):
        counter = WorkCounter()
        counter.add_step()
        counter.add_step(3)
        assert counter.moves == 4
        assert counter.playouts == 0

    def test_snapshot_is_independent(self):
        counter = WorkCounter()
        snap = counter.snapshot()
        counter.add_moves(5)
        assert snap.moves == 0


class TestSearchResult:
    def test_verify_true_for_honest_result(self):
        state = LeftMoveState(depth=3, branching=2)
        result = SearchResult(score=3.0, sequence=(0, 0, 0))
        assert result.verify(state)

    def test_verify_false_for_wrong_score(self):
        state = LeftMoveState(depth=3, branching=2)
        result = SearchResult(score=99.0, sequence=(0, 0, 0))
        assert not result.verify(state)

    def test_final_state(self):
        state = LeftMoveState(depth=2, branching=2)
        result = SearchResult(score=1.0, sequence=(0, 1))
        final = result.final_state(state)
        assert final.is_terminal()


class TestBestTracker:
    def test_initially_empty(self):
        tracker = BestTracker()
        assert not tracker.has_sequence()
        assert tracker.best() == (float("-inf"), ())

    def test_offer_keeps_strictly_better(self):
        tracker = BestTracker()
        assert tracker.offer(5.0, (1,))
        assert not tracker.offer(5.0, (2,))  # ties keep the earlier sequence
        assert tracker.best() == (5.0, (1,))
        assert tracker.offer(6.0, (3,))
        assert tracker.best() == (6.0, (3,))

    def test_offer_copies_sequence(self):
        tracker = BestTracker()
        moves = [1, 2]
        tracker.offer(1.0, tuple(moves))
        moves.append(3)
        assert tracker.best()[1] == (1, 2)
