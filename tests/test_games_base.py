"""Tests for the shared game-state abstractions (repro.games.base)."""

from __future__ import annotations

import random

import pytest

from repro.core.counters import WorkCounter
from repro.games.base import legal_after, play_sequence, playout_from, random_playout
from repro.games.leftmove import LeftMoveState


class TestPlaySequence:
    def test_plays_all_moves(self):
        state = LeftMoveState(depth=4, branching=2)
        final = play_sequence(state, [0, 0, 1, 0])
        assert final.moves_played() == 4
        assert final.score() == 3.0

    def test_original_not_modified(self):
        state = LeftMoveState(depth=4, branching=2)
        play_sequence(state, [0, 0])
        assert state.moves_played() == 0

    def test_illegal_move_raises(self):
        state = LeftMoveState(depth=2, branching=2)
        with pytest.raises(ValueError, match="illegal"):
            play_sequence(state, [0, 0, 0])  # third move after game end

    def test_legal_after(self):
        state = LeftMoveState(depth=2, branching=3)
        assert legal_after(state, [0]) == [0, 1, 2]
        assert legal_after(state, [0, 1]) == []


class TestPlayouts:
    def test_random_playout_reaches_terminal(self):
        state = LeftMoveState(depth=10, branching=3)
        score, moves = random_playout(state, random.Random(0))
        assert len(moves) == 10
        assert 0.0 <= score <= 10.0
        assert state.moves_played() == 0  # non-destructive

    def test_playout_from_mutates(self):
        state = LeftMoveState(depth=5, branching=2)
        playout_from(state, random.Random(1))
        assert state.is_terminal()

    def test_playout_deterministic_given_rng(self):
        s1, m1 = random_playout(LeftMoveState(depth=8), random.Random(42))
        s2, m2 = random_playout(LeftMoveState(depth=8), random.Random(42))
        assert (s1, m1) == (s2, m2)

    def test_playout_counts_work(self):
        counter = WorkCounter()
        random_playout(LeftMoveState(depth=7), random.Random(0), counter)
        assert counter.moves == 7
        assert counter.playouts == 1

    def test_playout_on_terminal_state(self):
        state = LeftMoveState(depth=0)
        score, moves = random_playout(state, random.Random(0))
        assert moves == ()
        assert score == 0.0
