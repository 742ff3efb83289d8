"""Tests for the sequential search algorithms (sample, NMCS, flat, reflexive, iterated, NRPA)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import WorkCounter
from repro.core.flat import Aggregation, flat_monte_carlo
from repro.core.iterated import iterated_search
from repro.core.nested import NestedGame, evaluate_move, nested_search, nmcs
from repro.core.nrpa import nrpa_search
from repro.core.reflexive import reflexive_search
from repro.core.sample import best_of_samples, sample
from repro.games.leftmove import LeftMoveState
from repro.games.weakschur import WeakSchurState
from repro.prng import SeedSequence


class TestSample:
    def test_sample_deterministic_with_seeds(self):
        state = LeftMoveState(depth=10, branching=3)
        a = sample(state, seeds=SeedSequence(1))
        b = sample(state, seeds=SeedSequence(1))
        assert a.score == b.score and a.sequence == b.sequence

    def test_sample_rejects_both_rng_and_seeds(self):
        import random

        with pytest.raises(ValueError):
            sample(LeftMoveState(), rng=random.Random(0), seeds=SeedSequence(0))

    def test_sample_counts_work(self):
        counter = WorkCounter()
        result = sample(LeftMoveState(depth=6), seeds=SeedSequence(0), counter=counter)
        assert counter.moves == 6
        assert len(result.sequence) == 6

    def test_best_of_samples_improves_with_budget(self):
        state = LeftMoveState(depth=8, branching=3)
        few = best_of_samples(state, 1, SeedSequence(2))
        many = best_of_samples(state, 30, SeedSequence(2))
        assert many.score >= few.score

    def test_best_of_samples_validation(self):
        with pytest.raises(ValueError):
            best_of_samples(LeftMoveState(), 0, SeedSequence(0))


class TestNested:
    def test_level0_is_a_playout(self):
        state = LeftMoveState(depth=5, branching=2)
        result = nested_search(state, 0, SeedSequence(0))
        assert len(result.sequence) == 5

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            nested_search(LeftMoveState(), -1, SeedSequence(0))

    def test_deterministic(self):
        state = WeakSchurState(k=3, limit=12)
        a = nmcs(state, 1, seed=5)
        b = nmcs(state, 1, seed=5)
        assert a.score == b.score and a.sequence == b.sequence

    def test_different_seeds_can_differ(self):
        state = LeftMoveState(depth=12, branching=3)
        results = {nmcs(state, 1, seed=s).sequence for s in range(6)}
        assert len(results) > 1

    def test_result_replays(self):
        for level in (1, 2):
            state = WeakSchurState(k=3, limit=10)
            result = nmcs(state, level, seed=3)
            assert result.verify(state)

    def test_terminal_start(self):
        state = LeftMoveState(depth=0)
        result = nested_search(state, 2, SeedSequence(0))
        assert result.score == 0.0
        assert result.sequence == ()

    def test_max_steps_limits_committed_moves(self):
        state = LeftMoveState(depth=10, branching=2)
        result = nested_search(state, 1, SeedSequence(1), max_steps=1)
        # The returned best sequence still reaches a terminal position.
        assert len(result.sequence) == 10

    def test_first_move_work_smaller_than_full_rollout(self):
        state = WeakSchurState(k=3, limit=12)
        first = nested_search(state, 2, SeedSequence(0), max_steps=1)
        full = nested_search(state, 2, SeedSequence(0))
        assert first.work.moves < full.work.moves

    def test_level1_beats_random_sampling_on_average(self):
        state = LeftMoveState(depth=12, branching=3, weighted=True)
        random_scores = [sample(state, seeds=SeedSequence(s, "r")).score for s in range(20)]
        nested_scores = [nmcs(state, 1, seed=s).score for s in range(20)]
        assert sum(nested_scores) / 20 > sum(random_scores) / 20

    def test_level2_beats_level1_on_average(self):
        state = WeakSchurState(k=3, limit=20)
        level1 = [nmcs(state, 1, seed=s).score for s in range(8)]
        level2 = [nmcs(state, 2, seed=s).score for s in range(8)]
        assert sum(level2) >= sum(level1)


class TestEvaluateMove:
    def test_sequence_includes_the_move(self):
        state = LeftMoveState(depth=4, branching=2)
        result = evaluate_move(state, 1, 0, SeedSequence(0))
        assert result.sequence[0] == 1
        assert len(result.sequence) == 4

    def test_candidate_evaluations_enumerate_all_moves(self):
        state = LeftMoveState(depth=4, branching=3)
        evals = NestedGame(state, 2, SeedSequence(0)).candidates()
        assert [move for _, move, _ in evals] == [0, 1, 2]
        # distinct candidates get distinct seeds
        seeds = {child.seed() for _, _, child in evals}
        assert len(seeds) == 3


class TestNestedGame:
    def test_answers_count_in_candidate_order_whatever_the_mapping_order(self):
        game = NestedGame(LeftMoveState(depth=3, branching=2), 1, SeedSequence(0))
        # A tie keeps the earliest candidate's sequence, here candidate 0's.
        assert game.play({1: (1.0, (1, 0, 1)), 0: (1.0, (0, 1, 1))}) == 0
        assert game.result() == (1.0, (0, 1, 1))

    def test_a_step_builds_a_new_position_and_max_steps_ends_the_game(self):
        state = LeftMoveState(depth=3, branching=2)
        game = NestedGame(state, 1, SeedSequence(0), max_steps=1)
        game.play({0: (1.0, (0, 1, 1)), 1: (2.0, (1, 0, 0))})
        assert (game.step, game.position.moves_played(), state.moves_played()) == (1, 1, 0)
        assert game.candidates() == []
        assert game.result() == (2.0, (1, 0, 0))

    def test_a_terminal_start_scores_itself(self):
        game = NestedGame(LeftMoveState(depth=0), 1, SeedSequence(0))
        assert game.candidates() == []
        assert game.result() == (0.0, ())


class TestFlat:
    def test_flat_deterministic_and_replayable(self):
        state = WeakSchurState(k=3, limit=12)
        a = flat_monte_carlo(state, 2, SeedSequence(4))
        b = flat_monte_carlo(state, 2, SeedSequence(4))
        assert a.sequence == b.sequence
        assert a.verify(state)

    def test_flat_mean_aggregation(self):
        state = LeftMoveState(depth=6, branching=2)
        result = flat_monte_carlo(state, 3, SeedSequence(1), aggregation="mean")
        assert result.verify(state)

    def test_flat_validation(self):
        with pytest.raises(ValueError):
            flat_monte_carlo(LeftMoveState(), 0, SeedSequence(0))

    def test_flat_max_steps(self):
        state = LeftMoveState(depth=8, branching=2)
        result = flat_monte_carlo(state, 1, SeedSequence(0), max_steps=2)
        assert len(result.sequence) == 2


class TestReflexive:
    def test_reflexive_replayable(self):
        state = WeakSchurState(k=3, limit=12)
        result = reflexive_search(state, 1, SeedSequence(2))
        assert result.verify(state)

    def test_reflexive_level0_is_playout(self):
        result = reflexive_search(LeftMoveState(depth=4), 0, SeedSequence(0))
        assert len(result.sequence) == 4

    def test_reflexive_validation(self):
        with pytest.raises(ValueError):
            reflexive_search(LeftMoveState(), -1, SeedSequence(0))

    def test_nested_at_least_as_good_as_reflexive_on_average(self):
        # Best-sequence memorisation can only help on these score structures.
        state = LeftMoveState(depth=10, branching=3, weighted=True)
        nested_scores = [nmcs(state, 1, seed=s).score for s in range(10)]
        reflexive_scores = [reflexive_search(state, 1, SeedSequence(s, "reflexive-cmp")).score for s in range(10)]
        assert sum(nested_scores) >= sum(reflexive_scores)


class TestIterated:
    def test_iterated_keeps_best_over_restarts(self):
        state = WeakSchurState(k=3, limit=15)
        single = nested_search(state, 1, SeedSequence(0, "restart", 0))
        multi = iterated_search(state, 1, SeedSequence(0), restarts=5)
        assert multi.score >= single.score
        assert multi.verify(state)

    def test_iterated_respects_work_budget(self):
        state = LeftMoveState(depth=8, branching=3)
        counter = WorkCounter()
        iterated_search(state, 1, SeedSequence(0), restarts=50, work_budget=200, counter=counter)
        # At least one restart always runs; the budget stops the loop soon after.
        assert counter.moves < 5000

    def test_improvement_callback_called(self):
        improvements = []
        iterated_search(
            LeftMoveState(depth=6, branching=2),
            1,
            SeedSequence(3),
            restarts=4,
            on_improvement=lambda i, r: improvements.append((i, r.score)),
        )
        assert improvements
        assert improvements[0][0] == 0

    def test_iterated_validation(self):
        with pytest.raises(ValueError):
            iterated_search(LeftMoveState(), 1, SeedSequence(0), restarts=0)


class TestNRPA:
    def test_nrpa_deterministic_and_replayable(self):
        state = WeakSchurState(k=3, limit=12)
        a = nrpa_search(state, 1, SeedSequence(1), iterations=4)
        b = nrpa_search(state, 1, SeedSequence(1), iterations=4)
        assert a.sequence == b.sequence
        assert a.verify(state)

    def test_nrpa_level2_runs(self):
        state = LeftMoveState(depth=6, branching=2, weighted=True)
        result = nrpa_search(state, 2, SeedSequence(0), iterations=3)
        assert result.verify(state)

    def test_nrpa_improves_with_iterations_on_average(self):
        state = LeftMoveState(depth=10, branching=3, weighted=True)
        few = [nrpa_search(state, 1, SeedSequence(s, "few"), iterations=2).score for s in range(6)]
        many = [nrpa_search(state, 1, SeedSequence(s, "many"), iterations=12).score for s in range(6)]
        assert sum(many) >= sum(few)

    def test_nrpa_validation(self):
        with pytest.raises(ValueError):
            nrpa_search(LeftMoveState(), -1, SeedSequence(0))
        with pytest.raises(ValueError):
            nrpa_search(LeftMoveState(), 1, SeedSequence(0), iterations=0)
