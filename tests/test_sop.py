"""Tests for the Sequential Ordering Problem domain (repro.games.sop)."""

from __future__ import annotations

import random

import pytest

from repro.games.sop import SOPInstance, SOPState


def small_instance():
    """4 nodes, node 2 requires node 1, node 3 (the end) requires everyone."""
    costs = (
        (0.0, 1.0, 5.0, 9.0),
        (1.0, 0.0, 2.0, 8.0),
        (5.0, 2.0, 0.0, 3.0),
        (9.0, 8.0, 3.0, 0.0),
    )
    preds = (frozenset(), frozenset(), frozenset({1}), frozenset({0, 1, 2}))
    return SOPInstance(costs, preds)


class TestInstance:
    def test_random_is_feasible_by_identity(self):
        inst = SOPInstance.random(12, seed=3)
        identity = list(range(12))
        assert inst.is_feasible(identity)

    def test_random_reproducible(self):
        a = SOPInstance.random(10, seed=5)
        b = SOPInstance.random(10, seed=5)
        assert a.costs == b.costs
        assert a.predecessors == b.predecessors

    def test_instances_compare_and_hash_by_value(self):
        a = SOPInstance.random(6, seed=1)
        b = SOPInstance.random(6, seed=1)
        assert a == b and hash(a) == hash(b)
        assert a != SOPInstance.random(6, seed=2)
        assert len({a, b, SOPInstance.random(6, seed=2)}) == 2

    def test_random_costs_are_float_rows_in_the_cost_range(self):
        inst = SOPInstance.random(8, seed=4, cost_range=(3, 7))
        assert isinstance(inst.costs, tuple) and len(inst.costs) == 8
        for i, row in enumerate(inst.costs):
            assert isinstance(row, tuple) and len(row) == 8
            assert all(type(cost) is float for cost in row)
            assert row[i] == 0.0
            assert all(3.0 <= cost <= 7.0 for j, cost in enumerate(row) if j != i)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="square"):
            SOPInstance(((0.0, 0.0),) * 3, (frozenset(), frozenset(), frozenset()))
        with pytest.raises(ValueError):
            SOPInstance(((0.0, 0.0),) * 2, (frozenset({1}), frozenset()))
        with pytest.raises(ValueError):
            SOPInstance.random(1)

    def test_path_cost(self):
        inst = small_instance()
        assert inst.path_cost([0, 1, 2, 3]) == pytest.approx(1 + 2 + 3)
        with pytest.raises(ValueError):
            inst.path_cost([0, 2, 1])
        with pytest.raises(ValueError):
            inst.path_cost([1, 0, 2, 3])

    def test_is_feasible(self):
        inst = small_instance()
        assert inst.is_feasible([0, 1, 2, 3])
        assert not inst.is_feasible([0, 2, 1, 3])


class TestState:
    def test_legal_moves_respect_precedence(self):
        state = SOPState(small_instance())
        assert state.legal_moves() == [1]  # node 2 needs 1, node 3 needs all

    def test_full_game_is_feasible_path(self):
        inst = SOPInstance.random(10, seed=8)
        state = SOPState(inst)
        rng = random.Random(0)
        while not state.is_terminal():
            state.apply(rng.choice(state.legal_moves()))
        path = state.path()
        assert path[0] == 0 and path[-1] == inst.n_nodes - 1
        assert inst.is_feasible(path)
        assert -state.score() == pytest.approx(inst.path_cost(path))

    def test_illegal_move_raises(self):
        state = SOPState(small_instance())
        with pytest.raises(ValueError):
            state.apply(2)

    def test_heuristic_moves_sorted_by_cost(self):
        inst = SOPInstance.random(8, seed=2, precedence_density=0.0)
        state = SOPState(inst)
        moves = state.heuristic_moves()
        costs = [inst.costs[0][m] for m in moves]
        assert costs == sorted(costs)

    def test_copy_independent(self):
        state = SOPState(small_instance())
        clone = state.copy()
        clone.apply(1)
        assert state.path() == [0]
        assert clone.path() == [0, 1]

    def test_moves_played(self):
        state = SOPState(small_instance())
        state.apply(1)
        state.apply(2)
        assert state.moves_played() == 2
        assert state.path_cost() == pytest.approx(3.0)
