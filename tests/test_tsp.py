"""Tests for the TSP rollout domain (repro.games.tsp)."""

from __future__ import annotations

import math

import pytest

from repro.games.tsp import TSPInstance, TSPState


class TestInstance:
    def test_from_coords_distances(self):
        inst = TSPInstance.from_coords([(0, 0), (3, 4)])
        assert inst.n_cities == 2
        assert inst.distances[0][1] == pytest.approx(5.0)
        assert inst.distances[1][0] == pytest.approx(5.0)
        assert inst.distances[0][0] == 0.0

    def test_random_reproducible(self):
        a = TSPInstance.random(10, seed=4)
        b = TSPInstance.random(10, seed=4)
        assert a.coords == b.coords
        assert a.distances == b.distances

    def test_instances_compare_and_hash_by_value(self):
        a = TSPInstance.random(10, seed=1)
        b = TSPInstance.random(10, seed=1)
        assert a == b and hash(a) == hash(b)
        assert a != TSPInstance.random(10, seed=2)
        assert len({a, b, TSPInstance.random(10, seed=2)}) == 2

    def test_distances_are_float_rows_of_the_euclidean_formula(self):
        inst = TSPInstance.random(12, seed=3)
        assert isinstance(inst.distances, tuple) and len(inst.distances) == 12
        for i, (xi, yi) in enumerate(inst.coords):
            row = inst.distances[i]
            assert isinstance(row, tuple) and len(row) == 12
            assert row[i] == 0.0
            for j, (xj, yj) in enumerate(inst.coords):
                dx, dy = xi - xj, yi - yj
                assert type(row[j]) is float
                # Exactly this rounding: the playout goldens pin these doubles.
                assert row[j] == math.sqrt(dx * dx + dy * dy)
                assert row[j] == inst.distances[j][i]

    def test_fast_tables_share_the_distance_rows(self):
        inst = TSPInstance.random(9, seed=6)
        rows, order = inst.fast_tables()
        assert rows is inst.distances
        assert inst.fast_tables()[1] is order
        for c in range(9):
            assert order[c] == sorted(range(9), key=lambda x: (rows[c][x], x))

    def test_needs_two_cities(self):
        with pytest.raises(ValueError):
            TSPInstance.from_coords([(0, 0)])

    @pytest.mark.parametrize("coords", [[(0, 0, 0), (1, 1, 1)], [1, 2]])
    def test_rejects_malformed_coords(self, coords):
        with pytest.raises(ValueError, match=r"coords must be a sequence of \(x, y\) pairs"):
            TSPInstance.from_coords(coords)

    def test_tour_length_square(self):
        inst = TSPInstance.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert inst.tour_length([0, 1, 2, 3]) == pytest.approx(4.0)

    def test_tour_length_requires_permutation(self):
        inst = TSPInstance.random(5, seed=0)
        with pytest.raises(ValueError):
            inst.tour_length([0, 1, 2])

    def test_nearest_neighbour_is_valid_tour(self):
        inst = TSPInstance.random(12, seed=5)
        tour = inst.nearest_neighbour_tour()
        assert sorted(tour) == list(range(12))


class TestState:
    def test_initial_state(self):
        state = TSPState(TSPInstance.random(6, seed=1))
        assert state.tour() == [0]
        assert sorted(state.legal_moves()) == [1, 2, 3, 4, 5]

    def test_apply_accumulates_length(self):
        inst = TSPInstance.from_coords([(0, 0), (1, 0), (2, 0)])
        state = TSPState(inst)
        state.apply(1)
        assert state.tour_length() == pytest.approx(1.0)
        state.apply(2)
        # complete tour: closing edge back to city 0 is included in the score
        assert state.is_terminal()
        assert -state.score() == pytest.approx(1.0 + 1.0 + 2.0)

    def test_illegal_moves(self):
        state = TSPState(TSPInstance.random(4, seed=2))
        state.apply(1)
        with pytest.raises(ValueError):
            state.apply(1)  # already visited
        with pytest.raises(ValueError):
            state.apply(9)  # out of range

    def test_neighbourhood_restriction(self):
        inst = TSPInstance.from_coords([(0, 0), (1, 0), (2, 0), (50, 0), (60, 0)])
        state = TSPState(inst, neighbourhood=2)
        assert state.legal_moves() == [1, 2]

    def test_neighbourhood_must_be_positive(self):
        with pytest.raises(ValueError):
            TSPState(TSPInstance.random(4, seed=0), neighbourhood=0)

    def test_heuristic_moves_sorted_by_distance(self):
        inst = TSPInstance.from_coords([(0, 0), (5, 0), (1, 0), (3, 0)])
        state = TSPState(inst)
        assert state.heuristic_moves() == [2, 3, 1]

    def test_copy_independent(self):
        state = TSPState(TSPInstance.random(5, seed=3))
        clone = state.copy()
        clone.apply(1)
        assert state.tour() == [0]
        assert clone.tour() == [0, 1]

    def test_score_matches_instance_tour_length(self):
        inst = TSPInstance.random(8, seed=7)
        state = TSPState(inst)
        order = [1, 2, 3, 4, 5, 6, 7]
        for city in order:
            state.apply(city)
        assert -state.score() == pytest.approx(inst.tour_length([0] + order))
