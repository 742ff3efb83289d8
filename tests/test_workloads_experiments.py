"""Tests for the named workloads."""

from __future__ import annotations

import pytest

from repro.workloads import WORKLOADS, get_workload, list_workloads, morpion_bench_state


class TestWorkloads:
    def test_registry_contains_the_paper_domain(self):
        names = set(list_workloads())
        assert {"morpion-bench", "morpion-small", "morpion-5d", "paper-scale"} <= names

    def test_registry_contains_every_bundled_game(self):
        names = set(list_workloads())
        assert {"samegame", "tsp", "sop", "weakschur", "leftmove"} <= names

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_every_workload_builds_a_fresh_playable_state(self):
        for name, workload in WORKLOADS.items():
            if name == "paper-scale":
                continue  # identical state to morpion-5d; skip building twice
            state = workload.state()
            assert state.legal_moves(), f"workload {name} starts terminal"
            # fresh instance every time
            assert workload.state() is not state

    def test_morpion_bench_state_is_capped(self):
        state = morpion_bench_state(max_moves=5)
        assert state.max_moves == 5
        assert len(state.legal_moves()) == 16

    def test_levels_are_ordered(self):
        for workload in WORKLOADS.values():
            assert workload.low_level < workload.high_level
