"""Tests for the named workloads and the experiment runners."""

from __future__ import annotations

import pytest

from repro.api import Engine, SearchSpec
from repro.experiments import (
    calibrated_cost_model,
    run_client_sweep,
    run_figure1_record,
    run_figure_communications,
    run_table1_sequential,
    run_table6_heterogeneous,
)
from repro.games.morpion.state import MorpionState
from repro.parallel.config import DispatcherKind
from repro.parallel.jobs import CachingJobExecutor
from repro.workloads import WORKLOADS, Workload, get_workload, list_workloads, morpion_bench_state


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


@pytest.fixture(scope="module")
def shared_executor():
    return CachingJobExecutor()


class TestExperimentRunners:
    def test_table1_on_a_small_workload(self):
        result = run_table1_sequential("weakschur", levels=[1, 2], master_seed=1)
        assert "level" in result.render()
        ratios = result.data["ratios"]
        assert ratios["high_over_low_first_move"] > 1.0
        assert ratios["rollout_over_first_move_level1"] > 1.0

    def test_client_sweep_produces_speedups(self, shared_executor):
        sweep = run_client_sweep(
            "rr",
            experiment="first_move",
            workload="morpion-small",
            levels=[2],
            client_counts=[1, 4, 16],
            master_seed=0,
            executor=shared_executor,
            cost_model=calibrated_cost_model("morpion-small", master_seed=0),
        )
        speedups = sweep.speedups[2]
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[4] > 2.0
        assert speedups[16] > speedups[4]
        assert "Round-Robin" in sweep.table.title

    def test_client_sweep_rollout_mode(self, shared_executor):
        sweep = run_client_sweep(
            "lm",
            experiment="rollout",
            workload="weakschur",
            levels=[2],
            client_counts=[1, 4],
            master_seed=0,
        )
        assert sweep.times[2][4] <= sweep.times[2][1]

    def test_client_sweep_rejects_unknown_experiment(self):
        # Validation happens before any runner/dispatcher resolution and the
        # message lists the valid values.
        with pytest.raises(ValueError, match="'first_move'.*'rollout'"):
            run_client_sweep("rr", experiment="nope", workload="weakschur", levels=[2], client_counts=[1])
        with pytest.raises(ValueError, match="first_move"):
            run_client_sweep("bogus-dispatcher", experiment="nope", workload="weakschur")

    def test_client_sweep_rejects_unregistered_workload_objects(self):
        custom = Workload(
            name="custom-unregistered",
            description="not in the registry",
            make_state=morpion_bench_state,
        )
        with pytest.raises(ValueError, match="resolve workloads by name"):
            run_client_sweep("rr", workload=custom, levels=[2], client_counts=[1])
        with pytest.raises(ValueError, match="resolve workloads by name"):
            run_table6_heterogeneous(workload=custom, levels=[2])

    def test_client_sweep_with_store_skips_on_rerun(self, tmp_path):
        from repro.lab import ResultStore

        # No shared executor: the module-level one has served morpion jobs,
        # and an explicit executor disables per-workload cache partitioning.
        store = ResultStore(tmp_path)
        kwargs = dict(
            experiment="first_move",
            workload="weakschur",
            levels=[2],
            client_counts=[1, 4],
            master_seed=0,
            store=store,
        )
        first = run_client_sweep("rr", **kwargs)
        assert len(store) == 2
        second = run_client_sweep("rr", **kwargs)
        assert second.times == first.times
        assert second.render() == first.render()

    def test_table6_duplicate_repartitions_share_cells(self):
        result = run_table6_heterogeneous(
            workload="weakschur",
            levels=[2],
            configurations=[("first", 2, 2), ("second", 2, 2)],
            master_seed=0,
        )
        advantages = result.data["advantages"]
        assert advantages["first_level2_rr_over_lm"] == advantages["second_level2_rr_over_lm"]
        assert len(result.table.rows) == 4  # both labels render, LM and RR each

    def test_table6_lm_not_worse_than_rr(self, shared_executor):
        result = run_table6_heterogeneous(
            workload="morpion-small",
            levels=[2],
            configurations=[("2x4+2x2", 2, 2)],
            master_seed=0,
            executor=shared_executor,
            cost_model=calibrated_cost_model("morpion-small", master_seed=0),
        )
        advantage = result.data["advantages"]["2x4+2x2_level2_rr_over_lm"]
        assert advantage >= 0.95

    def test_figure_communications_pattern_ok(self):
        for dispatcher in (DispatcherKind.ROUND_ROBIN, DispatcherKind.LAST_MINUTE):
            result = run_figure_communications(dispatcher, workload="weakschur", level=2, n_clients=4)
            assert result.data["violations"] == []

    def test_figure1_record_renders_a_grid(self):
        result = run_figure1_record(workload="morpion-small", level=2, n_clients=4, master_seed=0)
        grid = result.data["grid"]
        assert "o" in grid
        assert result.data["result"].score > 0

    def test_figure1_requires_morpion(self):
        with pytest.raises(ValueError):
            run_figure1_record(workload="weakschur")

    def test_calibrated_cost_model_scales_to_the_paper(self):
        model = calibrated_cost_model("weakschur", master_seed=0, reference_seconds=483.0)
        # The calibration target: the low-level first move takes 483 simulated
        # seconds on a 1.86 GHz node (paper Table I, level 3).
        reference = Engine(cost_model=model).run(
            SearchSpec(level=2, seed=0, max_steps=1), state=get_workload("weakschur").state()
        )
        assert reference.simulated_seconds == pytest.approx(483.0, rel=1e-6)
