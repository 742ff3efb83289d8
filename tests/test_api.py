"""Tests for the unified SearchSpec / Engine API (repro.api)."""

from __future__ import annotations

import inspect
import itertools
import json

import pytest

from repro.api import (
    ALGORITHMS,
    BACKENDS,
    Engine,
    RunEvent,
    RunReport,
    SearchSpec,
    build_cluster,
    list_algorithms,
    list_backends,
    register_algorithm,
    register_backend,
    to_jsonable,
)
from repro.core.nested import nmcs
from repro.workloads import get_workload


REPORT_KEYS = {
    "spec",
    "algorithm",
    "backend",
    "level",
    "score",
    "sequence",
    "sequence_length",
    "work_units",
    "simulated_seconds",
    "wall_seconds",
    "n_jobs",
    "n_workers",
    "comm",
    "client_utilisation",
    "kernel_stats",
    "telemetry",
}


class TestSearchSpec:
    def test_dict_round_trip(self):
        spec = SearchSpec(
            workload="tsp",
            algorithm="nrpa",
            backend="sequential",
            level=2,
            seed=7,
            max_steps=3,
            dispatcher="lm",
            cluster="heterogeneous:2x4+2x2",
            n_clients=16,
            params={"iterations": 5, "alpha": 0.5},
        )
        assert SearchSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = SearchSpec(workload="morpion-small", backend="sim-cluster", dispatcher="rr")
        text = spec.to_json(indent=2)
        assert SearchSpec.from_json(text) == spec
        json.loads(text)  # genuinely valid JSON

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown SearchSpec fields: bogus"):
            SearchSpec.from_dict({"workload": "tsp", "bogus": 1})

    def test_from_dict_rejects_the_removed_n_workers_field(self):
        # Records stored while specs carried `n_workers` fail loudly, not silently.
        data = SearchSpec(workload="tsp").to_dict()
        data["n_workers"] = 2
        with pytest.raises(ValueError, match="unknown SearchSpec fields: n_workers"):
            SearchSpec.from_dict(data)

    def test_from_dict_rejects_the_removed_memorize_best_sequence_field(self):
        # The ablation switch lives on ParallelConfig only; records stored
        # while specs carried it no longer decode.
        with pytest.raises(ValueError, match="unknown SearchSpec fields: memorize_best_sequence"):
            SearchSpec.from_dict({"workload": "tsp", "memorize_best_sequence": False})

    def test_replace_returns_modified_copy(self):
        spec = SearchSpec(workload="tsp")
        other = spec.replace(backend="sim-cluster", n_clients=2)
        assert other.backend == "sim-cluster" and other.n_clients == 2
        assert spec.backend == "sequential"

    def test_specs_are_hashable_and_params_read_only(self):
        spec = SearchSpec(workload="tsp", params={"iterations": 3})
        assert spec == spec.replace()
        assert len({spec, spec.replace(), spec.replace(seed=1)}) == 2
        with pytest.raises(TypeError):
            spec.params["iterations"] = 99

    def test_dict_round_trip_preserves_param_types(self):
        spec = SearchSpec(params={"pair": (1, 2)})
        assert SearchSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["params"]["pair"] == (1, 2)  # verbatim, not coerced

    def test_to_json_rejects_non_serialisable_params(self):
        spec = SearchSpec(params={"fn": object()})
        with pytest.raises(TypeError):
            spec.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(level=-1)
        with pytest.raises(ValueError):
            SearchSpec(max_steps=0)
        with pytest.raises(ValueError):
            SearchSpec(n_clients=0)
        with pytest.raises(ValueError):
            SearchSpec(dispatcher="bogus")
        with pytest.raises(ValueError):
            SearchSpec(freq_ghz=0.0)

    def test_a_number_field_takes_an_integer_but_not_a_bool(self):
        spec = SearchSpec.from_dict({"freq_ghz": 2, "units_per_ghz": 100})
        assert (spec.freq_ghz, spec.units_per_ghz) == (2, 100)  # verbatim, so keys hold
        with pytest.raises(ValueError, match="freq_ghz must be a number"):
            SearchSpec(freq_ghz=True)

    @pytest.mark.parametrize("name", ["freq_ghz", "units_per_ghz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_cost_model_field_must_be_finite(self, name, value):
        # A NaN frequency ran and reported NaN simulated seconds, and an
        # infinite rate 0.0: neither may reach a run or a store.
        document = {"workload": "leftmove", "level": 1, name: value}
        with pytest.raises(ValueError, match=f"malformed SearchSpec: {name} must be finite"):
            SearchSpec.from_dict(document)


class TestWireForms:
    """to_dict/from_dict of RunReport and RunEvent — the service wire encoding."""

    def test_run_report_round_trip(self):
        report = Engine().run(SearchSpec(workload="leftmove", level=1, max_steps=1))
        data = report.to_dict()
        json.dumps(data)  # genuinely serialisable
        restored = RunReport.from_dict(data, raw={"origin": "test"})
        assert restored.spec == report.spec
        assert restored.score == report.score
        assert restored.work_units == report.work_units
        assert restored.simulated_seconds == report.simulated_seconds
        assert restored.raw == {"origin": "test"}
        # Sequences come back as the rendered strings, and re-serialising is
        # idempotent — no double-quoting on a second trip through the wire.
        assert restored.to_dict() == data

    def test_run_event_round_trip(self):
        spec = SearchSpec(workload="leftmove", level=1, max_steps=1)
        report = Engine().run(spec)
        event = RunEvent("completed", 3, 8, spec, report=report, done=4)
        data = event.to_dict()
        json.dumps(data)
        restored = RunEvent.from_dict(data)
        assert (restored.kind, restored.index, restored.total, restored.done) == (
            "completed", 3, 8, 4,
        )
        assert restored.spec == spec
        assert restored.report.score == report.score
        assert restored.error is None
        assert restored.to_dict() == data

    def test_failed_event_error_survives_as_message(self):
        spec = SearchSpec(workload="leftmove")
        event = RunEvent("failed", 0, 1, spec, error=ValueError("bad level"), done=1)
        data = event.to_dict()
        assert data["error"] == "ValueError: bad level"
        restored = RunEvent.from_dict(data)
        assert isinstance(restored.error, RuntimeError)
        assert str(restored.error) == "ValueError: bad level"
        assert restored.report is None

    def test_started_event_round_trips_without_payload(self):
        spec = SearchSpec(workload="leftmove")
        event = RunEvent("started", 0, 2, spec)
        restored = RunEvent.from_dict(event.to_dict())
        assert restored.report is None and restored.error is None
        assert not restored.terminal


class TestRegistries:
    def test_builtins_registered(self):
        assert {"sample", "flat", "nmcs", "reflexive", "iterated", "nrpa"} <= set(
            list_algorithms()
        )
        assert set(list_backends()) == {"sequential", "sim-cluster"}

    def test_duplicate_algorithm_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("nmcs")(lambda *a: None)

    def test_duplicate_backend_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("sequential")(lambda *a: None)

    def test_custom_registration_round_trips(self):
        @register_algorithm("test-greedy", description="for this test only")
        def _greedy(state, level, seeds, counter, budget, params):
            from repro.core.sample import sample

            return sample(state, seeds=seeds, counter=counter)

        try:
            report = Engine().run(
                SearchSpec(workload="leftmove", algorithm="test-greedy", level=0)
            )
            assert report.algorithm == "test-greedy"
            assert report.score > 0
        finally:
            del ALGORITHMS["test-greedy"]

    def test_unknown_names_raise_helpfully(self):
        with pytest.raises(ValueError, match="registered algorithms"):
            Engine().run(SearchSpec(algorithm="bogus"))
        with pytest.raises(ValueError, match="registered backends"):
            Engine().run(SearchSpec(backend="bogus"))

    def test_the_multiprocessing_backend_is_gone(self):
        # One search runs on the sequential backend; many run on worker processes.
        with pytest.raises(ValueError, match="unknown backend 'multiprocessing'"):
            Engine().run(SearchSpec(workload="leftmove", backend="multiprocessing", level=1))


class TestClusterDescriptors:
    def test_homogeneous(self):
        cluster = build_cluster(SearchSpec(cluster="homogeneous", n_clients=6))
        assert cluster.n_clients == 6

    def test_paper_mix_switches_at_32(self):
        small = build_cluster(SearchSpec(cluster="paper-mix", n_clients=8))
        large = build_cluster(SearchSpec(cluster="paper-mix", n_clients=64))
        assert all(node.freq_ghz in (1.86, 2.33) for node in small.nodes)
        assert any("fast" in node.name for node in large.nodes)

    def test_heterogeneous_descriptor(self):
        cluster = build_cluster(SearchSpec(cluster="heterogeneous:2x4+3x2"))
        assert cluster.n_clients == 2 * 4 + 3 * 2

    def test_bad_descriptors(self):
        with pytest.raises(ValueError, match="known kinds"):
            build_cluster(SearchSpec(cluster="bogus"))
        with pytest.raises(ValueError, match="heterogeneous"):
            build_cluster(SearchSpec(cluster="heterogeneous:nope"))


@pytest.fixture(scope="module")
def engine():
    """One engine for the whole module: job caching is shared across tests."""
    return Engine()


class TestEngine:
    def test_a_run_is_its_spec_and_the_cost_model(self):
        """No engine option or run argument can change what a spec evaluates to."""
        assert list(inspect.signature(Engine).parameters) == ["cost_model"]
        assert list(inspect.signature(Engine.run).parameters) == ["self", "spec"]

    def test_sequential_nmcs_matches_legacy_entry_point(self, engine):
        workload = get_workload("morpion-small")
        report = engine.run(SearchSpec(workload="morpion-small", level=2, seed=3, max_steps=1))
        legacy = nmcs(workload.state(), 2, seed=3, max_steps=1)
        assert report.score == legacy.score
        assert report.sequence == legacy.sequence

    def test_backends_agree_on_the_search_result(self, engine):
        base = SearchSpec(workload="morpion-small", level=2, seed=0, max_steps=1)
        reports = [
            engine.run(base),
            engine.run(base.replace(backend="sim-cluster", dispatcher="rr", n_clients=4)),
            engine.run(base.replace(backend="sim-cluster", dispatcher="lm", n_clients=4)),
        ]
        scores = {report.score for report in reports}
        assert len(scores) == 1

    def test_every_algorithm_backend_pair(self, engine):
        """Every registered algorithm × backend pair either runs or refuses clearly."""
        algorithm_params = {
            "flat": {"playouts_per_move": 1},
            "iterated": {"restarts": 2},
            "nrpa": {"iterations": 2},
        }
        for algorithm, backend in itertools.product(ALGORITHMS, BACKENDS):
            entry = BACKENDS[backend]
            level = 2 if backend == "sim-cluster" else 1
            spec = SearchSpec(
                workload="morpion-small",
                algorithm=algorithm,
                backend=backend,
                level=level,
                seed=0,
                max_steps=1 if ALGORITHMS[algorithm].supports_budget else None,
                n_clients=2,
                params=algorithm_params.get(algorithm, {}),
            )
            if entry.supports(algorithm):
                report = engine.run(spec)
                assert isinstance(report, RunReport), (algorithm, backend)
                assert set(report.to_dict()) == REPORT_KEYS, (algorithm, backend)
                assert report.score >= 0.0, (algorithm, backend)
                json.dumps(report.to_dict())  # serialisable for every pair
            else:
                with pytest.raises(ValueError, match=f"backend {backend!r}"):
                    engine.run(spec)

    def test_n_workers_is_the_sim_cluster_client_count(self, engine):
        from repro.lab.export import row_from_report

        base = SearchSpec(workload="leftmove", level=2, max_steps=1)
        assert engine.run(base).n_workers is None
        report = engine.run(base.replace(backend="sim-cluster", n_clients=3))
        assert report.n_workers == 3
        assert row_from_report(report)["n_workers"] == 3

    def test_run_accepts_a_plain_dict(self, engine):
        report = engine.run({"workload": "leftmove", "level": 1, "max_steps": 1})
        assert report.backend == "sequential"

    def test_run_many(self, engine):
        specs = [
            SearchSpec(workload="leftmove", level=1, seed=seed, max_steps=1)
            for seed in (0, 1)
        ]
        reports = engine.run_many(specs)
        assert [r.spec.seed for r in reports] == [0, 1]

    def test_sim_cluster_report_carries_comm_and_trace(self, engine):
        report = engine.run(
            SearchSpec(
                workload="morpion-small",
                backend="sim-cluster",
                dispatcher="lm",
                level=2,
                max_steps=1,
                n_clients=4,
            )
        )
        assert report.comm  # message counts present
        assert report.raw.trace is not None  # substrate-native result available
        assert 0.0 < report.client_utilisation <= 1.0
        assert report.n_jobs == report.raw.n_jobs

    def test_mixed_workloads_on_one_engine_do_not_alias_caches(self, engine):
        """Job caches are partitioned per workload (seed paths repeat across games)."""
        base = SearchSpec(backend="sim-cluster", level=2, seed=0, max_steps=1, n_clients=2)
        morpion = engine.run(base.replace(workload="morpion-small"))
        left = engine.run(base.replace(workload="leftmove"))
        assert morpion.score == 12.0
        assert left.score > 0
        assert morpion.sequence != left.sequence

    def test_unknown_params_rejected_loudly(self, engine):
        """A typo like 'playout_per_move' fails instead of being silently ignored."""
        with pytest.raises(ValueError, match="playout_per_move.*accepted params"):
            engine.run(
                SearchSpec(
                    workload="leftmove",
                    algorithm="flat",
                    level=1,
                    params={"playout_per_move": 4},
                )
            )
        # Algorithms accepting no params say so.
        with pytest.raises(ValueError, match=r"accepted params: \(none\)"):
            engine.run(SearchSpec(workload="leftmove", level=1, params={"bogus": 1}))

    def test_backend_params_accepted_alongside_algorithm_params(self, engine):
        """Substrate-level params (lm_fifo_jobs, ...) pass validation on their backend."""
        report = engine.run(
            SearchSpec(
                workload="leftmove",
                backend="sim-cluster",
                dispatcher="lm",
                level=2,
                max_steps=1,
                n_clients=2,
                params={"lm_fifo_jobs": True},
            )
        )
        assert report.score > 0
        # ... but not on a backend that does not read them.
        with pytest.raises(ValueError, match="lm_fifo_jobs"):
            engine.run(
                SearchSpec(workload="leftmove", level=1, params={"lm_fifo_jobs": True})
            )

    def test_algorithm_can_opt_out_of_param_validation(self):
        @register_algorithm("test-anyparams", params=None)
        def _any(state, level, seeds, counter, budget, params):
            from repro.core.sample import sample

            return sample(state, seeds=seeds, counter=counter)

        try:
            report = Engine().run(
                SearchSpec(
                    workload="leftmove",
                    algorithm="test-anyparams",
                    level=0,
                    params={"anything": "goes"},
                )
            )
            assert report.score > 0
        finally:
            del ALGORITHMS["test-anyparams"]

    def test_budgetless_algorithms_reject_max_steps(self, engine):
        for algorithm in ("nrpa", "iterated", "sample"):
            with pytest.raises(ValueError, match="no root-move budget"):
                engine.run(
                    SearchSpec(workload="leftmove", algorithm=algorithm, level=1, max_steps=1)
                )

    def test_spec_units_per_ghz_overrides_cost_model(self, engine):
        fast = engine.run(
            SearchSpec(workload="leftmove", level=1, max_steps=1, units_per_ghz=1e9)
        )
        slow = engine.run(
            SearchSpec(workload="leftmove", level=1, max_steps=1, units_per_ghz=1e3)
        )
        assert fast.simulated_seconds < slow.simulated_seconds


class TestToJsonable:
    def test_handles_library_payloads(self):
        from repro.analysis.commpattern import CommunicationSummary

        payload = {
            "summary": CommunicationSummary(counts={"task": 3}),
            "nested": {"tuple": (1, 2), "set": {3}},
            "enum": __import__("repro.parallel.config", fromlist=["DispatcherKind"]).DispatcherKind.ROUND_ROBIN,
        }
        encoded = to_jsonable(payload)
        json.dumps(encoded)
        assert encoded["summary"]["counts"]["task"] == 3
        assert encoded["enum"] == "round_robin"
