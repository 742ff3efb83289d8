"""Tests for repro.lab: SweepSpec, ResultStore, and the Engine batch layer."""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ALGORITHMS, Engine, RunEvent, SearchSpec, register_algorithm
from repro.lab import (
    CODE_VERSION,
    ResultStore,
    SweepSpec,
    rows_from_reports,
    rows_from_store,
    spec_key,
    write_csv,
    write_json,
)
from repro.analysis.tables import pivot_table
from repro.games.base import play_sequence
from repro.workloads import get_workload


BASE = SearchSpec(workload="leftmove", level=1, max_steps=1)
SIM = SearchSpec(workload="leftmove", backend="sim-cluster", level=2, max_steps=1)


class TestSweepSpec:
    def test_expansion_is_deterministic(self):
        sweep = SweepSpec(base=SIM, axes={"n_clients": (4, 1), "level": (2, 3)})
        first = [(c.index, dict(c.coords), c.spec) for c in sweep.cells()]
        second = [(c.index, dict(c.coords), c.spec) for c in sweep.cells()]
        assert first == second
        assert len(sweep) == 4
        # First axis varies slowest, exactly in the order given.
        assert [c[1] for c in first] == [
            {"n_clients": 4, "level": 2},
            {"n_clients": 4, "level": 3},
            {"n_clients": 1, "level": 2},
            {"n_clients": 1, "level": 3},
        ]
        assert first[0][2] == SIM.replace(n_clients=4, level=2)

    def test_json_round_trip(self):
        sweep = SweepSpec(
            base=SIM,
            axes={"dispatcher": ("rr", "lm"), "n_clients": (1, 4)},
            name="tables",
            repeats=2,
        )
        restored = SweepSpec.from_json(sweep.to_json(indent=2))
        assert restored == sweep
        assert restored.specs() == sweep.specs()
        json.loads(sweep.to_json())  # genuinely valid JSON

    def test_param_axes(self):
        sweep = SweepSpec(
            base=BASE.replace(algorithm="nrpa", max_steps=None),
            axes={"params.iterations": (1, 2)},
        )
        specs = sweep.specs()
        assert [s.params["iterations"] for s in specs] == [1, 2]

    def test_repeats_derive_distinct_deterministic_seeds(self):
        sweep = SweepSpec(base=BASE, axes={"level": (1,)}, repeats=3)
        seeds = [cell.spec.seed for cell in sweep.cells()]
        assert len(set(seeds)) == 3
        assert seeds == [cell.spec.seed for cell in sweep.cells()]
        # Without repeats every cell keeps the base seed (comparable scores).
        flat = SweepSpec(base=BASE, axes={"level": (1, 2)})
        assert {cell.spec.seed for cell in flat.cells()} == {BASE.seed}

    def test_rejects_unknown_axis_and_bad_values(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepSpec(base=BASE, axes={"clients": (1, 2)})
        with pytest.raises(ValueError, match="params.<name>"):
            SweepSpec(base=BASE, axes={"params": ({"a": 1},)})
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(base=BASE, axes={"level": ()})
        with pytest.raises(ValueError, match="sequence of values"):
            SweepSpec(base=BASE, axes={"dispatcher": "rr"})
        # Axis values hit SearchSpec validation at construction, not mid-sweep.
        with pytest.raises(ValueError, match="n_clients"):
            SweepSpec(base=BASE, axes={"n_clients": (1, -2)})
        with pytest.raises(ValueError, match="seed"):
            SweepSpec(base=BASE, axes={"seed": (0, 1)}, repeats=2)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown SweepSpec fields: bogus"):
            SweepSpec.from_dict({"base": {}, "bogus": 1})

    def test_construction_time_is_linear_in_the_document(self):
        """Validation checks each axis value once, never each cell."""
        start = time.perf_counter()
        sweep = SweepSpec(base=BASE, repeats=10**6)
        grid = SweepSpec.from_dict({
            "base": BASE.to_dict(),
            "axes": {
                "n_clients": list(range(1, 11)),
                "n_medians": list(range(1, 11)),
                "dispatcher": ["rr", "lm"] * 5,
                "params.x": list(range(10)),
            },
        })
        assert time.perf_counter() - start < 0.1
        assert len(sweep) == 10**6 and len(grid) == 10**4
        assert next(sweep.cells()).spec.seed != BASE.seed  # derived repeat seeds
        with pytest.raises(ValueError, match="at most"):
            SweepSpec(base=BASE, repeats=2**64)  # more cells than len() can count

    @pytest.mark.parametrize(
        "axis, bad",
        [
            ("level", -1), ("max_steps", 0), ("n_clients", 0), ("n_medians", 2.5),
            ("seed", 1.5), ("dispatcher", "bogus"), ("freq_ghz", 0.0),
        ],
    )
    def test_a_bad_value_on_any_axis_fails_at_construction(self, axis, bad):
        axes = {"level": (1, 2), "n_clients": (1, 2), "dispatcher": ("rr", "lm")}
        axes[axis] = axes.get(axis, (getattr(BASE, axis),)) + (bad,)
        with pytest.raises(ValueError, match=axis):
            SweepSpec(base=BASE, axes=axes)


class TestKeys:
    def test_key_is_content_addressed(self):
        assert spec_key(BASE) == spec_key(BASE.replace())
        assert spec_key(BASE) != spec_key(BASE.replace(seed=1))
        assert spec_key(BASE) != spec_key(BASE, salt="other-code-version")

    def test_key_stable_across_processes(self):
        """The content address is process-independent (no hash randomisation)."""
        code = (
            "from repro.api import SearchSpec\n"
            "from repro.lab import spec_key\n"
            f"spec = SearchSpec.from_json({BASE.to_json()!r})\n"
            "print(spec_key(spec), end='')\n"
        )
        out = subprocess.run(
            [sys.executable, "-B", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"), "PYTHONHASHSEED": "99"},
        )
        assert out.stdout == spec_key(BASE)

    def test_unencodable_params_fail_loudly(self):
        with pytest.raises(TypeError):
            spec_key(SearchSpec(params={"fn": object()}))


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        report = Engine().run(BASE)
        key = store.put(BASE, report)
        assert BASE in store
        assert store.path_for(key).is_file()
        loaded = store.get(BASE)
        assert loaded.score == report.score
        assert loaded.spec == BASE
        assert loaded.work_units == report.work_units
        assert loaded.simulated_seconds == pytest.approx(report.simulated_seconds)
        assert store.get(BASE.replace(seed=5)) is None

    def test_record_carries_provenance(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(BASE, Engine().run(BASE))
        (record,) = store.records()
        assert record["salt"] == CODE_VERSION
        assert record["spec"] == json.loads(BASE.to_json())
        assert record["created_at"] > 0

    def test_salt_partitions_results(self, tmp_path):
        v1 = ResultStore(tmp_path, salt="v1")
        v2 = ResultStore(tmp_path, salt="v2")
        v1.put(BASE, Engine().run(BASE))
        assert BASE in v1 and BASE not in v2

    def test_discard(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(BASE, Engine().run(BASE))
        assert store.discard(BASE) is True
        assert store.discard(BASE) is False
        assert len(store) == 0

    def test_concurrent_writers_tolerated(self, tmp_path):
        """Racing puts — same key and different keys — leave a sound store."""
        store = ResultStore(tmp_path)
        reports = {seed: Engine().run(BASE.replace(seed=seed)) for seed in range(4)}
        errors = []

        def writer(seed):
            try:
                for _ in range(10):
                    store.put(BASE.replace(seed=seed), reports[seed])
                    store.put(BASE, reports[0])  # everyone also hammers one key
            except Exception as exc:  # pragma: no cover - the failure under test
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store) == 4  # seeds 1..3 plus the shared BASE/seed-0 key
        for seed in range(4):
            assert store.get(BASE.replace(seed=seed)).score == reports[seed].score

    def test_truncated_record_loads_as_none(self, tmp_path):
        """A half-written/corrupt file reads as a miss, never an exception."""
        store = ResultStore(tmp_path)
        key = store.put(BASE, Engine().run(BASE))
        path = store.path_for(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(key) is None
        assert store.get(BASE) is None
        # A syntactically valid record of the wrong shape is also a miss.
        path.write_text('["not", "a", "record"]')
        assert store.load(key) is None
        # The cell is simply re-run on the next sweep, overwriting the junk.
        (report,) = Engine().run_many([BASE], store=store)
        assert store.get(BASE).score == report.score

    @pytest.mark.parametrize(
        "workload",
        ["leftmove", "samegame", "tsp", "sop", "weakschur", "morpion-small", "morpion-bench", "morpion-4d"],
    )
    def test_stored_sequence_replays_to_its_score(self, tmp_path, workload):
        """A stored report keeps each move as its repr; play_sequence still replays it."""
        store = ResultStore(tmp_path)
        spec = SearchSpec(workload=workload, level=1)
        Engine().run_many([spec], store=store)
        stored = store.get(spec)
        assert stored.sequence and all(isinstance(move, str) for move in stored.sequence)
        final = play_sequence(get_workload(workload).state(), stored.sequence)
        assert final.score() == stored.score

    def test_two_processes_hammering_one_store(self, tmp_path):
        """Two *processes* racing ``put`` on overlapping keys (the inter-process
        file lock's job) leave every record sound and readable."""
        report = Engine().run(BASE)
        procs = [
            multiprocessing.Process(
                target=_hammer_store_from_process,
                args=(str(tmp_path), report.to_dict(), rounds, 10),
            )
            for rounds in (5, 5)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(tmp_path)
        assert len(store) == 10  # the .lock file never shows up as a key
        for seed in range(10):
            loaded = store.get(BASE.replace(seed=seed))
            assert loaded is not None
            assert loaded.score == report.score


def _hammer_store_from_process(root, report_dict, rounds, n_keys):
    """Child-process body for the two-process store stress test."""
    from repro.api import RunReport

    store = ResultStore(root)
    for _ in range(rounds):
        for seed in range(n_keys):
            spec = BASE.replace(seed=seed)
            report = RunReport.from_dict(dict(report_dict, spec=spec.to_dict()))
            store.put(spec, report)


def _counting_algorithm(name, calls):
    @register_algorithm(name, description="test-only", supports_budget=False)
    def _count(state, level, seeds, counter, budget, params):
        from repro.core.sample import sample

        calls.append(1)
        return sample(state, seeds=seeds, counter=counter)

    return _count


class TestBatchLayer:
    def test_rerun_against_populated_store_executes_nothing(self, tmp_path):
        """Acceptance: the second identical sweep runs zero new searches."""
        calls = []
        _counting_algorithm("test-count", calls)
        try:
            sweep = SweepSpec(
                base=SearchSpec(workload="leftmove", algorithm="test-count", level=0),
                axes={"seed": (0, 1, 2)},
            )
            store = ResultStore(tmp_path)
            engine = Engine()
            first = engine.run_many(sweep, store=store)
            assert len(calls) == 3 and len(first) == 3
            second = engine.run_many(sweep, store=store)
            assert len(calls) == 3  # playout counters stayed at zero on run two
            assert [r.score for r in second] == [r.score for r in first]
        finally:
            del ALGORITHMS["test-count"]

    def test_interrupted_sweep_resumes_missing_cells_only(self, tmp_path):
        calls = []
        _counting_algorithm("test-resume", calls)
        try:
            sweep = SweepSpec(
                base=SearchSpec(workload="leftmove", algorithm="test-resume", level=0),
                axes={"seed": (0, 1, 2, 3)},
            )
            store = ResultStore(tmp_path)
            engine = Engine()
            stop = threading.Event()

            def interrupt_after_two(event: RunEvent) -> None:
                if event.done >= 2 and event.terminal:
                    stop.set()

            partial = engine.run_many(sweep, store=store, cancel=stop, on_event=interrupt_after_two)
            assert len(partial) == 2 and len(store) == 2 and len(calls) == 2
            resumed = engine.run_many(sweep, store=store)
            assert len(resumed) == 4
            assert len(calls) == 4  # only the two missing cells executed
            kinds = []
            engine.run_many(sweep, store=store, on_event=lambda e: kinds.append(e.kind))
            assert kinds == ["cached"] * 4
        finally:
            del ALGORITHMS["test-resume"]

    def test_event_stream_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = SweepSpec(base=BASE, axes={"seed": (0, 1)})
        events = list(Engine().stream(sweep, store=store))
        assert [e.kind for e in events] == ["started", "completed", "started", "completed"]
        assert [e.index for e in events] == [0, 0, 1, 1]
        assert [(e.done, e.total) for e in events] == [(0, 2), (1, 2), (1, 2), (2, 2)]
        assert all(e.report is not None for e in events if e.kind == "completed")

    def test_error_policy_raise_and_skip(self):
        engine = Engine()
        specs = [
            BASE,
            SearchSpec(workload="leftmove", backend="sim-cluster", level=0, max_steps=1),  # needs >=2
            BASE.replace(seed=1),
        ]
        with pytest.raises(ValueError, match="parallel NMCS needs level >= 2"):
            engine.run_many(specs)
        events = []
        reports = engine.run_many(
            specs, error_policy="skip", on_event=lambda e: events.append(e)
        )
        assert len(reports) == 2  # the failing cell is absent, the rest survive
        failed = [e for e in events if e.kind == "failed"]
        assert len(failed) == 1 and isinstance(failed[0].error, ValueError)
        with pytest.raises(ValueError, match="error_policy"):
            engine.run_many(specs, error_policy="bogus")

    def test_refresh_reexecutes_but_still_stores(self, tmp_path):
        calls = []
        _counting_algorithm("test-refresh", calls)
        try:
            spec = SearchSpec(workload="leftmove", algorithm="test-refresh", level=0)
            store = ResultStore(tmp_path)
            engine = Engine()
            engine.run_many([spec], store=store)
            engine.run_many([spec], store=store, refresh=True)
            assert len(calls) == 2 and len(store) == 1
        finally:
            del ALGORITHMS["test-refresh"]

    def test_run_many_rejects_a_bare_spec(self):
        with pytest.raises(TypeError, match="Engine.run"):
            Engine().run_many(BASE)

    def test_engine_cost_model_is_pinned_into_stored_specs(self, tmp_path):
        """Two engines with different calibrations never alias store entries."""
        from repro.timemodel.cost import CostModel

        store = ResultStore(tmp_path)
        fast = Engine(cost_model=CostModel(units_per_ghz_per_second=1e9))
        slow = Engine(cost_model=CostModel(units_per_ghz_per_second=1e3))
        (a,) = fast.run_many([BASE], store=store)
        (b,) = slow.run_many([BASE], store=store)
        assert len(store) == 2
        assert b.simulated_seconds > a.simulated_seconds
        # Reports echo the pinned spec, so exported keys name real records —
        # identically on the fresh run and on the resumed one.
        assert a.spec.units_per_ghz == 1e9
        (row,) = rows_from_reports([a], store=store)
        assert store.load(row["key"]) is not None
        (cached,) = fast.run_many([BASE], store=store)
        (cached_row,) = rows_from_reports([cached], store=store)
        assert cached_row["key"] == row["key"]


class TestExport:
    def test_rows_and_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = SweepSpec(base=SIM, axes={"n_clients": (1, 2)})
        reports = Engine().run_many(sweep, store=store)
        rows = rows_from_reports(reports, store=store)
        assert [row["n_clients"] for row in rows] == [1, 2]
        assert all(row["key"] for row in rows)
        assert rows[0]["score"] == reports[0].score
        from_store = rows_from_store(store)
        assert {row["key"] for row in from_store} == {row["key"] for row in rows}
        csv_path = write_csv(rows, tmp_path / "rows.csv")
        assert csv_path.read_text().startswith("key,workload,algorithm")
        json_path = write_json(rows, tmp_path / "rows.json")
        assert json.loads(json_path.read_text())[0]["workload"] == "leftmove"

    def test_pivot_table_renders_rows_directly(self):
        sweep = SweepSpec(base=SIM, axes={"n_clients": (2, 1), "level": (2, 3)})
        rows = rows_from_reports(Engine().run_many(sweep))
        table = pivot_table(
            rows,
            title="times",
            index="n_clients",
            column="level",
            value="simulated_seconds",
            row_label="clients",
            column_fmt=lambda lvl: f"level {lvl}",
        )
        rendered = table.render()
        assert table.columns == ["level 2", "level 3"]
        assert [row["__label__"] for row in table.rows] == ["2", "1"]
        assert "clients" in rendered
