"""Tests for the process-parallel sweep substrate (repro.lab.procpool).

The contract under test: ``Engine.stream(..., executor="process")`` behaves
*exactly* like the inline path — same started/cached/completed/failed
event stream, same done/total progress, same error policies, same
cooperative cancellation, same store records — while the cells actually
execute in worker processes.

Worker processes are forked when a pool is created, so tests that register
test-only algorithms call ``close_shared_sweep_pool()`` first: the pool the
engine then creates forks *after* the registration and inherits it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.api import ALGORITHMS, Engine, SearchSpec, register_algorithm
from repro.core.sample import sample
from repro.lab import ResultStore, SweepSpec
from repro.lab.procpool import RemoteCellError, SweepWorkerPool, auto_chunk_size
from repro.lab.procpool import close_shared_pool as close_shared_sweep_pool
from repro.lab.procpool import shared_pool as shared_sweep_pool
from repro.obs.metrics import MetricsRegistry


GRID = SweepSpec(
    base=SearchSpec(workload="leftmove", backend="sim-cluster", level=2, max_steps=1),
    axes={"workload": ("leftmove", "sop"), "dispatcher": ("rr", "lm")},
    name="procpool-grid",
)


def _events(stream):
    return list(stream)


def _kinds(events):
    return [event.kind for event in events]


class TestAutoChunkSize:
    def test_small_batches_get_single_cell_chunks(self):
        assert auto_chunk_size(1, 4) == 1
        assert auto_chunk_size(8, 4) == 1  # fewer cells than 4 chunks/worker

    def test_large_batches_amortise_but_stay_bounded(self):
        assert auto_chunk_size(80, 4) == 5
        assert auto_chunk_size(100_000, 4) == 16  # capped

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            auto_chunk_size(0, 4)
        with pytest.raises(ValueError):
            auto_chunk_size(4, 0)


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            _events(Engine().stream([GRID.base], executor="fibers"))

    def test_thread_executor_is_gone(self):
        with pytest.raises(ValueError, match="unknown executor 'thread'"):
            _events(Engine().stream([GRID.base], executor="thread", max_workers=2))

    def test_max_workers_needs_the_process_executor(self):
        with pytest.raises(ValueError, match="max_workers"):
            _events(Engine().stream([GRID.base], max_workers=2))
        with pytest.raises(ValueError, match="max_workers"):
            Engine().run_many([GRID.base], executor="inline", max_workers=2)

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            SweepWorkerPool(n_workers=0)


class TestDeterminism:
    def test_process_sweep_matches_serial_store_records(self, tmp_path):
        """Same seeded grid, serial vs process workers: identical keys, scores,
        sequences, work and simulated time per key."""
        serial_store = ResultStore(tmp_path / "serial")
        proc_store = ResultStore(tmp_path / "proc")
        Engine().run_many(GRID, store=serial_store)
        Engine().run_many(GRID, store=proc_store, executor="process", max_workers=2)
        assert sorted(serial_store.keys()) == sorted(proc_store.keys())
        serial_records = {r["key"]: r for r in serial_store.records()}
        for record in proc_store.records():
            twin = serial_records[record["key"]]["report"]
            report = record["report"]
            assert report["score"] == twin["score"]
            assert report["sequence"] == twin["sequence"]
            assert report["work_units"] == twin["work_units"]
            assert report["simulated_seconds"] == twin["simulated_seconds"]

    def test_process_reports_carry_rendered_move_strings(self):
        """A worker's report is rebuilt with ``RunReport.from_dict``, so its
        in-memory sequence is the serial report's rendered form."""
        specs = [GRID.base.replace(seed=s, backend="sequential") for s in range(3)]
        serial = Engine().run_many(specs)
        procs = Engine().run_many(specs, executor="process", max_workers=2)
        assert len(procs) == len(serial) == len(specs)
        for serial_report, proc_report in zip(serial, procs):
            assert list(proc_report.sequence) == serial_report.to_dict()["sequence"]
            assert all(isinstance(move, str) for move in proc_report.sequence)


class TestEventContract:
    def test_started_precedes_terminal_and_progress_counts(self):
        specs = [GRID.base.replace(seed=s, backend="sequential") for s in range(5)]
        events = _events(Engine().stream(specs, executor="process", max_workers=2))
        assert all(event.total == 5 for event in events)
        started = [event.index for event in events if event.kind == "started"]
        terminal = [event for event in events if event.terminal]
        assert sorted(started) == list(range(5))
        assert sorted(event.index for event in terminal) == list(range(5))
        assert [event.done for event in terminal] == [1, 2, 3, 4, 5]
        for event in terminal:
            assert event.kind == "completed"
            assert event.report is not None
            # started always arrives before the cell's terminal event
            assert started.index(event.index) < len(events)
            assert events.index(event) > events.index(
                next(e for e in events if e.kind == "started" and e.index == event.index)
            )

    def test_cache_hits_short_circuit_in_parent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        engine = Engine()
        engine.run_many(GRID, store=store, executor="process", max_workers=2)
        pool = shared_sweep_pool(2)
        dispatched_before = pool.cells_dispatched
        events = _events(
            engine.stream(GRID, store=store, executor="process", max_workers=2)
        )
        assert _kinds(events) == ["cached"] * len(GRID)
        assert [event.done for event in events] == [1, 2, 3, 4]
        # Nothing crossed the process boundary: all hits resolved in the parent.
        assert shared_sweep_pool(2).cells_dispatched == dispatched_before

    def test_refresh_forces_reexecution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        engine = Engine()
        engine.run_many(GRID, store=store, executor="process", max_workers=2)
        events = _events(
            engine.stream(
                GRID, store=store, executor="process", max_workers=2, refresh=True
            )
        )
        assert sorted(_kinds(events)) == ["completed"] * 4 + ["started"] * 4


class TestChunking:
    def test_auto_chunk_size_is_used_by_default(self):
        specs = [GRID.base.replace(seed=s, backend="sequential") for s in range(16)]
        pool = shared_sweep_pool(2)
        chunks_before, cells_before = pool.chunks_dispatched, pool.cells_dispatched
        events = _events(Engine().stream(specs, executor="process", max_workers=2))
        assert auto_chunk_size(16, 2) == 2
        pool = shared_sweep_pool(2)
        assert pool.chunks_dispatched - chunks_before == 8
        assert pool.cells_dispatched - cells_before == 16
        # Chunked dispatch never batches *events*: one frame per cell.
        assert sorted(_kinds(events)) == ["completed"] * 16 + ["started"] * 16


class TestErrorPolicy:
    def _specs(self):
        good = GRID.base.replace(backend="sequential")
        bad = good.replace(workload="no-such-workload")
        return [good.replace(seed=1), bad, good.replace(seed=2)]

    def test_skip_keeps_sweeping_past_a_failing_cell(self):
        events = _events(
            Engine().stream(
                self._specs(), executor="process", max_workers=2, error_policy="skip"
            )
        )
        kinds = _kinds(events)
        assert kinds.count("failed") == 1
        assert kinds.count("completed") == 2
        failed = next(event for event in events if event.kind == "failed")
        assert failed.index == 1
        assert isinstance(failed.error, RemoteCellError)
        assert "no-such-workload" in str(failed.error)
        assert max(event.done for event in events) == 3

    def test_raise_emits_failed_event_then_raises_after_draining(self):
        events = []
        with pytest.raises(RemoteCellError, match="no-such-workload"):
            for event in Engine().stream(
                self._specs(), executor="process", max_workers=2, error_policy="raise"
            ):
                events.append(event)
        assert _kinds(events).count("failed") == 1
        # The pool drained cleanly and stays usable for the next batch.
        pool = shared_sweep_pool(2)
        assert pool.alive
        reports = Engine().run_many(
            [GRID.base.replace(backend="sequential")], executor="process", max_workers=2
        )
        assert len(reports) == 1


def _register_gated_algorithm():
    @register_algorithm(
        "gated-sample",
        description="test-only: waits for a gate file before playing out",
        params=("gate_file", "start_file"),
    )
    def _gated(state, level, seeds, counter, budget, params):
        Path(params["start_file"]).touch()
        while not os.path.exists(params["gate_file"]):
            time.sleep(0.005)
        return sample(state, seeds=seeds, counter=counter)


def _gated_specs(directory, n_cells):
    """``gated-sample`` cells: each touches ``start-<seed>`` in ``directory``,
    then waits for the directory's ``gate`` file."""
    return [
        SearchSpec(
            workload="leftmove",
            algorithm="gated-sample",
            seed=s,
            params={
                "gate_file": str(directory / "gate"),
                "start_file": str(directory / f"start-{s}"),
            },
        )
        for s in range(n_cells)
    ]


class TestCancellationAndResume:
    def test_cancel_mid_sweep_drains_cleanly_then_store_resumes(self, tmp_path):
        """Two in-flight cells finish, the rest skip without terminal events;
        re-running the batch re-executes only the never-completed cells."""
        close_shared_sweep_pool()  # next pool forks after the registration below
        _register_gated_algorithm()
        try:
            gate = tmp_path / "gate"
            store = ResultStore(tmp_path / "store")
            specs = _gated_specs(tmp_path, 6)
            # Cancel once (a) every chunk has been submitted — otherwise a
            # fast worker could trip the cancel mid-submission and legally
            # truncate the started events — and (b) two cells are provably
            # executing in workers.
            all_submitted = threading.Event()

            def cancelled():
                return all_submitted.is_set() and (
                    len(list(tmp_path.glob("start-*"))) >= 2
                )

            engine = Engine()
            pool = shared_sweep_pool(2)
            opener = threading.Thread(
                # Open the gate only after the parent propagated the cancel to
                # the pool, so no third cell can ever slip in between.
                target=lambda: (pool._cancel.wait(), gate.touch()),
                daemon=True,
            )
            opener.start()
            events = []
            for event in engine.stream(
                specs,
                store=store,
                executor="process",
                max_workers=2,
                cancel=cancelled,
                error_policy="skip",
            ):
                events.append(event)
                if sum(e.kind == "started" for e in events) == len(specs):
                    all_submitted.set()
            opener.join(timeout=10.0)
            assert not opener.is_alive()  # the cancel really reached the pool
            kinds = _kinds(events)
            assert kinds.count("started") == 6
            assert kinds.count("completed") == 2
            assert kinds.count("failed") == 0
            assert max(event.done for event in events) == 2  # done < total
            pool = shared_sweep_pool(2)
            assert pool.alive  # drained, not wedged

            # Resume: the two completed cells come back cached, zero re-runs.
            resumed = _events(
                engine.stream(specs, store=store, executor="process", max_workers=2)
            )
            resumed_kinds = _kinds(resumed)
            assert resumed_kinds.count("cached") == 2
            assert resumed_kinds.count("started") == 4
            assert resumed_kinds.count("completed") == 4
            assert len(store) == 6
        finally:
            del ALGORITHMS["gated-sample"]
            close_shared_sweep_pool()  # drop workers carrying the registration

    def test_cells_skipped_without_a_cancel_fail(self, tmp_path):
        """A pool closed under a running batch answers its queued cells with
        skip frames; those cells end with failed events, not silently."""
        close_shared_sweep_pool()  # next pool forks after the registration below
        _register_gated_algorithm()

        def close_under_a_batch(directory):
            pool = shared_sweep_pool(2)

            def cancel_then_open_the_gate():
                deadline = time.monotonic() + 30.0
                # Wait until both workers are busy; open the gate whatever happens.
                while len(list(directory.glob("start-*"))) < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                pool._cancel.set()  # what close() does first
                (directory / "gate").touch()

            thread = threading.Thread(target=cancel_then_open_the_gate, daemon=True)
            thread.start()
            return thread

        try:
            skip_dir, raise_dir = tmp_path / "skip", tmp_path / "raise"
            skip_dir.mkdir()
            raise_dir.mkdir()
            closer = close_under_a_batch(skip_dir)
            events = _events(
                Engine().stream(
                    _gated_specs(skip_dir, 6),
                    executor="process",
                    max_workers=2,
                    error_policy="skip",
                )
            )
            closer.join(timeout=30.0)
            assert not closer.is_alive()
            kinds = _kinds(events)
            assert kinds.count("started") == 6
            assert kinds.count("completed") == 2
            assert kinds.count("failed") == 4
            for event in events:
                if event.kind == "failed":
                    assert isinstance(event.error, RuntimeError)
                    assert "closed mid-batch" in str(event.error)

            closer = close_under_a_batch(raise_dir)
            with pytest.raises(RuntimeError, match="closed mid-batch"):
                Engine().run_many(
                    _gated_specs(raise_dir, 6),
                    executor="process",
                    max_workers=2,
                    error_policy="raise",
                )
            closer.join(timeout=30.0)
            assert not closer.is_alive()
        finally:
            del ALGORITHMS["gated-sample"]
            close_shared_sweep_pool()  # drop workers carrying the registration

    def test_a_pool_closed_under_a_waiting_batch_says_closed_not_died(self, tmp_path):
        """close_shared_pool() from another thread while the batch waits on
        two busy workers: the batch fails naming the close, and no worker is
        blamed for dying (or killed as dead)."""
        close_shared_sweep_pool()  # next pool forks after the registration below
        _register_gated_algorithm()
        batch_failed = threading.Event()

        def close_under_the_batch():
            deadline = time.monotonic() + 30.0
            while len(list(tmp_path.glob("start-*"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            closer = threading.Thread(target=close_shared_sweep_pool, daemon=True)
            closer.start()
            # close() waits for the two gated workers; free them only once the
            # batch has failed, so it fails while waiting for their frames.
            batch_failed.wait(timeout=30.0)
            (tmp_path / "gate").touch()
            closer.join(timeout=30.0)
            assert not closer.is_alive()

        helper = threading.Thread(target=close_under_the_batch, daemon=True)
        try:
            helper.start()
            with pytest.raises(RuntimeError, match="closed") as raised:
                try:
                    Engine().run_many(
                        _gated_specs(tmp_path, 4), executor="process", max_workers=2
                    )
                finally:
                    batch_failed.set()
            assert "died" not in str(raised.value)
            helper.join(timeout=60.0)
            assert not helper.is_alive()
        finally:
            batch_failed.set()
            del ALGORITHMS["gated-sample"]
            close_shared_sweep_pool()  # drop workers carrying the registration


class TestObsMerge:
    def test_child_engine_runs_surface_in_parent_registry(self):
        close_shared_sweep_pool()  # fresh workers: inherited counters are zeroed
        obs.enable()
        try:
            obs.metrics.reset()
            specs = [
                GRID.base.replace(seed=s, backend="sequential") for s in range(3)
            ]
            Engine().run_many(specs, executor="process", max_workers=2)
            snapshot = obs.metrics.snapshot()
            runs = snapshot["repro_engine_runs_total"]["values"]
            # The parent never called Engine.run for these cells; the counts
            # can only have arrived through the merged child snapshots.
            assert sum(entry["value"] for entry in runs) == 3.0
            assert {entry["labels"]["backend"] for entry in runs} == {"sequential"}
            seconds = snapshot["repro_engine_run_seconds"]["values"]
            assert sum(entry["count"] for entry in seconds) == 3.0
            cells = {
                entry["labels"]["kind"]: entry["value"]
                for entry in snapshot["repro_engine_cells_total"]["values"]
            }
            assert cells["started"] == 3.0 and cells["completed"] == 3.0
        finally:
            obs.disable()
            obs.metrics.reset()
            close_shared_sweep_pool()


class TestMergeSnapshot:
    def _recording(self):
        obs.enable()
        return MetricsRegistry()

    def test_counters_add_and_unknown_families_register(self):
        try:
            child = self._recording()
            child.counter("t_jobs_total", "jobs", ("kind",)).labels(kind="a").inc(2)
            snap = child.snapshot()
        finally:
            obs.disable()
        parent = MetricsRegistry()
        parent.merge_snapshot(snap)
        parent.merge_snapshot(snap)  # deltas accumulate
        assert parent.counter("t_jobs_total", labelnames=("kind",)).value(kind="a") == 4.0

    def test_gauges_take_the_incoming_level(self):
        try:
            child = self._recording()
            child.gauge("t_depth").set(3)
            snap = child.snapshot()
            parent = MetricsRegistry()
            parent.gauge("t_depth").set(7)
        finally:
            obs.disable()
        parent.merge_snapshot(snap)
        assert parent.gauge("t_depth").value() == 3.0

    def test_histograms_merge_buckets_sum_and_count(self):
        try:
            child = self._recording()
            hist = child.histogram("t_seconds", buckets=(1.0, 5.0))
            for value in (0.5, 2.0, 9.0):
                hist.observe(value)
            snap = child.snapshot()
        finally:
            obs.disable()
        parent = MetricsRegistry()
        parent.merge_snapshot(snap)
        parent.merge_snapshot(snap)
        stats = parent.histogram("t_seconds", buckets=(1.0, 5.0)).stats()
        assert stats["count"] == 6.0
        assert stats["sum"] == pytest.approx(23.0)
        assert stats["buckets"] == {"1": 2.0, "5": 4.0, "+Inf": 6.0}

    def test_merge_lands_even_while_disabled(self):
        try:
            child = self._recording()
            child.counter("t_hits_total").inc(5)
            snap = child.snapshot()
        finally:
            obs.disable()
        parent = MetricsRegistry()
        parent.merge_snapshot(snap)  # recording is off; merge still lands
        assert parent.counter("t_hits_total").value() == 5.0

    def test_conflicting_shape_raises(self):
        try:
            child = self._recording()
            child.histogram("t_clash_seconds", buckets=(1.0,)).observe(0.5)
            snap = child.snapshot()
        finally:
            obs.disable()
        parent = MetricsRegistry()
        parent.histogram("t_clash_seconds", buckets=(2.0,))
        with pytest.raises(ValueError, match="different shape"):
            parent.merge_snapshot(snap)

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown type"):
            MetricsRegistry().merge_snapshot({"t_bogus": {"type": "summary"}})


#: four weakschur cells, two cells per worker of a two-worker pool
WEAKSCHUR_CELLS = [
    SearchSpec(workload="weakschur", level=2, seed=seed, max_steps=3) for seed in range(4)
]


def _stored_form(reports):
    return [(report.score, report.to_dict()["sequence"]) for report in reports]


class TestEveryGameOnThePool:
    """Cells cross the pipe as spec dicts, so every game runs on the workers
    and comes back as the serial result, whatever its state and move types."""

    @pytest.mark.parametrize(
        "workload", ["leftmove", "morpion-small", "samegame", "weakschur", "tsp", "sop"]
    )
    def test_process_cells_match_serial(self, workload):
        specs = [
            SearchSpec(workload=workload, level=1, seed=seed, max_steps=2) for seed in range(2)
        ]
        serial = Engine().run_many(specs)
        procs = Engine().run_many(specs, executor="process", max_workers=2)
        assert _stored_form(procs) == _stored_form(serial)
        assert [p.work_units for p in procs] == [s.work_units for s in serial]


class TestSharedByThreads:
    def test_threads_take_turns_on_the_shared_pool(self):
        """Two threads streaming at once, as two service workers do, get the
        serial results instead of reading each other's frames."""
        serial = _stored_form(Engine().run_many(WEAKSCHUR_CELLS))
        shared_sweep_pool(2)  # both threads must find this pool, not race to build one
        results = {}

        def stream(slot):
            results[slot] = _stored_form(
                Engine().run_many(WEAKSCHUR_CELLS, executor="process", max_workers=2)
            )

        threads = [
            threading.Thread(target=stream, args=(slot,), daemon=True) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == {slot: serial for slot in range(2)}
        # No stale frame is left behind for the next caller.
        assert _stored_form(
            Engine().run_many(WEAKSCHUR_CELLS, executor="process", max_workers=2)
        ) == serial

    def test_a_resize_waits_for_the_running_batch(self):
        """Two threads streaming at different pool sizes: each resize waits
        for the other thread's batch instead of closing the pool under it."""
        serial = _stored_form(Engine().run_many(WEAKSCHUR_CELLS))
        shared_sweep_pool(2)
        results = {}

        def stream(n_workers):
            events = _events(
                Engine().stream(
                    WEAKSCHUR_CELLS,
                    error_policy="skip",
                    executor="process",
                    max_workers=n_workers,
                )
            )
            completed = sorted(
                (event for event in events if event.kind == "completed"),
                key=lambda event: event.index,
            )
            results[n_workers] = _stored_form(event.report for event in completed)

        threads = [
            threading.Thread(target=stream, args=(n_workers,), daemon=True)
            for n_workers in (2, 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(serial) == 4
        assert results == {2: serial, 3: serial}

    def test_threads_that_find_no_pool_share_one(self):
        close_shared_sweep_pool()
        barrier = threading.Barrier(2)
        pools = []

        def build():
            barrier.wait(timeout=30)
            pools.append(shared_sweep_pool(2))

        threads = [threading.Thread(target=build, daemon=True) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(pools) == 2
            assert pools[0] is pools[1]
        finally:
            close_shared_sweep_pool()
            for pool in pools:  # a second pool would otherwise outlive the test
                pool.close()


class TestPoolLifecycle:
    def test_shared_pool_recreated_on_size_change_and_death(self):
        first = shared_sweep_pool(2)
        assert shared_sweep_pool(2) is first
        second = shared_sweep_pool(1)
        assert second is not first and second.n_workers == 1
        assert not first.alive
        close_shared_sweep_pool()
        assert not second.alive

    def test_closed_pool_rejects_batches(self):
        pool = SweepWorkerPool(n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            next(pool.run([(0, GRID.base)], lambda: False))
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit_chunk(1, [], False)

    def test_context_manager_runs_one_batch(self):
        spec = GRID.base.replace(backend="sequential")
        with SweepWorkerPool(n_workers=1) as pool:
            cells = list(pool.run([(0, spec)], lambda: False))
        assert [(index, kind) for index, kind, _ in cells] == [(0, "started"), (0, "completed")]
        assert cells[1][2].spec.workload == spec.workload
        assert not pool.alive

    def test_an_unclosed_pool_does_not_hang_interpreter_exit(self):
        code = "from repro.lab.procpool import SweepWorkerPool; p = SweepWorkerPool(1)"
        done = subprocess.run(
            [sys.executable, "-B", "-c", code],
            env={"PYTHONPATH": str(Path(__file__).parent.parent / "src")},
            capture_output=True,
            timeout=30,
        )
        assert done.returncode == 0

    def test_killed_worker_fails_the_stream_fast_and_the_shared_pool_recovers(self):
        pool = shared_sweep_pool(2)
        # Two level-3 cells, one per worker, each still running when the kill lands.
        cells = [
            SearchSpec(workload="morpion-small", level=3, seed=seed, max_steps=1)
            for seed in range(2)
        ]
        killer = threading.Timer(0.3, os.kill, (pool._workers[0].pid, signal.SIGKILL))
        started = time.monotonic()
        killer.start()
        try:
            with pytest.raises(RuntimeError, match="died"):
                Engine().run_many(cells, executor="process", max_workers=2)
        finally:
            killer.join(timeout=10)
        assert time.monotonic() - started < 5.0
        assert not pool.alive
        fresh = shared_sweep_pool(2)
        assert fresh is not pool and fresh.alive
        specs = [GRID.base.replace(seed=s, backend="sequential") for s in range(2)]
        assert len(Engine().run_many(specs, executor="process", max_workers=2)) == 2
