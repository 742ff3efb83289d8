"""Tests for the compact wire protocol and the persistent worker pool."""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.api import Engine, SearchSpec
from repro.core.nested import candidate_evaluations, evaluate_move
from repro.games.base import decode_state, wire_kinds
from repro.games.morpion.state import MorpionState
from repro.games.samegame import SameGameState
from repro.games.tsp import TSPInstance, TSPState
from repro.games.weakschur import WeakSchurState
from repro.lab import ResultStore
from repro.parallel import pool as pool_module
from repro.parallel.pool import PersistentWorkerPool, close_shared_pool, shared_pool
from repro.prng import SeedSequence
from repro.workloads import get_workload


def play_some(state, n, seed=3):
    rng = random.Random(seed)
    for _ in range(n):
        legal = state.legal_moves()
        if not legal:
            break
        state.apply(legal[rng.randrange(len(legal))])
    return state


class TestWireProtocol:
    def test_registered_kinds(self):
        assert {"samegame", "morpion", "tsp"} <= set(wire_kinds())

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SameGameState.random(6, 6, 3, seed=5),
            lambda: MorpionState(line_length=4),
            lambda: TSPState(TSPInstance.random(10, seed=2), neighbourhood=4),
        ],
        ids=["samegame", "morpion", "tsp"],
    )
    def test_round_trip_mid_game(self, factory):
        state = play_some(factory(), 4)
        decoded = decode_state(state.encode())
        assert type(decoded) is type(state)
        assert decoded.legal_moves() == state.legal_moves()
        assert decoded.score() == state.score()
        assert decoded.moves_played() == state.moves_played()

    def test_compact_frames_beat_pickle(self):
        import pickle

        state = TSPState(TSPInstance.random(24, seed=11), neighbourhood=8)
        assert len(state.encode()) < len(pickle.dumps(state.instance.distances))

    def test_pickle_fallback_for_unregistered_games(self):
        state = play_some(WeakSchurState(k=3, limit=12), 3)
        blob = state.encode()
        assert blob.startswith(b"pickle\x00")
        decoded = decode_state(blob)
        assert decoded.legal_moves() == state.legal_moves()
        assert decoded.score() == state.score()

    def test_decode_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            decode_state(b"no-such-kind\x00payload")


class TestPersistentWorkerPool:
    @pytest.fixture(scope="class")
    def pool(self):
        with PersistentWorkerPool(n_workers=2) as pool:
            yield pool

    def test_matches_in_process_evaluations(self, pool):
        state = get_workload("morpion-bench").state()
        seeds = SeedSequence(11, "nmcs")
        evaluations = candidate_evaluations(state, 1, 0, seeds)[:6]
        outcomes = pool.evaluate_candidates(state, evaluations, 0)
        assert [o[0] for o in outcomes] == [i for i, _, _ in evaluations]
        for (index, move, child_seeds), (_, score, sequence, work) in zip(
            evaluations, outcomes
        ):
            reference = evaluate_move(state, move, 0, child_seeds)
            assert score == reference.score
            assert sequence == tuple(reference.sequence)
            assert work == float(reference.work.moves)

    def test_pool_survives_multiple_batches_and_games(self, pool):
        for name in ("samegame", "tsp", "morpion-small"):
            state = get_workload(name).state()
            seeds = SeedSequence(7, "nmcs")
            evaluations = candidate_evaluations(state, 1, 0, seeds)[:3]
            outcomes = pool.evaluate_candidates(state, evaluations, 0)
            assert len(outcomes) == len(evaluations)
        assert pool.alive
        assert pool.jobs_executed >= 9

    def test_pickle_fallback_games_work_on_the_pool(self, pool):
        state = WeakSchurState(k=3, limit=12)
        seeds = SeedSequence(5, "nmcs")
        evaluations = candidate_evaluations(state, 1, 0, seeds)
        outcomes = pool.evaluate_candidates(state, evaluations, 0)
        for (index, move, child_seeds), (_, score, sequence, _) in zip(
            evaluations, outcomes
        ):
            reference = evaluate_move(state, move, 0, child_seeds)
            assert (score, sequence) == (reference.score, tuple(reference.sequence))

    def test_closed_pool_rejects_work(self):
        pool = PersistentWorkerPool(n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.evaluate_candidates(
                get_workload("samegame").state(),
                [(0, (0, 0), SeedSequence(0))],
                0,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            PersistentWorkerPool(n_workers=0)


class TestSharedPool:
    def test_singleton_reuse_and_resize(self):
        try:
            a = shared_pool(2)
            b = shared_pool(2)
            assert a is b
            c = shared_pool(1)
            assert c is not a
            assert not a.alive
            assert c.n_workers == 1
        finally:
            close_shared_pool()


#: four ``multiprocessing`` cells sharing the process-wide two-worker pool
MP_SPECS = [
    SearchSpec(workload="morpion-small", backend="multiprocessing", level=1, seed=seed, n_workers=2)
    for seed in range(4)
]


def _stored_form(reports):
    return [(report.score, report.to_dict()["sequence"]) for report in reports]


class TestSharedByThreads:
    """Threads sharing one pool take turns instead of reading each other's frames."""

    def test_threads_calling_evaluate_candidates_get_the_serial_results(self):
        state = get_workload("morpion-small").state()
        evaluations = candidate_evaluations(state, 1, 0, SeedSequence(3, "nmcs"))
        with PersistentWorkerPool(n_workers=2) as pool:
            serial = pool.evaluate_candidates(state, evaluations, 0)
            results = {}

            def evaluate(slot):
                results[slot] = pool.evaluate_candidates(state, evaluations, 0)

            threads = [threading.Thread(target=evaluate, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == {slot: serial for slot in range(4)}
            assert pool.evaluate_candidates(state, evaluations, 0) == serial

    def test_thread_stream_of_multiprocessing_cells_matches_serial(self):
        """Two threads streaming at once, as two service workers do."""
        serial = Engine().run_many(MP_SPECS)
        results = {}

        def stream(slot):
            results[slot] = _stored_form(Engine().run_many(MP_SPECS))

        threads = [threading.Thread(target=stream, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == {slot: _stored_form(serial) for slot in range(2)}
        # No stale frame is left behind for the next caller.
        assert _stored_form(Engine().run_many(MP_SPECS)) == _stored_form(serial)


class TestDeadWorker:
    def test_killed_worker_fails_the_call_fast_and_the_shared_pool_recovers(self):
        pool = shared_pool(2)
        state = get_workload("morpion-small").state()
        # Two level-3 evaluations: minutes of work, one per worker.
        evaluations = candidate_evaluations(state, 4, 0, SeedSequence(1, "nmcs"))[:2]
        killer = threading.Timer(0.3, os.kill, (pool._workers[0].pid, signal.SIGKILL))
        started = time.monotonic()
        killer.start()
        try:
            with pytest.raises(RuntimeError, match="died"):
                pool.evaluate_candidates(state, evaluations, 3)
        finally:
            killer.join(timeout=10)
        assert time.monotonic() - started < 5.0
        assert not pool.alive
        fresh = shared_pool(2)
        assert fresh is not pool and fresh.alive
        assert len(fresh.evaluate_candidates(state, evaluations[:2], 0)) == 2

    def test_silent_job_batch_times_out(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_JOB_TIMEOUT_S", 0.3)
        state = get_workload("morpion-small").state()
        # A level-3 evaluation sends nothing for minutes.
        evaluations = candidate_evaluations(state, 4, 0, SeedSequence(1, "nmcs"))[:1]
        with PersistentWorkerPool(n_workers=1) as pool:
            with pytest.raises(RuntimeError, match="no job result"):
                pool.evaluate_candidates(state, evaluations, 3)
            assert not pool.alive


def test_multiprocessing_stores_the_moves_sequential_stores(tmp_path):
    """Moves cross the pipe as the game's own objects, not plain tuples."""
    spec = SearchSpec(workload="morpion-small", level=1, seed=3)
    store = ResultStore(tmp_path)
    Engine().run_many([spec, spec.replace(backend="multiprocessing", n_workers=2)], store=store)
    stored = {
        record["report"]["backend"]: record["report"]["sequence"] for record in store.records()
    }
    assert "MorpionMove" in stored["sequential"][0]
    assert stored["multiprocessing"] == stored["sequential"]
