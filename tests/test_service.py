"""Tests for repro.service — the search-as-a-service job server.

The suites cover the threaded core directly (FIFO order, service lifecycle,
both dedup levels, cancellation, shutdown draining), the request table of
the wire protocol, and the socket transport + client end to end (TCP and
unix socket), including the acceptance proof that two identical concurrent
submissions execute exactly one search, a completed submission re-serves
from the store with zero searches, and every request line — malformed ones
included — gets exactly one answer on a connection that stays usable.
"""

import math
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ALGORITHMS, Engine, SearchSpec, register_algorithm
from repro.core.sample import sample
from repro.lab import ResultStore, SweepSpec
from repro.service import (
    Job,
    JobState,
    SearchService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
)
from repro.service.protocol import (
    REQUESTS,
    decode_line,
    encode_line,
    parse_address,
    parse_request,
)


class _Recorder:
    """A registrable algorithm that counts calls and can block on a gate.

    ``started`` is set when a call begins; the call then waits on ``gate``
    (pre-set by default, so unblocked unless a test clears it).  ``seeds``
    records each call's spec seed, in call order.
    """

    def __init__(self):
        self.calls = []
        self.seeds = []
        self.started = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, state, level, seeds, counter, budget, params):
        self.calls.append(threading.get_ident())
        self.seeds.append(seeds.master_seed)
        self.started.set()
        assert self.gate.wait(timeout=30), "test gate never released"
        return sample(state, seeds=seeds, counter=counter)


@pytest.fixture
def recorder():
    """Register a fresh counting algorithm as ``svc-probe`` for one test."""
    rec = _Recorder()
    register_algorithm("svc-probe", description="service test probe")(rec)
    try:
        yield rec
    finally:
        del ALGORITHMS["svc-probe"]


PROBE = SearchSpec(workload="leftmove", algorithm="svc-probe", level=0, seed=7)


def _drain(service, job_id):
    """Follow a job to the end in-process; returns its event list."""
    return list(service.subscribe(job_id))


# --------------------------------------------------------------------- #
# Service core lifecycle
# --------------------------------------------------------------------- #
class TestServiceLifecycle:
    def test_happy_path_matches_direct_engine_run(self, recorder):
        with SearchService() as service:
            ack = service.submit(PROBE, client="t")
            assert ack["status"] == "queued"
            events = _drain(service, ack["job_id"])
        assert [e["kind"] for e in events] == ["started", "completed"]
        assert events[-1]["done"] == 1
        snapshot = service.status(ack["job_id"])
        assert snapshot["state"] == "completed"
        assert snapshot["cells"] == {
            "total": 1, "done": 1, "cached": 0, "completed": 1, "failed": 0,
        }
        direct = Engine().run(PROBE)
        assert events[-1]["report"]["score"] == direct.score
        assert len(recorder.calls) == 2  # one service run + the direct run

    def test_dict_payloads_accepted(self, recorder):
        with SearchService() as service:
            ack = service.submit(PROBE.to_dict())
            _drain(service, ack["job_id"])
            assert service.status(ack["job_id"])["kind"] == "search"
            sweep = SweepSpec(base=PROBE, axes={"seed": (1, 2)})
            ack = service.submit(sweep.to_dict())
            _drain(service, ack["job_id"])
            assert service.status(ack["job_id"])["cells"]["done"] == 2

    def test_malformed_payload_raises_value_error(self):
        service = SearchService()  # not started: submit alone must validate
        with pytest.raises(ValueError):
            service.submit({"workload": "leftmove", "bogus_field": 1})
        with pytest.raises(ValueError):
            service.submit(42)

    def test_inflight_dedup_executes_exactly_once(self, recorder):
        recorder.gate.clear()
        with SearchService() as service:
            first = service.submit(PROBE, client="alice")
            assert first["status"] == "queued"
            assert recorder.started.wait(10)
            second = service.submit(PROBE, client="bob")
            assert second == {
                "status": "attached",
                "job_id": first["job_id"],
                "state": "running",
                "key": first["key"],
            }
            recorder.gate.set()
            alice_events = _drain(service, first["job_id"])
            bob_events = _drain(service, second["job_id"])
        assert len(recorder.calls) == 1  # exactly one search for two submissions
        assert alice_events == bob_events  # late subscriber replays history
        assert service.status(first["job_id"])["attached"] == 2
        assert service.service_stats()["attached"] == 1

    def test_sweep_dedup_keeps_axis_order_but_not_params_order(self):
        """Axis order defines cell order, so it splits the in-flight key;
        the insertion order of ``params`` does not."""
        base = SearchSpec(workload="leftmove", level=1, params={"a": 1, "b": 2})
        axes = {"seed": (0, 1), "level": (1, 2)}
        service = SearchService()  # no workers: jobs stay queued
        first = service.submit(SweepSpec(base=base, axes=axes))
        flipped = service.submit(SweepSpec(base=base, axes=dict(reversed(axes.items()))))
        assert flipped["status"] == "queued" and flipped["key"] != first["key"]
        reordered = service.submit(
            SweepSpec(base=base.replace(params={"b": 2, "a": 1}), axes=axes)
        )
        assert reordered == {
            "status": "attached", "job_id": first["job_id"], "state": "queued",
            "key": first["key"],
        }

    def test_resubmission_after_completion_is_store_cached(self, recorder, tmp_path):
        with SearchService(store=ResultStore(tmp_path / "store")) as service:
            first = service.submit(PROBE)
            _drain(service, first["job_id"])
            again = service.submit(PROBE)
            assert again["status"] == "cached"
            assert again["job_id"] != first["job_id"]
            events = _drain(service, again["job_id"])
        assert len(recorder.calls) == 1  # zero searches for the re-submission
        assert [e["kind"] for e in events] == ["cached"]
        assert events[0]["report"]["score"] is not None
        assert service.status(again["job_id"])["state"] == "completed"
        assert service.service_stats()["searches_started"] == 1

    def test_full_queue_rejected_with_backpressure(self):
        service = SearchService(config=ServiceConfig(queue_depth=2))
        assert service.submit(PROBE.replace(seed=0))["status"] == "queued"
        assert service.submit(PROBE.replace(seed=1))["status"] == "queued"
        overflow = service.submit(PROBE.replace(seed=2))
        assert overflow == {
            "status": "rejected", "reason": "queue_full", "queue_depth": 2,
        }
        assert service.service_stats()["rejected_queue_full"] == 1

    def test_cancel_queued_job_is_immediate(self):
        # No workers: the job stays queued, in the queue's only slot.
        service = SearchService(config=ServiceConfig(queue_depth=1))
        ack = service.submit(PROBE)
        snapshot = service.cancel(ack["job_id"])
        assert snapshot["state"] == "cancelled"
        # The job left the queue, freeing its slot and its key: an identical
        # submission makes a fresh job.
        assert service.service_stats()["queue_size"] == 0
        assert service.submit(PROBE)["status"] == "queued"

    def test_a_cancel_never_lands_between_a_pop_and_the_start(
        self, recorder, monkeypatch
    ):
        """The worker takes a job off the queue and marks it running in one
        critical section.  A cancel sent while the worker is in there waits
        for it, finds the job running and stops it at its cell boundary, so
        the job turns terminal once (a cancel that did not wait would finish
        the queued job, which the worker would then start and finish again)."""
        recorder.gate.clear()
        in_window, cancelled = threading.Event(), threading.Event()
        mark_running, finish = Job.mark_running, Job.finish
        terminal_transitions = []

        def slow_mark_running(job):
            in_window.set()
            cancelled.wait(0.3)  # room for a cancel that does not wait
            mark_running(job)

        def recorded_finish(job, state, error=None):
            if not job.terminal:
                terminal_transitions.append(state)
            finish(job, state, error)

        monkeypatch.setattr(Job, "mark_running", slow_mark_running)
        monkeypatch.setattr(Job, "finish", recorded_finish)
        with SearchService(config=ServiceConfig(n_workers=1)) as service:
            job_id = service.submit(PROBE)["job_id"]
            assert in_window.wait(10)
            canceller = threading.Thread(
                target=lambda: (service.cancel(job_id), cancelled.set()), daemon=True
            )
            canceller.start()
            canceller.join(timeout=10)
            assert not canceller.is_alive()
            recorder.gate.set()
            _drain(service, job_id)
        assert service.status(job_id)["state"] == "cancelled"
        assert terminal_transitions == [JobState.CANCELLED]

    def test_jobs_run_in_submission_order_across_clients(self, recorder):
        """One FIFO: jobs A and C of client x, then B of client y, run A, C, B."""
        recorder.gate.clear()
        with SearchService(config=ServiceConfig(n_workers=1)) as service:
            parked = service.submit(PROBE, client="z")  # holds the one worker
            assert recorder.started.wait(10)
            acks = [
                service.submit(PROBE.replace(seed=seed), client=client)
                for seed, client in ((1, "x"), (3, "x"), (2, "y"))
            ]
            recorder.gate.set()
            for ack in (parked, *acks):
                _drain(service, ack["job_id"])
        assert recorder.seeds == [PROBE.seed, 1, 3, 2]

    def test_cancel_running_sweep_stops_at_cell_boundary(self, recorder):
        recorder.gate.clear()
        sweep = SweepSpec(base=PROBE, axes={"seed": (0, 1, 2, 3)})
        with SearchService(config=ServiceConfig(n_workers=1)) as service:
            ack = service.submit(sweep)
            assert recorder.started.wait(10)  # first cell is mid-search
            service.cancel(ack["job_id"])
            recorder.gate.set()  # let the in-flight cell finish
            _drain(service, ack["job_id"])
        snapshot = service.status(ack["job_id"])
        assert snapshot["state"] == "cancelled"
        assert len(recorder.calls) < 4  # later cells were never searched
        assert snapshot["cells"]["done"] < 4

    def test_cancel_unknown_job_returns_none(self):
        assert SearchService().cancel("job-999") is None

    def test_shutdown_drains_then_rejects(self, recorder):
        service = SearchService().start()
        acks = [service.submit(PROBE.replace(seed=i)) for i in range(3)]
        service.shutdown(drain=True, timeout=30)
        states = {service.status(a["job_id"])["state"] for a in acks}
        assert states == {"completed"}
        late = service.submit(PROBE.replace(seed=99))
        assert late == {"status": "rejected", "reason": "shutting_down"}

    def test_shutdown_without_drain_cancels_pending(self):
        service = SearchService()  # no workers, so queued jobs cannot run
        ack = service.submit(PROBE)
        service.shutdown(drain=False, timeout=1)
        assert service.status(ack["job_id"])["state"] == "cancelled"

    def test_subscribe_unknown_job_raises(self):
        with pytest.raises(KeyError, match="job-404"):
            SearchService().subscribe("job-404")

    def test_every_subscriber_sees_the_whole_history_under_contention(self):
        """Subscribers block on the job's condition with no timeout: under
        constant thread switching none misses a wake-up (it would hang past
        the join), loses an event or outlives its job."""
        history = [{"kind": "completed", "index": n} for n in range(20)]

        def follow(job, start, seen, slot):
            start.wait()
            seen[slot] = list(job.stream())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                job = Job("job-1", client="t", kind="search", payload=None, key="k")
                seen = [None] * 8
                start = threading.Barrier(len(seen) + 1, timeout=10)
                threads = [
                    threading.Thread(target=follow, args=(job, start, seen, i), daemon=True)
                    for i in range(len(seen))
                ]
                for thread in threads:
                    thread.start()
                start.wait()
                for event in history:
                    job.publish(event)
                job.finish(JobState.COMPLETED)
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [history] * len(seen)
        finally:
            sys.setswitchinterval(interval)


# --------------------------------------------------------------------- #
# Protocol helpers
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_frame_round_trip(self):
        frame = encode_line({"op": "ping", "n": 1})
        assert frame.endswith(b"\n")
        assert decode_line(frame) == {"op": "ping", "n": 1}

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError, match="bad JSON frame"):
            decode_line(b"not json\n")
        with pytest.raises(ValueError, match="JSON object"):
            decode_line(b"[1,2]\n")

    def test_request_table_defaults_and_rules(self):
        assert parse_request({"op": "subscribe", "job_id": "job-1"}) == (
            "subscribe", {"job_id": "job-1", "replay": True},
        )
        op, fields = parse_request({"op": "submit", "spec": {"workload": "leftmove"}})
        assert op == "submit" and fields["client"] == "anon" and fields["sweep"] is None
        assert fields["spec"] == SearchSpec(workload="leftmove")
        for request, message in (
            ({"op": "frobnicate"}, "unknown op 'frobnicate'"),
            ({"op": ["ping"]}, "unknown op"),
            ({"op": "ping", "extra": 1}, "ping: unknown fields extra"),
            ({"op": "status"}, "status needs a 'job_id' field"),
            ({"op": "cancel", "job_id": 7}, "cancel.job_id: must be a string"),
            ({"op": "subscribe", "job_id": "j", "replay": 1}, "subscribe.replay: must be"),
            ({"op": "submit"}, "exactly one of 'spec' or 'sweep'"),
            ({"op": "submit", "spec": {}, "sweep": {}}, "exactly one of 'spec' or 'sweep'"),
            ({"op": "submit", "spec": None}, "submit.spec: a SearchSpec document must be"),
            ({"op": "submit", "sweep": {"repeats": math.inf}}, "submit.sweep: malformed SweepSpec"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_request(request)

    def test_parse_address_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("10.0.0.1:7171") == ("tcp", ("10.0.0.1", 7171))
        assert parse_address(":7171") == ("tcp", ("127.0.0.1", 7171))
        for bad in ("unix:", "nocolon", "host:port"):
            with pytest.raises(ValueError):
                parse_address(bad)


# --------------------------------------------------------------------- #
# Transport + client, end to end
# --------------------------------------------------------------------- #
@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral TCP port, store-backed; yields a client."""
    service = SearchService(store=ResultStore(tmp_path / "store"))
    server = ServiceServer(service, port=0)
    address = server.start()
    try:
        yield ServiceClient(address, client="pytest"), service
    finally:
        service.shutdown(drain=False, timeout=5)
        server.stop()


class TestTransport:
    def test_ping_and_unknown_op(self, served):
        client, _ = served
        assert client.ping()
        with pytest.raises(ServiceError, match="unknown op"):
            client._request({"op": "frobnicate"})

    def test_run_round_trip_matches_engine(self, served, recorder):
        client, _ = served
        outcome = client.run(PROBE)
        assert outcome["submit"]["status"] == "queued"
        assert outcome["job"]["state"] == "completed"
        assert outcome["counts"]["completed"] == 1
        assert outcome["reports"][0]["score"] == Engine().run(PROBE).score

    def test_wire_dedup_inflight_and_cached(self, served, recorder):
        """The acceptance proof, through the socket: two identical submissions
        → one search; a post-completion re-run → zero searches."""
        client, service = served
        recorder.gate.clear()
        first = client.submit(PROBE)
        assert first["status"] == "queued"
        assert recorder.started.wait(10)
        second = client.submit(PROBE)
        assert second["status"] == "attached"
        assert second["job_id"] == first["job_id"]
        recorder.gate.set()
        outcome_a = client.wait(first["job_id"])
        outcome_b = client.wait(second["job_id"])
        assert outcome_a["reports"] == outcome_b["reports"]
        assert len(recorder.calls) == 1
        # Now terminal: the same spec re-served from the store, no search.
        rerun = client.run(PROBE)
        assert rerun["submit"]["status"] == "cached"
        assert rerun["counts"]["cached"] == 1
        assert rerun["reports"] == outcome_a["reports"]
        assert len(recorder.calls) == 1
        assert service.service_stats()["searches_started"] == 1

    def test_concurrent_submitters_share_one_execution(self, served, recorder):
        client, service = served
        recorder.gate.clear()
        outcomes = [None, None]

        def runner(slot):
            outcomes[slot] = client.run(PROBE.replace(seed=42))

        threads = [threading.Thread(target=runner, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        assert recorder.started.wait(10)
        # Hold the search open until BOTH submissions registered, so the
        # late one must dedup against the in-flight job, never the store.
        deadline = time.monotonic() + 10
        while service.service_stats()["submitted"] < 2:
            assert time.monotonic() < deadline, "second submission never arrived"
            time.sleep(0.01)
        recorder.gate.set()
        for t in threads:
            t.join(timeout=30)
        assert all(o is not None for o in outcomes)
        assert {o["submit"]["status"] for o in outcomes} == {"queued", "attached"}
        assert outcomes[0]["reports"] == outcomes[1]["reports"]
        assert len(recorder.calls) == 1

    def test_status_jobs_and_cancel_verbs(self, served, recorder):
        client, _ = served
        outcome = client.run(PROBE)
        job_id = outcome["job"]["id"]
        assert client.status(job_id)["state"] == "completed"
        listing = client.jobs()
        assert any(j["id"] == job_id for j in listing["jobs"])
        assert listing["stats"]["submitted"] >= 1
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("job-404")
        with pytest.raises(ServiceError, match="unknown job"):
            client.cancel("job-404")
        with pytest.raises(ServiceError, match="unknown job"):
            list(client.subscribe("job-404"))

    def test_sweep_submission_streams_all_cells(self, served, recorder):
        client, _ = served
        sweep = SweepSpec(base=PROBE, axes={"seed": (1, 2, 3)})
        seen = []
        outcome = client.run(sweep=sweep, on_event=lambda e: seen.append(e["kind"]))
        assert outcome["job"]["kind"] == "sweep"
        assert outcome["counts"]["done"] == 3
        assert len(outcome["reports"]) == 3
        assert seen.count("completed") == 3

    def test_rejected_ack_is_returned_not_raised(self, recorder):
        recorder.gate.clear()
        service = SearchService(config=ServiceConfig(n_workers=1, queue_depth=1))
        server = ServiceServer(service, port=0)
        client = ServiceClient(server.start())
        try:
            assert client.submit(PROBE)["status"] == "queued"
            assert recorder.started.wait(10)  # the one worker is parked
            assert client.submit(PROBE.replace(seed=1))["status"] == "queued"
            rejected = client.submit(PROBE.replace(seed=2))
            assert rejected == {"status": "rejected", "reason": "queue_full", "queue_depth": 1}
            with pytest.raises(ServiceError, match="queue_full"):
                client.run(PROBE.replace(seed=3))
        finally:
            recorder.gate.set()
            service.shutdown(drain=False, timeout=5)
            server.stop()

    def test_shutdown_verb_stops_the_server(self, recorder):
        service = SearchService()
        server = ServiceServer(service, port=0)
        client = ServiceClient(server.start())
        outcome = client.run(PROBE)
        assert outcome["job"]["state"] == "completed"
        assert client.shutdown(drain=True)["shutting_down"]
        server.wait()  # returns only once the loop stopped
        with pytest.raises(OSError):
            client.ping()

    def test_unix_socket_round_trip(self, tmp_path, recorder):
        service = SearchService()
        server = ServiceServer(service, socket_path=str(tmp_path / "svc.sock"))
        address = server.start()
        assert address == f"unix:{tmp_path / 'svc.sock'}"
        client = ServiceClient(address)
        try:
            assert client.ping()
            assert client.run(PROBE)["job"]["state"] == "completed"
        finally:
            service.shutdown(drain=False, timeout=5)
            server.stop()

    def test_bad_address_fails_fast(self):
        with pytest.raises(ValueError, match="expected 'host:port'"):
            ServiceClient("nonsense")

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = tmp_path / "svc.sock"
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as earlier:
            earlier.bind(str(path))  # closing leaves the socket file behind
        assert path.is_socket()
        service = SearchService()
        server = ServiceServer(service, socket_path=str(path))
        try:
            assert ServiceClient(server.start(), timeout=10).ping()
        finally:
            service.shutdown(drain=False, timeout=5)
            server.stop()

    def test_regular_file_at_the_socket_path_survives_a_failed_bind(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a socket")
        service = SearchService()
        try:
            with pytest.raises(OSError):
                ServiceServer(service, socket_path=str(path)).start()
        finally:
            service.shutdown(drain=False, timeout=5)
        assert path.read_text() == "not a socket"

    def test_a_failed_bind_starts_no_worker_threads(self):
        service = SearchService()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = ServiceServer(service, port=taken.getsockname()[1])
            before = set(threading.enumerate())
            try:
                with pytest.raises(OSError):
                    server.start()
                assert set(threading.enumerate()) - before == set()
            finally:
                service.shutdown(drain=False, timeout=5)

    def test_a_client_that_disconnects_mid_subscribe_costs_nothing(self, served, recorder):
        """The server keeps serving, the job completes into the store, and
        the dead subscription's connection thread ends."""
        client, service = served
        recorder.gate.clear()
        job_id = service.submit(PROBE)["job_id"]  # in process: opens no connection
        assert recorder.started.wait(10)
        before = set(threading.enumerate())
        _, target = parse_address(client.address)
        with socket.create_connection(target, timeout=10) as sock:
            sock.sendall(encode_line({"op": "subscribe", "job_id": job_id}))
            with sock.makefile("rb") as reader:
                first = decode_line(reader.readline())
            subscription = set(threading.enumerate()) - before
        assert first["event"]["kind"] == "started"
        assert len(subscription) == 1  # the connection's own thread
        recorder.gate.set()
        assert client.ping()
        assert client.run(PROBE.replace(seed=8))["job"]["state"] == "completed"
        assert client.wait(job_id)["job"]["state"] == "completed"
        assert client.submit(PROBE)["status"] == "cached"  # the record was stored
        (thread,) = subscription
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_submits_do_not_wait_behind_subscribers(self, served, recorder):
        """34 connections follow a gated job (more than the 32 threads an
        asyncio default executor tops out at); submit round trips stay fast."""
        client, _ = served
        recorder.gate.clear()
        job_id = client.submit(PROBE)["job_id"]
        assert recorder.started.wait(10)
        following = threading.Semaphore(0)

        def follow():
            events = client.subscribe(job_id)
            next(events)  # the replayed "started" event
            following.release()
            for _ in events:
                pass

        threads = [threading.Thread(target=follow, daemon=True) for _ in range(34)]
        try:
            for thread in threads:
                thread.start()
            for _ in threads:
                assert following.acquire(timeout=30)
            for seed in range(10):
                sent = time.perf_counter()
                assert client.submit(PROBE.replace(seed=100 + seed))["status"] == "queued"
                assert time.perf_counter() - sent < 0.2
        finally:
            recorder.gate.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)


# --------------------------------------------------------------------- #
# Malformed requests: one error line each, on a connection that stays usable
# --------------------------------------------------------------------- #
def _exchange(target, line):
    """Send one raw request line, then a ping, on one connection; returns
    the first answer line decoded and whether the next one is the pong."""
    with socket.create_connection(target, timeout=5) as sock:
        with sock.makefile("rb") as reader:
            sock.sendall(line)
            answer = decode_line(reader.readline())
            sock.sendall(encode_line({"op": "ping"}))
            pong = decode_line(reader.readline())
    return answer, pong == {"ok": True, "pong": True}


#: Requests whose handling once raised out of the connection thread: no
#: answer line, a traceback on the server's stderr, a dropped connection.
MALFORMED = {
    "priority-null": {"op": "submit", "spec": {"workload": "leftmove"}, "priority": None},
    "priority-list": {"op": "submit", "spec": {"workload": "leftmove"}, "priority": [1]},
    "spec-level-string": {"op": "submit", "spec": {"level": "x"}},
    "spec-n_clients-null": {"op": "submit", "spec": {"n_clients": None}},
    "spec-params-list": {"op": "submit", "spec": {"params": [1]}},
    "sweep-axes-number": {"op": "submit", "sweep": {"axes": 5}},
    "sweep-base-number": {"op": "submit", "sweep": {"base": 5}},
}


@pytest.mark.parametrize("malformed", list(MALFORMED.values()), ids=list(MALFORMED))
def test_a_malformed_request_gets_one_error_line(served, capsys, malformed):
    client, _ = served
    _, target = parse_address(client.address)
    answer, ponged = _exchange(target, encode_line(malformed))
    assert answer["ok"] is False and isinstance(answer["error"], str)
    assert ponged
    assert "Traceback" not in capsys.readouterr().err


_LEFTMOVE = {"workload": "leftmove", "level": 1}
_SIM_LEFTMOVE = {**_LEFTMOVE, "backend": "sim-cluster"}
#: Integer fields holding other values, each once accepted at submit: a
#: max_steps of 1.5 played two root moves under a key of its own, a float
#: level or n_clients failed only once the job ran, a float or boolean seed
#: ran, and repeats went through int() (1.5 became 1, "3" became 3).
NOT_INTEGERS = {
    "max_steps-float": ("spec", {**_LEFTMOVE, "max_steps": 1.5}, "max_steps"),
    "level-float": ("spec", {**_LEFTMOVE, "level": 1.0}, "level"),
    "level-bool": ("spec", {**_LEFTMOVE, "level": True}, "level"),
    "seed-float": ("spec", {**_LEFTMOVE, "seed": 1.5}, "seed"),
    "seed-bool": ("spec", {**_LEFTMOVE, "seed": True}, "seed"),
    "n_clients-float": ("spec", {**_SIM_LEFTMOVE, "n_clients": 2.5}, "n_clients"),
    "n_medians-float": ("spec", {**_SIM_LEFTMOVE, "n_medians": 8.0}, "n_medians"),
    "repeats-float": ("sweep", {"base": _LEFTMOVE, "repeats": 1.5}, "repeats"),
    "repeats-string": ("sweep", {"base": _LEFTMOVE, "repeats": "3"}, "repeats"),
    "axis-float": ("sweep", {"base": _LEFTMOVE, "axes": {"n_clients": [2, 2.5]}}, "n_clients"),
}
#: String and number fields holding other types, each once accepted at
#: submit: a number workload, algorithm, backend or cluster failed only once
#: the job ran, and a boolean frequency ran as 1 GHz or 1 unit per GHz-second.
NOT_THEIR_TYPE = {
    "workload-int": ({"workload": 5}, "workload must be a string"),
    "algorithm-int": ({**_LEFTMOVE, "algorithm": 3}, "algorithm must be a string"),
    "backend-int": ({**_LEFTMOVE, "backend": 2}, "backend must be a string"),
    "cluster-int": ({**_SIM_LEFTMOVE, "cluster": 5}, "cluster must be a string"),
    "freq_ghz-bool": ({**_LEFTMOVE, "freq_ghz": True}, "freq_ghz must be a number"),
    "units_per_ghz-bool": ({**_LEFTMOVE, "units_per_ghz": True}, "units_per_ghz must be a number"),
    # The request decoder takes JSON's NaN and Infinity; a NaN frequency ran
    # and reported NaN simulated seconds, an infinite rate 0.0.
    "freq_ghz-nan": ({**_LEFTMOVE, "freq_ghz": float("nan")}, "freq_ghz must be finite"),
    "freq_ghz-inf": ({**_LEFTMOVE, "freq_ghz": float("inf")}, "freq_ghz must be finite"),
    "units_per_ghz-nan": (
        {**_LEFTMOVE, "units_per_ghz": float("nan")}, "units_per_ghz must be finite"
    ),
    "units_per_ghz-inf": (
        {**_LEFTMOVE, "units_per_ghz": float("inf")}, "units_per_ghz must be finite"
    ),
}


@pytest.mark.parametrize(
    "kind, document, field", list(NOT_INTEGERS.values()), ids=list(NOT_INTEGERS)
)
def test_an_integer_field_takes_only_integers(served, kind, document, field):
    client, service = served
    _, target = parse_address(client.address)
    answer, ponged = _exchange(target, encode_line({"op": "submit", kind: document}))
    assert answer["ok"] is False and ponged
    assert f"{field} must be an integer" in answer["error"]
    assert service.service_stats()["submitted"] == 0


@pytest.mark.parametrize(
    "document, message", list(NOT_THEIR_TYPE.values()), ids=list(NOT_THEIR_TYPE)
)
def test_a_string_or_number_field_takes_only_its_type(served, document, message):
    client, service = served
    _, target = parse_address(client.address)
    answer, ponged = _exchange(target, encode_line({"op": "submit", "spec": document}))
    assert answer["ok"] is False and ponged
    assert message in answer["error"]
    assert service.service_stats()["submitted"] == 0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (
        st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3)
    ),
    max_leaves=6,
)
_SPEC_FIELDS = st.sampled_from(sorted(SearchSpec.__dataclass_fields__))
#: Documents with real SearchSpec field names and arbitrary values.
_SPEC_DOCS = st.dictionaries(_SPEC_FIELDS, _JSON, min_size=1, max_size=3)
#: Sweep axes over real field names, with arbitrary values.
_AXES = st.dictionaries(_SPEC_FIELDS, st.lists(_JSON, min_size=1, max_size=3), max_size=2)
_FIELD_VALUES = {
    "spec": _SPEC_DOCS | _JSON,
    "sweep": st.fixed_dictionaries(
        {},
        optional={
            "base": _SPEC_DOCS | _JSON, "axes": _AXES | _JSON, "name": _JSON, "repeats": _JSON,
        },
    ) | _JSON,
    # No real job id: subscribing to a queued job would wait for it forever.
    "job_id": _JSON.filter(lambda v: not (isinstance(v, str) and v.startswith("job-"))),
    # A well-formed shutdown would stop the server under test.
    "drain": _JSON.filter(lambda v: not isinstance(v, bool)),
}


def _request(op, *required):
    """Requests of verb ``op``: the ``required`` fields and any subset of
    the others, each holding arbitrary JSON or, for ``spec`` and ``sweep``,
    a document with real keys."""
    fields = {name: _FIELD_VALUES.get(name, _JSON) for name in REQUESTS[op]}
    return st.fixed_dictionaries(
        {"op": st.just(op), **{name: fields.pop(name) for name in required}},
        optional=fields,
    )


_REQUESTS = st.one_of(
    _request("submit", "spec"),
    _request("submit", "sweep"),
    _request("shutdown", "drain"),
    *(_request(op) for op in REQUESTS if op != "shutdown"),
)
_LINES = (
    _REQUESTS.map(encode_line)
    | _REQUESTS.map(lambda request: encode_line({**request, "unknown_field": 0}))
    | st.fixed_dictionaries({"op": _JSON}).map(encode_line)
    | st.text(max_size=12).map(lambda text: text.encode("utf-8") + b"\n")
    | st.binary(max_size=12).map(lambda data: data + b"\n")
).filter(lambda line: line.count(b"\n") == 1 and line.strip())


def test_every_request_line_gets_exactly_one_answer(recorder, capsys):
    """Arbitrary JSON in every field of every verb, junk text and bytes that
    are not UTF-8: each line is answered once, on a connection that then
    answers a ping, and nothing raises in the server.  The one worker is
    parked on a gated job, so no submission runs a search."""
    recorder.gate.clear()
    service = SearchService(config=ServiceConfig(n_workers=1))
    server = ServiceServer(service, port=0)
    _, target = parse_address(server.start())
    try:
        service.submit(PROBE)
        assert recorder.started.wait(10)

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(line=_LINES)
        def exchange(line):
            answer, ponged = _exchange(target, line)
            assert isinstance(answer["ok"], bool) and ponged

        exchange()
        assert service.service_stats()["searches_started"] == 1
    finally:
        for job in service.jobs():
            service.cancel(job["id"])
        recorder.gate.set()
        service.shutdown(drain=False, timeout=5)
        server.stop()
    assert "Traceback" not in capsys.readouterr().err
