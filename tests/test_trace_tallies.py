"""Trace tallies: queries read running counts that equal a scan of the records.

:class:`Trace` counts message payload types, and keeps the latest receive
time, as ``record_message`` sees them.  A copy whose record lists were filled
by hand has no tallies and answers every query by scanning, so comparing the
two pins "tally == scan" exactly.  A trace that keeps no message log (what a
``sim-cluster`` cell records) must answer what a recording trace answers,
and refuse the queries only a log can answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commpattern import analyze_communications
from repro.api import Engine, SearchSpec, build_cluster, parallel_config
from repro.cluster.trace import Trace
from repro.parallel.driver import run_parallel_nmcs
from repro.workloads import get_workload

PIDS = ("client-000", "client-001", "client-012", "median-000", "root", "dispatcher", "clientele")
PREFIXES = ("", "client", "client-0", "client-01", "cli", "median", "root", "r", "d", "x", "c")
#: Quarter instants collide often (ties in the overlap sweep and the
#: makespan); free ones do not.
TIMES = st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(lambda t: round(t * 4) / 4)
ANY_TIMES = st.one_of(TIMES, st.floats(min_value=0.0, max_value=8.0, allow_nan=False))


def scanned(trace: Trace) -> Trace:
    """The same records in a hand-built trace, which answers by scanning."""
    return Trace(messages=list(trace.messages), computes=list(trace.computes))


def recorded_run(spec: SearchSpec):
    """``spec``'s run with the config and cluster the backend builds, into a recording trace."""
    workload = get_workload(spec.workload)
    config = parallel_config(spec, workload.low_level)
    return run_parallel_nmcs(workload.state(), config, build_cluster(spec), trace=Trace())


def answers(trace: Trace) -> dict:
    out = {"payload_counts": list(trace.payload_counts().items()), "makespan": trace.makespan()}
    for prefix in PREFIXES:
        out[prefix] = (
            trace.total_work(prefix),
            trace.busy_time(prefix),
            trace.mean_concurrency(prefix),
            trace.max_concurrency(prefix),
        )
    return out


RECORDS = st.lists(
    st.one_of(
        st.tuples(
            st.just("message"),
            st.sampled_from(PIDS),
            st.sampled_from(PIDS),
            st.sampled_from((None, 1, "text", (1, 2), 2.5)),
            TIMES,
            TIMES,
        ),
        st.tuples(
            st.just("compute"),
            st.sampled_from(PIDS),
            ANY_TIMES,
            ANY_TIMES,
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
    ),
    max_size=60,
)


def record_all(trace: Trace, records) -> None:
    for record in records:
        if record[0] == "message":
            _, source, dest, payload, sent, delay = record
            trace.record_message(source, dest, 1, payload, 64.0, sent, sent + delay)
        else:
            _, pid, start, duration, work = record
            trace.record_compute(pid, "node", start, start + duration, work)


@settings(max_examples=200, deadline=None)
@given(records=RECORDS)
def test_tallies_equal_the_scan(records):
    trace = Trace()
    record_all(trace, records)
    assert answers(trace) == answers(scanned(trace))


@settings(max_examples=50, deadline=None)
@given(first=RECORDS, then=RECORDS)
def test_hand_built_traces_keep_scanning(first, then):
    recorded = Trace()
    record_all(recorded, first)
    # Records filled in by hand, then more through record_*: no tally covers
    # the lists, so every query must still be answered exactly.
    mixed = scanned(recorded)
    record_all(mixed, then)
    record_all(recorded, then)
    assert answers(mixed) == answers(scanned(recorded))
    mixed.clear()
    record_all(mixed, then)
    assert answers(mixed) == answers(scanned(mixed))


def test_messages_removed_by_hand_are_not_counted():
    trace = Trace()
    trace.record_message("root", "median-000", 1, "job", 64.0, 0.0, 5.0)
    trace.record_compute("client-000", "node", 0.0, 2.0, 1.0)
    trace.messages.clear()
    assert trace.payload_counts() == {}
    assert trace.makespan() == 2.0


@settings(max_examples=200, deadline=None)
@given(records=RECORDS)
def test_a_trace_without_a_log_answers_from_its_tallies(records):
    recording, tallied = Trace(), Trace(log_messages=False)
    record_all(recording, records)
    record_all(tallied, records)
    assert answers(tallied) == answers(recording)
    assert analyze_communications(tallied) == analyze_communications(recording)
    for query in (
        lambda trace: trace.messages,
        lambda trace: trace.messages_between("", ""),
        lambda trace: trace.messages_by_type("int"),
        Trace.communication_edges,
    ):
        with pytest.raises(ValueError, match="no message log"):
            query(tallied)


def test_simulated_run_summary_equals_the_scan():
    run = recorded_run(SearchSpec(
        workload="leftmove", backend="sim-cluster", dispatcher="lm", n_clients=8, n_medians=4,
    ))
    trace = run.trace
    assert trace.messages
    assert answers(trace) == answers(scanned(trace))
    assert analyze_communications(trace) == analyze_communications(scanned(trace))
    assert run.n_jobs == len(trace.computes_by_process("client"))
    assert run.total_client_work == sum(c.work for c in trace.computes_by_process("client"))


def _without_wall_time(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if not k.startswith("wall_seconds")}


@pytest.mark.parametrize("dispatcher", ["rr", "lm"])
def test_an_engine_cell_keeps_no_log_and_reports_what_a_recorded_run_does(dispatcher):
    spec = SearchSpec(
        workload="leftmove", backend="sim-cluster", dispatcher=dispatcher, n_clients=8, n_medians=4,
    )
    report = Engine().run(spec)
    with pytest.raises(ValueError, match="no message log"):
        report.raw.trace.messages
    run = recorded_run(spec)
    assert report.comm == analyze_communications(scanned(run.trace)).counts
    assert report.n_jobs == run.n_jobs
    assert report.work_units == run.total_client_work
    assert report.simulated_seconds == run.simulated_seconds
    assert report.client_utilisation == run.client_utilisation()
    assert _without_wall_time(report.kernel_stats) == _without_wall_time(run.kernel_stats.to_dict())
