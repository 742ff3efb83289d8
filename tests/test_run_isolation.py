"""An engine's result is a function of the spec and the engine's cost model.

An :class:`~repro.api.Engine` keeps state between runs (one job cache per
workload), and that state must never show in a result: a spec run after
other specs on one engine reports exactly what it reports on a fresh
engine, in either order and on the worker processes of
``executor="process"``.  Every report's sequence also replays, from the
workload's initial position, to the score the report claims.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, SearchSpec
from repro.games.base import play_sequence
from repro.workloads import get_workload

_SIM = {"backend": "sim-cluster", "n_clients": 4, "n_medians": 8}
BACKENDS = ({}, {**_SIM, "dispatcher": "rr"}, {**_SIM, "dispatcher": "lm"})

#: Consecutive specs share a seed across workloads, backends and budgets,
#: so each one runs right after the specs most likely to leave it a wrong
#: cache entry.  For time, morpion-small runs only its seed-0 first move,
#: sequentially and on Last-Minute.
SPECS = [
    SearchSpec(workload=workload, level=2, seed=seed, max_steps=max_steps, **backend)
    for seed in (0, 1)
    for max_steps in (1, None)
    for backend in BACKENDS
    for workload in ("leftmove", "morpion-small")
    if workload == "leftmove"
    or ((seed, max_steps) == (0, 1) and backend.get("dispatcher") != "rr")
]


def _result(report):
    return (
        report.score,
        report.to_dict()["sequence"],
        report.work_units,
        report.simulated_seconds,
        report.n_jobs,
    )


def _replays(report):
    state = get_workload(report.spec.workload).state()
    return play_sequence(state, report.to_dict()["sequence"]).score() == report.score


@pytest.fixture(scope="module")
def fresh():
    """Each spec's report on an engine of its own."""
    return {spec: _result(Engine().run(spec)) for spec in SPECS}


@pytest.fixture(scope="module")
def inline_batch():
    """The specs as one inline batch: each runs after all the ones before it."""
    return Engine().run_many(SPECS)


def test_a_spec_reports_the_same_after_other_specs(fresh, inline_batch):
    backwards = Engine().run_many(SPECS[::-1])[::-1]
    for spec, forward, backward in zip(SPECS, inline_batch, backwards):
        assert _result(forward) == _result(backward) == fresh[spec], spec
        assert _replays(forward), spec


def test_a_batch_on_worker_processes_matches_the_inline_batch(inline_batch):
    processes = Engine().run_many(SPECS, executor="process", max_workers=2)
    assert [_result(report) for report in processes] == [
        _result(report) for report in inline_batch
    ]
    assert all(_replays(report) for report in processes)
