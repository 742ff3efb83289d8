"""Shared fixtures for the benchmark harness.

The cluster-scale benchmarks share one :class:`CachingJobExecutor` and one
calibrated cost model, so that every search job of the common workload is
executed once per benchmark session however many benchmarks ask for it.

Environment knobs
-----------------
``REPRO_BENCH_WORKLOAD``  (default ``morpion-small``)
    Which named workload the cluster benchmarks run on.
``REPRO_BENCH_SEED``  (default ``0``)
    The master seed of every benchmark search.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.paper import calibrated_cost_model
from repro.parallel.jobs import CachingJobExecutor
from repro.workloads import get_workload

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper columns: the scaled workload's low/high levels stand in for levels 3/4.
BENCH_WORKLOAD_NAME = os.environ.get("REPRO_BENCH_WORKLOAD", "morpion-small")
MASTER_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture(scope="session")
def bench_workload():
    """The workload every cluster-scale benchmark runs on."""
    return get_workload(BENCH_WORKLOAD_NAME)


@pytest.fixture(scope="session")
def bench_executor():
    """One shared job cache for the whole benchmark session."""
    return CachingJobExecutor()


@pytest.fixture(scope="session")
def bench_cost_model(bench_workload):
    """Cost model calibrated so the workload sits on the paper's timescale."""
    return calibrated_cost_model(bench_workload, master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a benchmark's rendered output under ``benchmarks/results/``.

    The paper's own tables and figures are in the ``paper.md`` that
    ``repro paper`` writes; ``bench_paper.py`` copies it here.
    """
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
