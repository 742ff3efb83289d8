"""Tables I–VI and Figures 1–5 of the paper, with every fidelity claim checked.

Runs ``repro paper`` (:func:`repro.paper.run_paper`) on the benchmark
workload at both of its levels.  Each session writes into a fresh directory,
so the timing measures execution, not store hits.  ``paper.md`` — the
reproduced and published numbers side by side — is kept under
``benchmarks/results/``.  Every claim must hold, and none may read n/a.
"""

from __future__ import annotations

import shutil

import pytest

from conftest import BENCH_WORKLOAD_NAME, MASTER_SEED
from repro.paper import run_paper


@pytest.mark.benchmark(group="paper")
def test_paper_tables_and_figures(benchmark, tmp_path, results_dir):
    run = benchmark.pedantic(
        lambda: run_paper(tmp_path, workload=BENCH_WORKLOAD_NAME, seed=MASTER_SEED),
        rounds=1,
        iterations=1,
    )
    shutil.copy(tmp_path / "paper.md", results_dir / "paper.md")
    benchmark.extra_info["claims"] = len(run.claims)
    assert [claim for claim in run.claims if claim.holds is not True] == []
