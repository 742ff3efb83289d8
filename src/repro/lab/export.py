"""Flat-row export of sweep results (JSON / CSV) for analysis pipelines.

A *row* is one flat mapping of scalars per run — the spec's identifying
fields plus the report's measurements — so downstream tools (spreadsheets,
pandas, :func:`repro.analysis.tables.pivot_table`) consume sweep results
without ever scraping rendered tables.  Rows are produced either from live
:class:`~repro.api.RunReport`\\ s (:func:`rows_from_reports`) or straight
from a :class:`~repro.lab.store.ResultStore` (:func:`rows_from_store`).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.api import RunReport
from repro.lab.store import ResultStore, StoreRecord

__all__ = [
    "ROW_FIELDS",
    "row_from_report",
    "rows_from_reports",
    "rows_from_store",
    "write_csv",
    "write_json",
]

#: Column order of exported rows (CSV header order).
ROW_FIELDS = (
    "key",
    "workload",
    "algorithm",
    "backend",
    "level",
    "seed",
    "dispatcher",
    "cluster",
    "n_clients",
    "n_medians",
    "n_workers",
    "max_steps",
    "score",
    "sequence_length",
    "work_units",
    "simulated_seconds",
    "wall_seconds",
    "n_jobs",
    "client_utilisation",
)


def row_from_report(report: RunReport, *, key: Optional[str] = None) -> Dict[str, Any]:
    """Flatten one report (and its spec) into a scalar row."""
    spec = report.spec
    return {
        "key": key,
        "workload": spec.workload,
        "algorithm": report.algorithm,
        "backend": report.backend,
        "level": report.level,
        "seed": spec.seed,
        "dispatcher": spec.dispatcher,
        "cluster": spec.cluster,
        "n_clients": spec.n_clients,
        "n_medians": spec.n_medians,
        "n_workers": report.n_workers,
        "max_steps": spec.max_steps,
        "score": report.score,
        "sequence_length": report.sequence_length,
        "work_units": report.work_units,
        "simulated_seconds": report.simulated_seconds,
        "wall_seconds": report.wall_seconds,
        "n_jobs": report.n_jobs,
        "client_utilisation": report.client_utilisation,
    }


def rows_from_reports(
    reports: Iterable[RunReport], *, store: Optional[ResultStore] = None
) -> List[Dict[str, Any]]:
    """One row per report, in iteration order (keys filled when ``store`` given)."""
    return [
        row_from_report(report, key=store.key(report.spec) if store is not None else None)
        for report in reports
    ]


def _row_from_record(record: StoreRecord) -> Dict[str, Any]:
    report = ResultStore._report_from_record(record)
    return row_from_report(report, key=record.get("key"))


def rows_from_store(store: ResultStore) -> List[Dict[str, Any]]:
    """One row per record in the store, sorted by key (stable across runs)."""
    return sorted((_row_from_record(r) for r in store.records()), key=lambda row: row["key"])


def write_csv(rows: Iterable[Dict[str, Any]], path: Union[str, Path]) -> Path:
    """Write rows as CSV with the :data:`ROW_FIELDS` header; returns the path."""
    path = Path(path)
    rows = list(rows)
    extra = sorted({name for row in rows for name in row} - set(ROW_FIELDS))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(ROW_FIELDS) + extra)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_json(rows: Iterable[Dict[str, Any]], path: Union[str, Path]) -> Path:
    """Write rows as a JSON array; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(list(rows), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
