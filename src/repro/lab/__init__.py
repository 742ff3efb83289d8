"""``repro.lab`` — declarative sweeps with durable, resumable results.

PR 1 made single runs declarative (:class:`~repro.api.SearchSpec` +
:class:`~repro.api.Engine`); this package does the same for *sweeps*, which
is what every table of the paper actually is:

* :class:`~repro.lab.sweep.SweepSpec` — a frozen, JSON-round-trippable grid
  (base spec + axes) expanding deterministically into per-cell specs;
* :class:`~repro.lab.store.ResultStore` — a content-addressed on-disk store
  keyed by :func:`~repro.lab.keys.spec_key`, so re-runs skip completed cells
  and interrupted sweeps resume for free;
* :mod:`repro.lab.export` — flat JSON/CSV rows that
  :func:`repro.analysis.tables.pivot_table` renders directly;
* :mod:`repro.lab.procpool` — the library's one worker-process pool
  (:class:`~repro.lab.procpool.SweepWorkerPool`, shared process-wide through
  :func:`~repro.lab.procpool.shared_pool`) behind
  ``Engine.stream(executor="process")`` / ``repro sweep --processes``:
  task and result frames, chunk sizing, cancellation and remote cell
  errors, so CPU-bound grids scale past the GIL (see ``docs/SWEEPS.md``).

Execution lives on the engine: ``Engine.run_many(sweep, store=...)`` and the
streaming ``Engine.stream(...)`` event iterator run a grid's cells inline, in
cell order, or with ``executor="process"`` on the worker-process pool (see
:mod:`repro.api`).

>>> from repro import Engine, ResultStore, SearchSpec, SweepSpec
>>> sweep = SweepSpec(
...     base=SearchSpec(workload="morpion-small", backend="sim-cluster", max_steps=1),
...     axes={"n_clients": (1, 4)},
... )
>>> store = ResultStore("/tmp/repro-store")          # doctest: +SKIP
>>> reports = Engine().run_many(sweep, store=store)  # doctest: +SKIP
"""

from repro.lab.keys import CODE_VERSION, spec_key
from repro.lab.procpool import RemoteCellError, SweepWorkerPool, auto_chunk_size
from repro.lab.sweep import SweepCell, SweepSpec
from repro.lab.store import ResultStore, StoreRecord
from repro.lab.export import (
    ROW_FIELDS,
    row_from_report,
    rows_from_reports,
    rows_from_store,
    write_csv,
    write_json,
)

__all__ = [
    "CODE_VERSION",
    "spec_key",
    "SweepSpec",
    "SweepCell",
    "ResultStore",
    "StoreRecord",
    "SweepWorkerPool",
    "RemoteCellError",
    "auto_chunk_size",
    "ROW_FIELDS",
    "row_from_report",
    "rows_from_reports",
    "rows_from_store",
    "write_csv",
    "write_json",
]
