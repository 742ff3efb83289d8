"""Command-line interface: ``python -m repro <command> ...``.

The CLI exposes the unified scenario runner (``repro run``) built on
:mod:`repro.api`, declarative sweeps (``repro sweep``), the job service,
the rollout profiler, and ``repro paper``, which regenerates every table and
figure of the paper (:mod:`repro.paper`).

Examples
--------
List the registered algorithms, backends and workloads (descriptions,
declared params)::

    python -m repro list

Run any algorithm × backend combination from one declarative spec::

    python -m repro run --workload morpion-small --backend sim-cluster \
        --dispatcher lm --clients 8 --first-move --json

    python -m repro run --spec my_scenario.json

Run a declarative sweep grid against a durable, resumable result store
(re-running skips completed cells; an interrupted sweep resumes)::

    python -m repro sweep --spec sweep.json --store results/store

Regenerate Tables I–VI and Figures 1–5 into ``results/paper`` (CSVs, a
``paper.md`` with the published numbers beside ours, and a fidelity check;
re-running executes no table cell)::

    python -m repro paper --out results/paper

Run a sequential NMCS on the scaled Morpion board and draw the final grid::

    python -m repro run --workload morpion-bench --level 2 --seed 3 --render

Commands accept ``--json`` to emit a machine-readable payload instead of
rendered text, so pipelines never scrape tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import Table, pivot_table
from repro.analysis.timefmt import format_hms
from repro.api import (
    ALGORITHMS,
    BACKENDS,
    Engine,
    SearchSpec,
    to_jsonable,
)
from repro.lab import (
    ROW_FIELDS,
    ResultStore,
    SweepSpec,
    rows_from_reports,
    write_csv,
    write_json,
)
from repro.games.base import play_sequence
from repro.games.morpion.render import render_state
from repro.games.morpion.state import MorpionState
from repro.workloads import get_workload, list_workloads

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Parallel Nested Monte-Carlo Search' (Cazenave & Jouandeau, 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit the raw payload as JSON")

    # Scenario flags use SUPPRESS defaults so that "explicitly passed" can be
    # told apart from "omitted": with --spec, only passed flags override the
    # document; without it, omitted flags fall back to SearchSpec's defaults.
    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        omit = argparse.SUPPRESS
        p.add_argument("--spec", default=None, help="path to a SearchSpec JSON file, or an inline JSON object")
        p.add_argument("--workload", default=omit, help="named workload (see 'list')")
        p.add_argument("--algorithm", default=omit, help="registered algorithm (see 'list')")
        p.add_argument("--backend", default=omit, help="registered backend (see 'list')")
        p.add_argument("--level", type=int, default=omit, help="nesting level (default: workload low level)")
        p.add_argument("--seed", type=int, default=omit, help="master random seed")
        p.add_argument("--steps", type=int, default=omit, help="max root moves (omit to play the full game)")
        p.add_argument("--first-move", action="store_true", default=omit, help="shorthand for --steps 1")
        p.add_argument("--dispatcher", default=omit, help="rr or lm (sim-cluster backend)")
        p.add_argument("--cluster", default=omit, help="cluster descriptor (sim-cluster backend)")
        p.add_argument("--clients", type=int, default=omit, help="simulated clients (sim-cluster backend)")
        p.add_argument("--medians", type=int, default=omit, help="median processes (sim-cluster backend)")
        p.add_argument(
            "--param",
            action="append",
            default=omit,
            metavar="KEY=VALUE",
            help="algorithm-specific parameter (repeatable); values are parsed as JSON when possible",
        )

    p = sub.add_parser("run", help="run one algorithm × workload × backend scenario (repro.api)")
    add_scenario_flags(p)
    p.add_argument(
        "--render", action="store_true", help="draw the final grid (Morpion workloads, not with --json)"
    )
    add_json(p)

    p = sub.add_parser(
        "sweep", help="run a declarative SweepSpec grid with a durable, resumable store (repro.lab)"
    )
    p.add_argument(
        "--spec", required=True, help="path to a SweepSpec JSON file, or an inline JSON object"
    )
    p.add_argument(
        "--store",
        default=None,
        help="ResultStore directory: completed cells are skipped on re-runs (resume for free)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already in the store (the default whenever --store is given)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-execute every cell, overwriting existing store entries",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="run cells on a persistent pool of N worker processes (GIL-free; "
        "default: one at a time in this process)",
    )
    p.add_argument(
        "--error-policy",
        choices=("raise", "skip"),
        default="raise",
        help="stop on the first failing cell (raise) or keep sweeping (skip)",
    )
    p.add_argument("--csv", default=None, help="write the result rows as CSV to this path")
    p.add_argument("--rows", default=None, help="write the result rows as a JSON array to this path")
    add_json(p)

    p = sub.add_parser(
        "serve", help="run the search-as-a-service job server (repro.service)"
    )
    p.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p.add_argument("--port", type=int, default=7171, help="TCP bind port (0 = ephemeral)")
    p.add_argument("--socket", default=None, help="serve on this unix socket path instead of TCP")
    p.add_argument("--workers", type=int, default=2, help="persistent worker threads")
    p.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="execute each job's cells on a pool of N worker processes (GIL-free)",
    )
    p.add_argument("--queue-depth", type=int, default=64, help="max pending jobs before backpressure rejections")
    p.add_argument("--store", default=None, help="ResultStore directory for dedup/cache (strongly recommended)")
    p.add_argument(
        "--ready-file",
        default=None,
        help="write the bound address to this file once listening (for scripts/CI)",
    )
    add_json(p)

    p = sub.add_parser(
        "submit", help="submit one scenario (or a sweep) to a running 'repro serve'"
    )
    p.add_argument("--connect", required=True, help="server address: HOST:PORT or unix:PATH")
    add_scenario_flags(p)
    p.add_argument("--sweep", default=None, help="SweepSpec JSON file or inline document (instead of a SearchSpec)")
    p.add_argument("--client", default="cli", help="client label recorded on the job")
    p.add_argument("--no-wait", action="store_true", help="print the submission ack and exit without subscribing")
    add_json(p)

    p = sub.add_parser("jobs", help="list, cancel, or shut down jobs on a running 'repro serve'")
    p.add_argument("--connect", required=True, help="server address: HOST:PORT or unix:PATH")
    p.add_argument("--cancel", default=None, metavar="JOB_ID", help="cancel this job instead of listing")
    p.add_argument("--shutdown", action="store_true", help="drain the server and stop it")
    p.add_argument("--no-drain", action="store_true", help="with --shutdown: cancel pending jobs instead of draining")
    add_json(p)

    p = sub.add_parser("stats", help="live telemetry of a running 'repro serve' (metrics verb)")
    p.add_argument("--connect", required=True, help="server address: HOST:PORT or unix:PATH")
    p.add_argument(
        "--prometheus",
        action="store_true",
        help="print Prometheus text exposition format instead of the summary",
    )
    add_json(p)

    p = sub.add_parser(
        "profile", help="profile the rollout hot path: seeded playouts under spans + cProfile"
    )
    p.add_argument(
        "games",
        nargs="*",
        default=[],
        help="workloads to profile (default: the curated six-game roster)",
    )
    p.add_argument("--playouts", type=int, default=200, help="playouts per game")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--top", type=int, default=8, help="hotspot functions reported per game")
    p.add_argument(
        "--no-cprofile", action="store_true", help="skip the cProfile pass (spans only; faster)"
    )
    p.add_argument(
        "--out",
        default="benchmarks/results/BENCH_rollout_hotpath.json",
        help="JSON-array trajectory file to append the document to ('' = don't write)",
    )
    add_json(p)

    p = sub.add_parser("list", help="list registered algorithms, backends and workloads")
    add_json(p)

    p = sub.add_parser(
        "paper", help="regenerate Tables I-VI and Figures 1-5 into DIR and check them against the paper"
    )
    p.add_argument("--out", required=True, metavar="DIR", help="output directory (raw/ store, CSVs, paper.md)")
    p.add_argument("--workload", default="morpion-small", help="named workload (see 'list')")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    add_json(p)
    p.add_argument(
        "--levels",
        type=int,
        nargs="+",
        default=None,
        help="nesting levels, each >= 2 (default: the workload's low and high level)",
    )

    return parser


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _print_error(text: str) -> None:
    """Diagnostics go to stderr so ``--json`` pipelines never parse them."""
    sys.stderr.write(text + "\n")


def _print_json(payload: Any) -> None:
    _print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True))


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--param key=value`` flags (values as JSON when possible)."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"bad --param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


#: run-flag name -> SearchSpec field name (flags that map one-to-one).
_RUN_FLAG_FIELDS = {
    "workload": "workload",
    "algorithm": "algorithm",
    "backend": "backend",
    "level": "level",
    "seed": "seed",
    "dispatcher": "dispatcher",
    "cluster": "cluster",
    "clients": "n_clients",
    "medians": "n_medians",
}


def _spec_from_args(args: argparse.Namespace) -> SearchSpec:
    """Build the :class:`SearchSpec` of a ``repro run`` invocation.

    Scenario flags use ``argparse.SUPPRESS`` defaults, so exactly the flags
    the user typed are present on ``args``.  With ``--spec``, those flags
    override the corresponding fields of the loaded document (e.g.
    ``repro run --spec scenario.json --seed 5`` sweeps seeds over a saved
    scenario); without it they fill a fresh spec.
    """
    passed = vars(args)
    overrides: Dict[str, Any] = {
        field: passed[flag] for flag, field in _RUN_FLAG_FIELDS.items() if flag in passed
    }
    if passed.get("first_move"):
        overrides["max_steps"] = 1
    elif "steps" in passed:
        overrides["max_steps"] = passed["steps"]
    if args.spec is not None:
        text = args.spec
        if not text.lstrip().startswith("{"):
            text = Path(args.spec).read_text(encoding="utf-8")
        spec = SearchSpec.from_json(text)
        if "param" in passed:
            overrides["params"] = {**spec.params, **_parse_params(passed["param"])}
        return spec.replace(**overrides) if overrides else spec
    if "param" in passed:
        overrides["params"] = _parse_params(passed["param"])
    return SearchSpec(**overrides)


def _cell_label(coords: "dict[str, Any]") -> str:
    """Human-readable grid coordinates of one sweep cell."""
    return " ".join(f"{axis}={value}" for axis, value in coords.items()) or "(base)"


def _render_sweep(sweep: SweepSpec, labelled_rows: List[tuple]) -> str:
    """Render sweep rows: paper-style pivot for 2-axis grids, a listing otherwise."""
    axes = list(sweep.axes)
    rows = [row for _, row in labelled_rows]
    if (
        len(axes) == 2
        and sweep.repeats == 1
        and all(axis in ROW_FIELDS for axis in axes)
        and all(row.get("simulated_seconds") is not None for row in rows)
    ):
        return pivot_table(
            rows,
            title=f"Sweep {sweep.name!r} — simulated time by {axes[0]} × {axes[1]}",
            index=axes[0],
            column=axes[1],
            value="simulated_seconds",
            fmt=format_hms,
            column_fmt=lambda value: f"{axes[1]} {value}",
        ).render()
    table = Table(
        title=f"Sweep {sweep.name!r} — {len(rows)} result(s)",
        columns=["score", "simulated", "wall"],
        row_label="cell",
    )
    for label, row in labelled_rows:
        table.add_row(
            label,
            score=f"{row['score']:g}",
            simulated=(
                format_hms(row["simulated_seconds"])
                if row.get("simulated_seconds") is not None
                else "—"
            ),
            wall=f"{row['wall_seconds']:.2f}s",
        )
    return table.render()


def _run_sweep_command(args: argparse.Namespace) -> int:
    """The ``repro sweep`` command: execute a SweepSpec against a ResultStore."""
    if args.force and args.resume:
        _print_error("error: --force and --resume are mutually exclusive")
        return 2
    try:
        text = args.spec
        if not text.lstrip().startswith("{"):
            text = Path(args.spec).read_text(encoding="utf-8")
        sweep = SweepSpec.from_json(text)
    except (ValueError, KeyError, OSError) as exc:
        _print_error(f"error: {exc}")
        return 2
    store = ResultStore(args.store) if args.store else None
    if args.resume and store is None:
        _print_error("error: --resume needs --store (there is nothing to resume from)")
        return 2
    engine = Engine()
    counts = {"started": 0, "cached": 0, "completed": 0, "failed": 0}
    reports: Dict[int, Any] = {}
    labels = {cell.index: _cell_label(dict(cell.coords)) for cell in sweep.cells()}
    try:
        for event in engine.stream(
            sweep,
            store=store,
            error_policy=args.error_policy,
            max_workers=args.processes,
            executor="inline" if args.processes is None else "process",
            refresh=args.force,
        ):
            counts[event.kind] += 1
            if event.report is not None:
                reports[event.index] = event.report
            # Progress goes to stderr so --json pipelines only ever see the payload.
            if event.kind == "started":
                _print_error(f"[{event.done + 1}/{event.total}] running   {labels[event.index]}")
            elif event.kind == "failed":
                _print_error(
                    f"[{event.done}/{event.total}] FAILED    {labels[event.index]}: {event.error}"
                )
            else:
                suffix = " (cached)" if event.kind == "cached" else ""
                _print_error(
                    f"[{event.done}/{event.total}] done      {labels[event.index]} "
                    f"score={event.report.score:g}{suffix}"
                )
    except KeyboardInterrupt:
        done = counts["cached"] + counts["completed"]
        if store is not None:
            _print_error(
                f"interrupted after {done}/{len(sweep)} cells; re-run the same command "
                f"to resume from {args.store}"
            )
        else:
            _print_error(
                f"interrupted after {done}/{len(sweep)} cells; pass --store to make "
                "sweeps resumable"
            )
        return 130
    except (ValueError, KeyError, OSError) as exc:
        _print_error(f"error: {exc}")
        return 2
    ordered = [reports[index] for index in sorted(reports)]
    rows = rows_from_reports(ordered, store=store)
    labelled_rows = list(zip((labels[index] for index in sorted(reports)), rows))
    if args.csv:
        write_csv(rows, args.csv)
        _print_error(f"wrote {len(rows)} row(s) to {args.csv}")
    if args.rows:
        write_json(rows, args.rows)
        _print_error(f"wrote {len(rows)} row(s) to {args.rows}")
    if args.json:
        _print_json(
            {
                "name": sweep.name,
                "cells": len(sweep),
                "executed": counts["completed"],
                "cached": counts["cached"],
                "failed": counts["failed"],
                "store": args.store,
                "rows": rows,
            }
        )
    else:
        _print(_render_sweep(sweep, labelled_rows))
        _print(
            f"\ncells: {len(sweep)}  executed: {counts['completed']}  "
            f"cached: {counts['cached']}  failed: {counts['failed']}"
        )
    return 1 if counts["failed"] else 0


def _paper_command(args: argparse.Namespace) -> int:
    """The ``repro paper`` command: exit 0 when every evaluated claim holds, 1 when one fails."""
    from repro.paper import run_paper

    try:
        run = run_paper(args.out, workload=args.workload, levels=args.levels, seed=args.seed)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        _print_error(f"error: {message}")
        return 2
    if args.json:
        _print_json(
            {
                "levels": run.levels,
                "claims": [claim._asdict() for claim in run.claims],
                "paths": [str(path) for path in run.paths],
            }
        )
    else:
        _print(run.paths[-1].read_text(encoding="utf-8").rstrip("\n"))
    return 1 if any(claim.holds is False for claim in run.claims) else 0


def _serve_command(args: argparse.Namespace) -> int:
    """The ``repro serve`` command: run the job server until shut down."""
    from repro import obs
    from repro.service import SearchService, ServiceConfig, ServiceServer

    # A server always records telemetry: the metrics verb and `repro stats`
    # are only useful when the counters actually move.
    obs.enable()
    try:
        config = ServiceConfig(
            n_workers=args.workers,
            queue_depth=args.queue_depth,
            cell_processes=args.processes,
        )
    except ValueError as exc:
        _print_error(f"error: {exc}")
        return 2
    store = ResultStore(args.store) if args.store else None
    service = SearchService(engine=Engine(), store=store, config=config)
    server = ServiceServer(
        service, host=args.host, port=args.port, socket_path=args.socket
    )
    try:
        address = server.start()
    except OSError as exc:
        _print_error(f"error: cannot bind {args.socket or f'{args.host}:{args.port}'}: {exc}")
        return 2
    if args.ready_file:
        Path(args.ready_file).write_text(address, encoding="utf-8")
    if args.json:
        _print_json({"address": address, "store": args.store, "workers": args.workers})
        sys.stdout.flush()
    processes = f", processes={args.processes}" if args.processes is not None else ""
    _print_error(
        f"repro service listening on {address} "
        f"(workers={args.workers}{processes}, queue_depth={args.queue_depth}, "
        f"store={args.store or 'none'}); submit with: repro submit --connect {address} ..."
    )
    try:
        server.wait()  # returns when a client sends the shutdown verb
    except KeyboardInterrupt:
        _print_error("interrupted; cancelling pending jobs and shutting down")
        service.shutdown(drain=False)
        server.stop()
    return 0


def _submit_command(args: argparse.Namespace) -> int:
    """The ``repro submit`` command: submit to a server and stream progress."""
    from repro.service import ServiceClient, ServiceError

    try:
        if args.sweep is not None:
            text = args.sweep
            if not text.lstrip().startswith("{"):
                text = Path(args.sweep).read_text(encoding="utf-8")
            payload: Dict[str, Any] = {"sweep": SweepSpec.from_json(text).to_dict()}
        else:
            payload = {"spec": _spec_from_args(args).to_dict()}
        client = ServiceClient(args.connect, client=args.client)
        ack = client.submit(payload.get("spec"), sweep=payload.get("sweep"))
    except (ServiceError, ValueError, KeyError, OSError) as exc:
        _print_error(f"error: {exc}")
        return 2
    if ack["status"] == "rejected":
        if args.json:
            _print_json({"submit": ack, "job": None, "counts": None, "reports": []})
        _print_error(f"rejected: {ack.get('reason')} (server {args.connect})")
        return 1
    if args.no_wait:
        if args.json:
            _print_json({"submit": ack})
        else:
            _print(f"job {ack['job_id']} {ack['status']} on {args.connect}")
        return 0

    def progress(event: Dict[str, Any]) -> None:
        label = f"{event['spec'].get('workload')} seed={event['spec'].get('seed')}"
        if event["kind"] == "started":
            _print_error(f"[{event['done'] + 1}/{event['total']}] running   {label}")
        elif event["kind"] == "failed":
            _print_error(f"[{event['done']}/{event['total']}] FAILED    {label}: {event['error']}")
        else:
            suffix = " (cached)" if event["kind"] == "cached" else ""
            score = event["report"]["score"] if event.get("report") else "?"
            _print_error(f"[{event['done']}/{event['total']}] done      {label} score={score}{suffix}")

    try:
        outcome = client.wait(ack["job_id"], on_event=progress)
    except (ServiceError, OSError) as exc:
        _print_error(f"error: {exc}")
        return 2
    outcome["submit"] = ack
    if len(outcome["reports"]) == 1:
        outcome["report"] = outcome["reports"][0]
    if args.json:
        _print_json(outcome)
    else:
        job = outcome["job"]
        _print(
            f"job {job['id']} {job['state']} (submitted as {ack['status']}): "
            f"{job['cells']['done']}/{job['cells']['total']} cells, "
            f"{job['cells']['cached']} cached, {job['cells']['failed']} failed"
        )
        for report in outcome["reports"]:
            _print(f"  score={report['score']:g} workload={report['spec']['workload']}")
        if job["error"]:
            _print(f"  error: {job['error']}")
    return 0 if outcome["job"]["state"] == "completed" else 1


def _jobs_command(args: argparse.Namespace) -> int:
    """The ``repro jobs`` command: list/cancel jobs or stop the server."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.connect)
    try:
        if args.cancel:
            payload: Dict[str, Any] = {"job": client.cancel(args.cancel)}
            message = f"job {args.cancel} -> {payload['job']['state']}"
        elif args.shutdown:
            payload = client.shutdown(drain=not args.no_drain)
            message = "server shutting down" + (" (draining)" if not args.no_drain else "")
        else:
            payload = client.jobs()
            message = ""
    except (ServiceError, ValueError, OSError) as exc:
        _print_error(f"error: {exc}")
        return 2
    if args.json:
        _print_json(payload)
        return 0
    if message:
        _print(message)
        return 0
    jobs = payload["jobs"]
    if not jobs:
        _print("no jobs")
    for job in jobs:
        cells = job["cells"]
        _print(
            f"{job['id']:10s} {job['state']:10s} client={job['client']:12s} "
            f"{job['kind']:6s} {cells['done']}/{cells['total']} cells "
            f"({cells['cached']} cached, {cells['failed']} failed) "
            f"wait={job['queue_wait_seconds']:.2f}s wall={job['wall_seconds']:.2f}s"
        )
    stats = payload["stats"]
    _print(
        f"\nsubmitted: {stats['submitted']}  queued: {stats['queued']}  "
        f"cached: {stats['cached']}  attached: {stats['attached']}  "
        f"rejected: {stats['rejected_queue_full'] + stats['rejected_shutting_down']}"
    )
    return 0


def _metric_total(snapshot: Dict[str, Any], name: str, **labels: str) -> float:
    """Sum of a counter/gauge family across the label series that carry
    ``labels`` (all series by default; 0 if absent)."""
    family = snapshot.get(name)
    if not family:
        return 0.0
    return sum(
        entry["value"]
        for entry in family["values"]
        if labels.items() <= entry["labels"].items()
    )


def _histogram_totals(snapshot: Dict[str, Any], name: str) -> "tuple[float, float]":
    """``(count, sum)`` of a histogram family across all label series."""
    family = snapshot.get(name)
    if not family:
        return 0.0, 0.0
    count = sum(entry["count"] for entry in family["values"])
    total = sum(entry["sum"] for entry in family["values"])
    return count, total


def _render_stats(snapshot: Dict[str, Any], service: Dict[str, Any]) -> str:
    """Human summary of the server's telemetry (the ``repro stats`` output)."""
    hits = _metric_total(snapshot, "repro_store_hits_total")
    misses = _metric_total(snapshot, "repro_store_misses_total")
    lookups = hits + misses
    hit_rate = f" ({100.0 * hits / lookups:.0f}% hit rate)" if lookups else ""
    jobs_n, jobs_s = _histogram_totals(snapshot, "repro_service_job_seconds")
    wait_n, wait_s = _histogram_totals(snapshot, "repro_service_queue_wait_seconds")
    runs = _metric_total(snapshot, "repro_engine_runs_total")
    runs_n, runs_s = _histogram_totals(snapshot, "repro_engine_run_seconds")
    cells = snapshot.get("repro_engine_cells_total", {"values": []})
    cell_counts = {e["labels"]["kind"]: e["value"] for e in cells["values"]}
    lines = [
        f"store:   {hits:.0f} hits, {misses:.0f} misses, "
        f"{_metric_total(snapshot, 'repro_store_writes_total'):.0f} writes{hit_rate}",
        f"queue:   depth {_metric_total(snapshot, 'repro_service_queue_depth'):.0f}, "
        f"{_metric_total(snapshot, 'repro_service_submissions_total', status='queued'):.0f} queued",
        f"jobs:    {jobs_n:.0f} finished"
        + (f", mean {jobs_s / jobs_n:.2f}s submit-to-finish" if jobs_n else "")
        + (f", mean queue wait {wait_s / wait_n * 1e3:.1f}ms" if wait_n else ""),
        f"engine:  {runs:.0f} runs"
        + (f", mean {runs_s / runs_n:.2f}s" if runs_n else "")
        + "; cells "
        + ", ".join(
            f"{cell_counts.get(kind, 0.0):.0f} {kind}"
            for kind in ("started", "cached", "completed", "failed")
        ),
        "service: "
        + "  ".join(f"{key}={value}" for key, value in sorted(service.items())),
    ]
    if not lookups and not jobs_n and not runs:
        lines.append(
            "(all zero? the server records telemetry from startup; "
            "counters move once jobs run)"
        )
    return "\n".join(lines)


def _stats_command(args: argparse.Namespace) -> int:
    """The ``repro stats`` command: query a server's ``metrics`` verb."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.connect)
    try:
        if args.prometheus:
            sys.stdout.write(client.metrics(format="prometheus")["text"])
            return 0
        payload = client.metrics()
    except (ServiceError, ValueError, OSError) as exc:
        _print_error(f"error: {exc}")
        return 2
    if args.json:
        _print_json(payload)
        return 0
    _print(_render_stats(payload["metrics"], payload["service"]))
    return 0


def _profile_command(args: argparse.Namespace) -> int:
    """The ``repro profile`` command: per-game rollout cost table."""
    from repro.obs.profiler import (
        append_trajectory_entry,
        format_cost_table,
        profile_games,
    )

    try:
        document = profile_games(
            args.games or None,
            playouts=args.playouts,
            seed=args.seed,
            top=args.top,
            use_cprofile=not args.no_cprofile,
        )
        if args.out:
            history = append_trajectory_entry(Path(args.out), document)
            _print_error(f"appended entry {len(history)} to {args.out}")
    except (KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        _print_error(f"error: {message}")
        return 2
    if args.json:
        _print_json(document)
        return 0
    _print(format_cost_table(document))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "submit":
        return _submit_command(args)

    if args.command == "jobs":
        return _jobs_command(args)

    if args.command == "stats":
        return _stats_command(args)

    if args.command == "profile":
        return _profile_command(args)

    if args.command == "run":
        try:
            spec = _spec_from_args(args)
            start = get_workload(spec.workload).state() if args.render else None
            if args.render and (args.json or not isinstance(start, MorpionState)):
                raise ValueError(
                    "--render draws a Morpion grid: it needs a morpion workload and no --json"
                )
            report = Engine().run(spec)
        except (ValueError, KeyError, OSError) as exc:
            # KeyError's str() wraps the message in quotes; unwrap it.
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            _print_error(f"error: {message}")
            return 2
        if args.json:
            _print(report.to_json(indent=2))
            return 0
        _print(
            f"workload={spec.workload} algorithm={report.algorithm} "
            f"backend={report.backend} level={report.level} seed={spec.seed}"
        )
        _print(f"score: {report.score}")
        _print(f"moves: {report.sequence_length}")
        if report.work_units is not None:
            _print(f"work:  {report.work_units:.0f} move applications")
        if report.simulated_seconds is not None:
            _print(f"simulated time: {format_hms(report.simulated_seconds)}")
        _print(f"wall time: {report.wall_seconds:.2f}s")
        if report.n_jobs is not None:
            _print(f"jobs: {report.n_jobs}")
        if report.kernel_stats is not None:
            stats = report.kernel_stats
            ratio = stats.get("wall_seconds_per_simulated_second")
            _print(
                f"kernel: {stats['events_fired']} events fired, "
                f"{stats['events_cancelled']} cancelled, "
                f"peak queue {stats['peak_queue_size']}"
                + (f", {ratio:.2f} wall-s per simulated-s" if ratio is not None else "")
            )
        if args.render:
            _print(render_state(play_sequence(start, report.sequence)))
        return 0

    if args.command == "list":
        algorithms = {
            name: {
                "description": entry.description,
                "params": None if entry.params is None else sorted(entry.params),
                "supports_budget": entry.supports_budget,
            }
            for name, entry in sorted(ALGORITHMS.items())
        }
        backends = {
            name: {
                "description": entry.description,
                "algorithms": None if entry.algorithms is None else sorted(entry.algorithms),
                "params": None if entry.params is None else sorted(entry.params),
            }
            for name, entry in sorted(BACKENDS.items())
        }
        if args.json:
            _print_json(
                {"algorithms": algorithms, "backends": backends, "workloads": list_workloads()}
            )
            return 0
        _print("Algorithms:")
        for name, info in algorithms.items():
            params = "any" if info["params"] is None else ", ".join(info["params"]) or "none"
            _print(f"  {name:16s} {info['description']} [params: {params}]")
        _print("\nBackends:")
        for name, info in backends.items():
            runs = "all algorithms" if info["algorithms"] is None else ", ".join(info["algorithms"])
            extras = "" if not info["params"] else f"; params: {', '.join(info['params'])}"
            _print(f"  {name:16s} {info['description']} [runs: {runs}{extras}]")
        _print("\nWorkloads:")
        for name, description in list_workloads().items():
            _print(f"  {name:16s} {description}")
        return 0

    if args.command == "sweep":
        return _run_sweep_command(args)

    if args.command == "paper":
        return _paper_command(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
