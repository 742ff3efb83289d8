"""The paper as data: Tables I–VI and Figures 1–5 from one command.

``repro paper --out DIR`` (:func:`run_paper`) regenerates the paper's
evidence in three stages:

1. **run** — :func:`paper_sweeps` describes each table as one
   :class:`~repro.lab.sweep.SweepSpec`; one :class:`~repro.api.Engine`,
   calibrated by :func:`calibrated_cost_model`, runs them into a
   :class:`~repro.lab.store.ResultStore` at ``DIR/raw/``, so a second run
   executes no table cell;
2. **export** — each table's rows go to ``DIR/<table>.csv``;
3. **render** — ``DIR/paper.md`` shows the reproduced and the published
   (:mod:`repro.paperdata`) numbers side by side, then the figures, then the
   outcome of :func:`check_fidelity`, which tests the paper's shape claims on
   the same rows.

The workload's two levels stand in for the paper's levels 3 and 4.
Durations are simulated through the calibrated cost model, so the claims
compare speedups and orderings, never absolute seconds.  Figures 2–5 run
live on every invocation: their measures (message counts, client
concurrency) need the trace's message tallies and compute records, which no
store record keeps.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.commpattern import CommunicationSummary, analyze_communications, verify_pattern
from repro.analysis.speedup import speedup_table
from repro.analysis.tables import Table, pivot_table
from repro.analysis.timefmt import format_hms
from repro.api import Engine, RunReport, SearchSpec
from repro.games.base import play_sequence
from repro.games.morpion.records import RECORD_SCORES
from repro.games.morpion.render import render_state
from repro.games.morpion.state import MorpionState
from repro.lab.export import rows_from_reports, write_csv
from repro.lab.store import ResultStore
from repro.lab.sweep import SweepSpec
from repro.paperdata import TABLE_I, TABLE_II, TABLE_III, TABLE_IV, TABLE_V, TABLE_VI, PaperTime
from repro.parallel.config import DispatcherKind
from repro.timemodel.cost import CostModel, calibrate_from_reference
from repro.workloads import Workload, get_workload

__all__ = [
    "PAPER_CLIENTS",
    "Claim",
    "Figure1",
    "PaperRun",
    "calibrated_cost_model",
    "paper_sweeps",
    "check_fidelity",
    "replay_figure1",
    "run_paper",
]

#: Client counts of Tables II–V, in the paper's row order.
PAPER_CLIENTS: Tuple[int, ...] = (64, 32, 16, 8, 4, 1)

#: Table VI's oversubscribed repartitions: N PCs running 4 clients + M PCs running 2.
_REPARTITIONS = ("16x4+16x2", "8x4+8x2")

#: Tables II–V: name -> (dispatcher, max_steps, title, published times).
_CLIENT_TABLES = {
    "table2": ("rr", 1, "Table II — first move times for the Round-Robin algorithm", TABLE_II),
    "table3": ("rr", None, "Table III — rollout times for the Round-Robin algorithm", TABLE_III),
    "table4": ("lm", 1, "Table IV — first move times for the Last-Minute algorithm", TABLE_IV),
    "table5": ("lm", None, "Table V — rollout times for the Last-Minute algorithm", TABLE_V),
}

#: Figures 2–5: dispatcher -> label; each is an 8-client first move on a homogeneous cluster.
_FIGURES = {"rr": "Figures 2–3 (Round-Robin)", "lm": "Figures 4–5 (Last-Minute)"}
_FIGURE_CLIENTS = 8

#: The paper's sequential level-3 first-move time (Table I): 8m03s on 1.86 GHz.
_PAPER_LEVEL3_FIRST_MOVE_SECONDS = 483.0


def calibrated_cost_model(
    workload: "Workload | str",
    master_seed: int = 0,
    reference_seconds: float = _PAPER_LEVEL3_FIRST_MOVE_SECONDS,
    freq_ghz: float = 1.86,
    level: Optional[int] = None,
) -> CostModel:
    """Calibrate the work→time mapping so the scaled workload sits on the paper's timescale.

    The sequential first move at the workload's *low* level (the stand-in for
    the paper's level 3) is executed once; the cost model is then chosen so
    that this search takes ``reference_seconds`` on a ``freq_ghz`` core —
    exactly the paper's Table I entry.  This keeps the ratio between client
    job durations and network latency in the regime of the original cluster,
    which is what the speedup shape depends on; the absolute simulated numbers
    then read on the same scale as the published tables.  ``workload`` is a
    registered workload, by name or as its :class:`Workload`.
    """
    wl = get_workload(workload) if isinstance(workload, str) else workload
    level = level if level is not None else wl.low_level
    reference = Engine().run(
        SearchSpec(workload=wl.name, level=level, seed=master_seed, max_steps=1)
    )
    return calibrate_from_reference(reference.work_units, reference_seconds, freq_ghz)


def paper_sweeps(workload: str, levels: Sequence[int], seed: int = 0) -> Dict[str, SweepSpec]:
    """One :class:`SweepSpec` per table of the paper, keyed ``table1``…``table6``.

    Every cell shares the master ``seed``, so the engine's job cache runs each
    search job once however many tables replay it.  Each sweep's
    ``to_json()`` is a document ``repro sweep --spec`` runs.
    """
    levels = tuple(levels)
    base = SearchSpec(workload=workload, seed=seed)
    sweeps = {
        "table1": SweepSpec(base=base, axes={"level": levels, "max_steps": (1, None)}, name="table1")
    }
    for name, (dispatcher, max_steps, _, _) in _CLIENT_TABLES.items():
        sweeps[name] = SweepSpec(
            base=base.replace(
                backend="sim-cluster", cluster="paper-mix", dispatcher=dispatcher, max_steps=max_steps
            ),
            axes={"n_clients": PAPER_CLIENTS, "level": levels},
            name=name,
        )
    sweeps["table6"] = SweepSpec(
        base=base.replace(backend="sim-cluster", max_steps=1),
        axes={
            "cluster": tuple(f"heterogeneous:{r}" for r in _REPARTITIONS),
            "dispatcher": ("lm", "rr"),
            "level": levels,
        },
        name="table6",
    )
    return sweeps


# --------------------------------------------------------------------------- #
# The fidelity check
# --------------------------------------------------------------------------- #
class Claim(NamedTuple):
    """One shape claim of the paper; ``holds`` is None (n/a) when its cells are absent."""

    text: str
    holds: Optional[bool]
    reading: str = "n/a"


class Figure1(NamedTuple):
    """Figure 1's inputs: the stored rollout score, the score its replay reaches, the grid."""

    score: float
    replayed: float
    grid: str


_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le, "==": operator.eq}


def _claim(text: str, value: Optional[float], op: str, bound: Optional[float]) -> Claim:
    if value is None or bound is None:
        return Claim(text, None)
    return Claim(text, _OPS[op](value, bound), f"{value:.4g} {op} {bound:.4g}")


def check_fidelity(
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    figures: Optional[Mapping[str, CommunicationSummary]] = None,
    figure1: Optional[Figure1] = None,
) -> List[Claim]:
    """Test the paper's shape claims on the tables' rows, the figures and Figure 1.

    ``rows`` maps a table name of :func:`paper_sweeps` to its exported rows;
    ``figures`` maps ``"rr"``/``"lm"`` to the communication summary of that
    dispatcher's figure run.  The lowest level in the rows stands in for the
    paper's level 3, the highest for its level 4; with one level, every
    claim about the high level reads n/a, as does every claim whose cells
    are absent.
    """

    def seconds(table: str, **coords: Any) -> Optional[float]:
        for row in rows.get(table, ()):
            if all(row[axis] == value for axis, value in coords.items()):
                return row["simulated_seconds"]
        return None

    def speedups(table: str, level: Any) -> Dict[int, float]:
        times = {c: seconds(table, level=level, n_clients=c) for c in PAPER_CLIENTS}
        times = {c: t for c, t in times.items() if t is not None}
        return speedup_table(times) if 1 in times else {}

    def ratio(a: Optional[float], b: Optional[float]) -> Optional[float]:
        return None if a is None or b is None else a / b

    def scaled(factor: float, value: Optional[float]) -> Optional[float]:
        return None if value is None else value * factor

    levels = sorted({row["level"] for table in rows.values() for row in table})
    # "—" is a level no row has: every claim about a missing level reads n/a.
    lo = levels[0] if levels else "—"
    hi = levels[-1] if len(levels) > 1 else "—"
    claims = [
        _claim(
            f"Table I: first move, level {hi} / level {lo} > 10",
            ratio(seconds("table1", level=hi, max_steps=1), seconds("table1", level=lo, max_steps=1)),
            ">", 10.0,
        ),
        _claim(
            f"Table I: level {lo}, rollout / first move > 3",
            ratio(seconds("table1", level=lo, max_steps=None), seconds("table1", level=lo, max_steps=1)),
            ">", 3.0,
        ),
    ]
    for name, (_, _, title, _) in _CLIENT_TABLES.items():
        table = title.split(" — ")[0]
        for level in levels:
            s = speedups(name, level)
            claims += [
                _claim(f"{table}, level {level}: speedup at 4 clients > 2", s.get(4), ">", 2.0),
                _claim(
                    f"{table}, level {level}: speedup at 64 clients > speedup at 8",
                    s.get(64), ">", s.get(8),
                ),
                _claim(f"{table}, level {level}: speedup at 64 clients > 10", s.get(64), ">", 10.0),
            ]
    rr_hi = speedups("table2", hi).get(64)
    claims += [
        _claim(
            f"Table II, 64 clients: speedup at level {hi} >= speedup at level {lo}",
            rr_hi, ">=", speedups("table2", lo).get(64),
        ),
        _claim(f"Table II, level {hi}: speedup at 64 clients > 30", rr_hi, ">", 30.0),
        _claim(
            f"Table IV vs II, level {hi}, 64 clients: LM time <= 1.05 × RR time",
            seconds("table4", level=hi, n_clients=64),
            "<=", scaled(1.05, seconds("table2", level=hi, n_clients=64)),
        ),
        _claim(
            f"Table V vs III, level {lo}, 64 clients: LM time <= 1.10 × RR time",
            seconds("table5", level=lo, n_clients=64),
            "<=", scaled(1.10, seconds("table3", level=lo, n_clients=64)),
        ),
    ]
    for repartition, level, bound in (
        (_REPARTITIONS[0], hi, 1.15), (_REPARTITIONS[1], hi, 1.15), (_REPARTITIONS[0], lo, 0.9)
    ):
        cluster = f"heterogeneous:{repartition}"
        claims.append(
            _claim(
                f"Table VI, {repartition}, level {level}: RR time / LM time > {bound}",
                ratio(
                    seconds("table6", cluster=cluster, dispatcher="rr", level=level),
                    seconds("table6", cluster=cluster, dispatcher="lm", level=level),
                ),
                ">", bound,
            )
        )
    for dispatcher, label in _FIGURES.items():
        summary = (figures or {}).get(dispatcher)
        violations = (
            None if summary is None else verify_pattern(summary, DispatcherKind.parse(dispatcher))
        )
        claim = _claim(
            f"{label}: the message pattern has no violation",
            None if violations is None else len(violations), "==", 0,
        )
        claims.append(claim._replace(reading="; ".join(violations)) if violations else claim)
        claims.append(
            _claim(
                f"{label}: max concurrent client computations > 1",
                None if summary is None else summary.max_client_concurrency, ">", 1,
            )
        )
        if dispatcher == "rr":
            claims.append(
                _claim(
                    f"{label}: all {_FIGURE_CLIENTS} clients compute",
                    None if summary is None else summary.n_clients_used, "==", _FIGURE_CLIENTS,
                )
            )
    text = "Figure 1: the rollout replays to its positive score, shown in the grid"
    if figure1 is None:
        claims.append(Claim(text, None))
    else:
        score, replayed, grid = figure1
        holds = replayed == score and score > 0 and str(int(score)) in grid
        claims.append(Claim(text, holds, f"score {score:g}, replayed {replayed:g}"))
    return claims


# --------------------------------------------------------------------------- #
# Run, export, render
# --------------------------------------------------------------------------- #
class PaperRun(NamedTuple):
    """What :func:`run_paper` did: the levels it ran, its claims and the files it wrote."""

    levels: List[int]
    claims: List[Claim]
    paths: List[Path]


def run_paper(
    out: Union[str, Path],
    workload: str = "morpion-small",
    levels: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> PaperRun:
    """Regenerate Tables I–VI and Figures 1–5 into ``out`` (see the module docstring).

    ``levels`` defaults to the workload's low and high level.  Every level
    must be at least 2, because parallel NMCS needs it; a lower one raises
    ``ValueError`` before any search runs.
    """
    wl = get_workload(workload)
    levels = sorted(set(levels or (wl.low_level, wl.high_level)))
    if levels[0] < 2:
        raise ValueError(f"repro paper needs every level >= 2 (parallel NMCS does), got {levels}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    store = ResultStore(out / "raw")
    engine = Engine(cost_model=calibrated_cost_model(wl, master_seed=seed))
    reports: Dict[str, List[RunReport]] = {}
    rows: Dict[str, List[Dict[str, Any]]] = {}
    paths = [store.root]
    for name, sweep in paper_sweeps(wl.name, levels, seed).items():
        reports[name] = engine.run_many(sweep, store=store)
        rows[name] = rows_from_reports(reports[name], store=store)
        paths.append(write_csv(rows[name], out / f"{name}.csv"))
    figures = {
        dispatcher: analyze_communications(
            engine.run(
                SearchSpec(
                    workload=wl.name,
                    backend="sim-cluster",
                    dispatcher=dispatcher,
                    n_clients=_FIGURE_CLIENTS,
                    level=levels[0],
                    seed=seed,
                    max_steps=1,
                )
            ).raw.trace
        )
        for dispatcher in _FIGURES
    }
    figure1 = replay_figure1(
        next(r for r in reports["table1"] if r.level == levels[0] and r.spec.max_steps is None)
    )
    claims = check_fidelity(rows, figures, figure1)
    paper = out / "paper.md"
    paper.write_text(_render(wl.name, levels, seed, rows, figures, figure1, claims), encoding="utf-8")
    return PaperRun(levels, claims, paths + [paper])


def replay_figure1(rollout: RunReport) -> Optional[Figure1]:
    """Figure 1 from a Morpion rollout's report, or None for another game.

    The moves may be the ``repr`` strings of a stored report:
    :func:`~repro.games.base.play_sequence` matches them to the legal moves.
    """
    state = get_workload(rollout.spec.workload).state()
    if not isinstance(state, MorpionState):
        return None
    final = play_sequence(state, rollout.sequence)
    return Figure1(rollout.score, final.score(), render_state(final))


def _paper_hms(time: PaperTime) -> str:
    """A published time as the paper prints it: single runs in parentheses."""
    return f"({format_hms(time.seconds)})" if time.single_run else format_hms(time.seconds)


def _side_by_side(
    title: str,
    row_label: str,
    reproduced: Sequence[Tuple[str, int, float]],
    published: Sequence[Tuple[str, int, PaperTime]],
) -> str:
    """One table of reproduced ``(row, level, seconds)`` and published ``(row, level, time)`` cells."""
    cells = [
        {"row": row, "column": f"level {level}", "time": format_hms(seconds)}
        for row, level, seconds in reproduced
    ] + [
        {"row": row, "column": f"paper level {level}", "time": _paper_hms(time)}
        for row, level, time in published
    ]
    return pivot_table(
        cells, title=title, index="row", column="column", value="time", row_label=row_label
    ).render()


def _render(
    workload: str,
    levels: List[int],
    seed: int,
    rows: Mapping[str, List[Dict[str, Any]]],
    figures: Mapping[str, CommunicationSummary],
    figure1: Optional[Figure1],
    claims: List[Claim],
) -> str:
    """The text of ``paper.md``."""
    step = {1: "first move", None: "one rollout"}
    blocks = [
        _side_by_side(
            "Table I — times for the sequential algorithm",
            "search",
            [(step[r["max_steps"]], r["level"], r["simulated_seconds"]) for r in rows["table1"]],
            [
                (step[max_steps], level, times[key])
                for level, times in TABLE_I.items()
                for max_steps, key in ((1, "first_move"), (None, "rollout"))
            ],
        )
    ]
    for name, (_, _, title, paper) in _CLIENT_TABLES.items():
        blocks.append(
            _side_by_side(
                title,
                "clients",
                [(str(r["n_clients"]), r["level"], r["simulated_seconds"]) for r in rows[name]],
                [(str(c), level, t) for c, by_level in paper.items() for level, t in by_level.items()],
            )
        )
    alg = {"lm": "LM", "rr": "RR"}
    blocks.append(
        _side_by_side(
            "Table VI — first move times on an heterogeneous cluster",
            "clients",
            [
                (f"{r['cluster'].split(':')[1]} {alg[r['dispatcher']]}", r["level"], r["simulated_seconds"])
                for r in rows["table6"]
            ],
            [(f"{rep} {a}", level, t) for (rep, a), by_level in TABLE_VI.items() for level, t in by_level.items()],
        )
    )
    kinds = sorted({kind for summary in figures.values() for kind in summary.counts})
    counts = [
        {"row": kind, "column": _FIGURES[d], "n": summary.count(kind)}
        for kind in kinds
        for d, summary in figures.items()
    ]
    blocks.append(
        pivot_table(
            counts,
            title=f"Figures 2–5 — messages of an {_FIGURE_CLIENTS}-client first move at level {levels[0]}",
            index="row",
            column="column",
            value="n",
            row_label="communication",
        ).render()
    )
    sections = [
        "# Parallel Nested Monte-Carlo Search: the reproduced tables and figures",
        f"Workload `{workload}`, seed {seed}, levels {', '.join(map(str, levels))}; the "
        "workload's low and high level stand in for the paper's levels 3 and 4.",
    ] + [f"```text\n{block}\n```" for block in blocks]
    if figure1 is not None:
        sections += [
            f"## Figure 1 — Table I's level-{levels[0]} rollout, {figure1.score:g} moves",
            f"The paper's record on the full 5D board is {RECORD_SCORES['parallel_nmcs_paper']} moves.",
            f"```text\n{figure1.grid}\n```",
        ]
    verdict = {True: "holds", False: "FAILS", None: "n/a"}
    fidelity = Table(title="Fidelity", columns=["measured", "result"], row_label="claim")
    for claim in claims:
        fidelity.add_row(claim.text, measured=claim.reading, result=verdict[claim.holds])
    tally = {v: sum(verdict[c.holds] == v for c in claims) for v in verdict.values()}
    sections += [
        "## Fidelity",
        f"```text\n{fidelity.render()}\n```",
        f"{len(claims)} claims: {tally['holds']} hold, {tally['FAILS']} fail, {tally['n/a']} n/a.",
    ]
    return "\n\n".join(sections) + "\n"
