"""Tests for repro.paper: the table sweeps, the fidelity check and the pipeline."""

from __future__ import annotations

import re

import pytest

from repro.analysis.commpattern import CommunicationSummary
from repro.api import Engine, SearchSpec
from repro.lab import ResultStore, SweepSpec
from repro.paper import (
    PAPER_CLIENTS,
    Figure1,
    calibrated_cost_model,
    check_fidelity,
    paper_sweeps,
    replay_figure1,
    run_paper,
)

LEVELS = (2, 3)
REPARTITIONS = ("16x4+16x2", "8x4+8x2")
CLIENT_TABLES = {"table2": "Table II", "table3": "Table III", "table4": "Table IV", "table5": "Table V"}
EPS = 1e-9


def passing_times():
    """Simulated seconds for every cell, each claim holding with a wide margin.

    Speedups equal the client count, the high level costs 100× the low one,
    and Round-Robin takes twice Last-Minute's time on Table VI.
    """
    times = {}
    for level in LEVELS:
        scale = 100.0 ** (level - 1)
        times["table1", level, 1] = scale
        times["table1", level, None] = 10 * scale
        for table in CLIENT_TABLES:
            for clients in PAPER_CLIENTS:
                times[table, level, clients] = 6400.0 * scale / clients
        for repartition in REPARTITIONS:
            times["table6", repartition, "lm", level] = scale
            times["table6", repartition, "rr", level] = 2 * scale
    return times


def as_rows(times):
    rows = {}
    for key, seconds in times.items():
        if key[0] == "table1":
            row = {"level": key[1], "max_steps": key[2]}
        elif key[0] == "table6":
            row = {"cluster": f"heterogeneous:{key[1]}", "dispatcher": key[2], "level": key[3]}
        else:
            row = {"level": key[1], "n_clients": key[2]}
        rows.setdefault(key[0], []).append({**row, "simulated_seconds": seconds})
    return rows


def summary(dispatcher, jobs=100, concurrency=8, clients=8):
    counts = {
        "a: root->median task": 16,
        "b1: median->dispatcher request": 100,
        "b2: dispatcher->median reply": 100,
        "b3: median->client job": 100,
        "c: client->median result": jobs,
        "d: median->root result": 16,
    }
    if dispatcher == "lm":
        counts["c': client->dispatcher free"] = 100
    return CommunicationSummary(
        counts=counts, max_client_concurrency=concurrency, n_clients_used=clients
    )


def passing_inputs():
    figures = {"rr": summary("rr"), "lm": summary("lm")}
    return passing_times(), figures, Figure1(12.0, 12.0, " 1 12")


def _param(text, mutate):
    return pytest.param(text, mutate, id=re.sub(r"[^0-9A-Za-z.+]+", "-", text).strip("-"))


def _time_case(text, key, value):
    """Set cell ``key`` to ``value(times, f)``: the claim holds at f = 1+ε, fails at 1-ε."""

    def mutate(times, figures, f):
        times[key] = value(times, f)
        return figures, None

    return _param(text, mutate)


def _figure_case(text, dispatcher, past, short):
    def mutate(times, figures, f):
        figures[dispatcher] = past if f > 1 else short
        return figures, None

    return _param(text, mutate)


def _client_cases():
    for table, name in CLIENT_TABLES.items():
        for level in LEVELS:
            yield _time_case(
                f"{name}, level {level}: speedup at 4 clients > 2",
                (table, level, 4),
                lambda t, f, table=table, level=level: t[table, level, 1] / (2 * f),
            )
            yield _time_case(
                f"{name}, level {level}: speedup at 64 clients > speedup at 8",
                (table, level, 64),
                lambda t, f, table=table, level=level: t[table, level, 8] / f,
            )
            yield _time_case(
                f"{name}, level {level}: speedup at 64 clients > 10",
                (table, level, 64),
                lambda t, f, table=table, level=level: t[table, level, 1] / (10 * f),
            )


def _figure1_case():
    def mutate(times, figures, f):
        return figures, Figure1(1.0, 1.0, " 1") if f > 1 else Figure1(0.0, 0.0, " 0")

    text = "Figure 1: the rollout replays to its positive score, shown in the grid"
    return _param(text, mutate)


FLIP_CASES = [
    _time_case(
        "Table I: first move, level 3 / level 2 > 10",
        ("table1", 3, 1),
        lambda t, f: 10 * t["table1", 2, 1] * f,
    ),
    _time_case(
        "Table I: level 2, rollout / first move > 3",
        ("table1", 2, None),
        lambda t, f: 3 * t["table1", 2, 1] * f,
    ),
    *_client_cases(),
    _time_case(
        "Table II, 64 clients: speedup at level 3 >= speedup at level 2",
        ("table2", 3, 64),
        lambda t, f: t["table2", 3, 1] * t["table2", 2, 64] / (t["table2", 2, 1] * f),
    ),
    _time_case(
        "Table II, level 3: speedup at 64 clients > 30",
        ("table2", 3, 64),
        lambda t, f: t["table2", 3, 1] / (30 * f),
    ),
    _time_case(
        "Table IV vs II, level 3, 64 clients: LM time <= 1.05 × RR time",
        ("table4", 3, 64),
        lambda t, f: t["table2", 3, 64] * 1.05 / f,
    ),
    _time_case(
        "Table V vs III, level 2, 64 clients: LM time <= 1.10 × RR time",
        ("table5", 2, 64),
        lambda t, f: t["table3", 2, 64] * 1.10 / f,
    ),
    _time_case(
        "Table VI, 16x4+16x2, level 3: RR time / LM time > 1.15",
        ("table6", "16x4+16x2", "rr", 3),
        lambda t, f: t["table6", "16x4+16x2", "lm", 3] * 1.15 * f,
    ),
    _time_case(
        "Table VI, 8x4+8x2, level 3: RR time / LM time > 1.15",
        ("table6", "8x4+8x2", "rr", 3),
        lambda t, f: t["table6", "8x4+8x2", "lm", 3] * 1.15 * f,
    ),
    _time_case(
        "Table VI, 16x4+16x2, level 2: RR time / LM time > 0.9",
        ("table6", "16x4+16x2", "rr", 2),
        lambda t, f: t["table6", "16x4+16x2", "lm", 2] * 0.9 * f,
    ),
    _figure_case(
        "Figures 2–3 (Round-Robin): the message pattern has no violation",
        "rr", summary("rr"), summary("rr", jobs=99),
    ),
    _figure_case(
        "Figures 2–3 (Round-Robin): max concurrent client computations > 1",
        "rr", summary("rr", concurrency=2), summary("rr", concurrency=1),
    ),
    _figure_case(
        "Figures 2–3 (Round-Robin): all 8 clients compute",
        "rr", summary("rr", clients=8), summary("rr", clients=7),
    ),
    _figure_case(
        "Figures 4–5 (Last-Minute): the message pattern has no violation",
        "lm", summary("lm"), summary("rr"),
    ),
    _figure_case(
        "Figures 4–5 (Last-Minute): max concurrent client computations > 1",
        "lm", summary("lm", concurrency=2), summary("lm", concurrency=1),
    ),
    _figure1_case(),
]

#: The claims about the high level, n/a when the rows hold one level.
HIGH_LEVEL_CLAIMS = {
    "Table I: first move, level — / level 2 > 10",
    "Table II, 64 clients: speedup at level — >= speedup at level 2",
    "Table II, level —: speedup at 64 clients > 30",
    "Table IV vs II, level —, 64 clients: LM time <= 1.05 × RR time",
    "Table VI, 16x4+16x2, level —: RR time / LM time > 1.15",
    "Table VI, 8x4+8x2, level —: RR time / LM time > 1.15",
}


class TestCheckFidelity:
    def test_passing_inputs_hold_every_claim(self):
        times, figures, figure1 = passing_inputs()
        claims = check_fidelity(as_rows(times), figures, figure1)
        assert len(claims) == 39
        assert [c for c in claims if c.holds is not True] == []
        assert {p.values[0] for p in FLIP_CASES} == {c.text for c in claims}

    @pytest.mark.parametrize("text,mutate", FLIP_CASES)
    def test_every_claim_flips_at_its_bound(self, text, mutate):
        for f, expected in ((1 + EPS, True), (1 - EPS, False)):
            times, figures, figure1 = passing_inputs()
            figures, replaced = mutate(times, dict(figures), f)
            claims = check_fidelity(as_rows(times), figures, replaced or figure1)
            claim = {c.text: c for c in claims}[text]
            assert claim.holds is expected, (f, claim)
            # The comparison applied is the one the claim states (> vs >=).
            stated = re.search(r" (>=|<=|>) ", text)
            if stated:
                assert f" {stated.group(1)} " in claim.reading, claim

    def test_one_level_leaves_exactly_the_high_level_claims_na(self):
        times, figures, figure1 = passing_inputs()
        low = {key: s for key, s in times.items() if 3 not in key}  # only a level is 3
        claims = check_fidelity(as_rows(low), figures, figure1)
        assert len(claims) == 27
        assert {c.text for c in claims if c.holds is None} == HIGH_LEVEL_CLAIMS
        assert all(c.holds for c in claims if c.text not in HIGH_LEVEL_CLAIMS)

    def test_absent_cells_read_na_never_pass(self):
        claims = check_fidelity({})
        assert claims and all(c.holds is None and c.reading == "n/a" for c in claims)


class TestPaperSweeps:
    def test_one_sweep_per_table_sharing_the_seed(self):
        sweeps = paper_sweeps("leftmove", [2, 3], seed=7)
        assert list(sweeps) == ["table1", "table2", "table3", "table4", "table5", "table6"]
        assert [len(s) for s in sweeps.values()] == [4, 12, 12, 12, 12, 8]
        assert {spec.seed for s in sweeps.values() for spec in s.specs()} == {7}
        assert sweeps["table2"].axes["n_clients"] == PAPER_CLIENTS
        # Each is a document `repro sweep --spec` runs, cell for cell.
        for sweep in sweeps.values():
            restored = SweepSpec.from_json(sweep.to_json())
            assert restored == sweep
            assert list(restored.cells()) == list(sweep.cells())


@pytest.fixture(scope="module")
def leftmove_paper(tmp_path_factory):
    """One cold ``run_paper`` on leftmove at levels 2 and 3: (output dir, result)."""
    out = tmp_path_factory.mktemp("paper")
    return out, run_paper(out, workload="leftmove", levels=[3, 2])


class TestRunPaper:
    def test_second_run_executes_no_cell(self, leftmove_paper):
        out, first = leftmove_paper
        assert first.levels == [2, 3]
        written = {path.name: path.read_bytes() for path in first.paths if path.is_file()}
        assert sorted(written) == [
            "paper.md", "table1.csv", "table2.csv", "table3.csv",
            "table4.csv", "table5.csv", "table6.csv",
        ]
        records = len(ResultStore(out / "raw"))
        assert records == 60
        second = run_paper(out, workload="leftmove", levels=[2, 3])
        # The rows carry wall_seconds, so a re-executed cell would change a CSV.
        assert {path.name: path.read_bytes() for path in second.paths if path.is_file()} == written
        assert len(ResultStore(out / "raw")) == records
        assert second.claims == first.claims

    def test_leftmove_tables_keep_the_paper_shape(self, leftmove_paper):
        # leftmove is too small for the 64-client bounds (speedup > 10, > 30,
        # RR/LM > 1.15); every other claim holds on it.
        for claim in leftmove_paper[1].claims:
            if any(bound in claim.text for bound in ("> 10", "> 30", "> 1.15")):
                continue
            if claim.text.startswith("Figure 1"):
                assert claim.holds is None  # leftmove is not Morpion
            else:
                assert claim.holds is True, claim

    def test_non_morpion_paper_has_no_figure1(self, leftmove_paper):
        text = (leftmove_paper[0] / "paper.md").read_text(encoding="utf-8")
        assert "Table VI" in text and "Figures 2–5" in text
        assert "## Figure 1" not in text
        assert text.rstrip().endswith("1 n/a.")

    def test_level_below_two_is_rejected_before_any_search(self, tmp_path):
        with pytest.raises(ValueError, match="level >= 2"):
            run_paper(tmp_path / "out", workload="leftmove", levels=[1, 2])
        assert not (tmp_path / "out").exists()


class TestFigure1:
    def test_replays_a_stored_morpion_rollout(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = SearchSpec(workload="morpion-small", level=1, seed=0)
        Engine().run_many([spec], store=store)
        stored = store.get(spec)
        assert all(isinstance(move, str) for move in stored.sequence)
        figure1 = replay_figure1(stored)
        assert figure1.score == figure1.replayed == stored.score > 0
        assert str(int(stored.score)) in figure1.grid and "o" in figure1.grid


def test_calibrated_cost_model_scales_to_the_paper():
    model = calibrated_cost_model("weakschur", master_seed=0, reference_seconds=483.0)
    # The calibration target: the low-level first move takes 483 simulated
    # seconds on a 1.86 GHz node (paper Table I, level 3).
    reference = Engine(cost_model=model).run(
        SearchSpec(workload="weakschur", level=2, seed=0, max_steps=1)
    )
    assert reference.simulated_seconds == pytest.approx(483.0, rel=1e-6)
