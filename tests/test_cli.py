"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "--workload", "morpion-small", "--level", "1", "--render"],
            ["paper", "--out", "results", "--workload", "leftmove", "--levels", "2", "3"],
            ["run", "--workload", "leftmove", "--backend", "sim-cluster", "--first-move"],
            ["run", "--spec", "scenario.json", "--json"],
        ):
            assert parser.parse_args(argv) is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--levels", "3"],
            ["paper", "--out", "d", "--clients", "8"],
            ["workloads"],
            # `repro run --render` draws the final grid.
            ["nmcs"],
            # Sweeps run inline or on `--processes N`; chunk sizes are automatic.
            ["sweep", "--spec", "{}", "--workers", "2"],
            # Worker processes are a batch option: `sweep`/`serve --processes N`.
            ["run", "--workers", "2"],
            ["submit", "--connect", "unix:s", "--workers", "2"],
            ["sweep", "--spec", "{}", "--processes", "2", "--chunk-size", "2"],
            # Jobs run in submission order, with no rate limit or priority.
            ["serve", "--rate", "2.5"],
            ["serve", "--burst", "4"],
            ["submit", "--connect", "unix:s", "--priority", "1"],
            # `repro paper` regenerates every table and figure.
            *([name] for name in ("table1", "table2", "table3", "table4", "table5", "table6")),
            ["figures2-5"],
            ["figure1"],
        ],
    )
    def test_flags_and_commands_nothing_reads_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_workloads_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "morpion-bench" in out and "weakschur" in out

    def test_run_command(self, capsys):
        assert main(["run", "--workload", "weakschur", "--level", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "score:" in out

    def test_run_render_on_morpion(self, capsys):
        assert main(["run", "--workload", "morpion-small", "--level", "1", "--render"]) == 0
        out = capsys.readouterr().out
        moves = int(next(line for line in out.splitlines() if line.startswith("moves:")).split()[1])
        # The grid numbers every move of the replayed rollout.
        assert moves > 0 and f" {moves} " in f"{out} "
        assert " o " in out

    def test_render_without_a_grid_to_draw_exits_2(self, capsys):
        assert main(["run", "--workload", "leftmove", "--level", "1", "--render"]) == 2
        captured = capsys.readouterr()
        assert "--render" in captured.err and captured.out == ""
        assert main(["run", "--workload", "morpion-small", "--level", "1", "--render", "--json"]) == 2
        assert capsys.readouterr().out == ""

    def test_paper_command(self, tmp_path, capsys):
        # leftmove is too small for the 64-client speedup bounds: exit 1.
        argv = ["paper", "--out", str(tmp_path), "--workload", "leftmove", "--levels", "2"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "Table II — first move times for the Round-Robin algorithm" in out
        assert "paper level 4" in out and "Figures 2–5" in out
        assert out.rstrip().endswith("27 claims: 16 hold, 4 fail, 7 n/a.")
        assert out == (tmp_path / "paper.md").read_text(encoding="utf-8")

    def test_paper_rejects_a_level_below_two(self, tmp_path, capsys):
        argv = ["paper", "--out", str(tmp_path), "--workload", "leftmove", "--levels", "1", "2"]
        assert main(argv) == 2
        assert "level >= 2" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestRunCommand:
    def test_run_sequential(self, capsys):
        assert main(["run", "--workload", "leftmove", "--level", "1", "--first-move"]) == 0
        out = capsys.readouterr().out
        assert "backend=sequential" in out and "score:" in out

    def test_run_sim_cluster_json(self, capsys):
        assert main(
            [
                "run", "--workload", "leftmove", "--backend", "sim-cluster",
                "--dispatcher", "lm", "--clients", "4", "--first-move", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sim-cluster"
        assert payload["spec"]["dispatcher"] == "lm"
        assert payload["comm"]

    def test_run_with_algorithm_params(self, capsys):
        assert main(
            [
                "run", "--workload", "leftmove", "--algorithm", "nrpa",
                "--level", "1", "--param", "iterations=2", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "nrpa"
        assert payload["spec"]["params"]["iterations"] == 2

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(
            json.dumps({"workload": "leftmove", "level": 1, "max_steps": 1}),
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["workload"] == "leftmove"

    def test_run_spec_file_with_flag_overrides(self, tmp_path, capsys):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(
            json.dumps({"workload": "leftmove", "level": 1, "seed": 3, "max_steps": 1}),
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec_file), "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["seed"] == 5           # flag overrides the document
        assert payload["spec"]["workload"] == "leftmove"  # untouched fields survive

    def test_run_spec_file_override_to_a_default_value(self, tmp_path, capsys):
        # An explicitly passed flag wins even when its value equals the
        # SearchSpec default (SUPPRESS defaults make "passed" detectable).
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(
            json.dumps({"workload": "leftmove", "level": 1, "seed": 3, "max_steps": 1}),
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec_file), "--seed", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["seed"] == 0

    def test_run_from_inline_spec(self, capsys):
        assert main(["run", "--spec", '{"workload": "leftmove", "level": 1, "max_steps": 1}']) == 0
        assert "score:" in capsys.readouterr().out

    def test_run_rejects_bad_backend(self, capsys):
        assert main(["run", "--workload", "leftmove", "--backend", "bogus"]) == 2
        captured = capsys.readouterr()
        assert "registered backends" in captured.err
        assert captured.out == ""  # --json pipelines never see diagnostics

    def test_run_rejects_unsupported_pair(self, capsys):
        assert main(
            ["run", "--workload", "leftmove", "--algorithm", "nrpa", "--backend", "sim-cluster"]
        ) == 2
        assert "cannot execute" in capsys.readouterr().err

    def test_run_rejects_bad_param(self, capsys):
        assert main(["run", "--workload", "leftmove", "--param", "noequals"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_run_rejects_a_spec_value_of_the_wrong_type(self, capsys):
        assert main(["run", "--spec", '{"level": "x"}']) == 2
        assert "error: malformed SearchSpec" in capsys.readouterr().err


class TestListCommand:
    def test_list_enumerates_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Algorithms:" in out and "Backends:" in out and "Workloads:" in out
        assert "nrpa" in out and "sim-cluster" in out and "morpion-bench" in out
        assert "alpha, iterations" in out  # declared params are shown

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithms"]["nrpa"]["params"] == ["alpha", "iterations"]
        assert payload["backends"]["sim-cluster"]["algorithms"] == ["nmcs"]
        assert payload["backends"]["sim-cluster"]["params"] == ["lm_fifo_jobs"]
        assert "leftmove" in payload["workloads"]


SWEEP_DOC = {
    "name": "cli-test",
    "base": {"workload": "leftmove", "backend": "sim-cluster", "level": 2, "max_steps": 1},
    "axes": {"n_clients": [2, 1], "level": [2]},
}


class TestSweepCommand:
    def test_sweep_runs_and_renders(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(SWEEP_DOC), encoding="utf-8")
        assert main(["sweep", "--spec", str(spec_file)]) == 0
        captured = capsys.readouterr()
        assert "cli-test" in captured.out
        assert "executed: 2" in captured.out
        assert "running" in captured.err  # progress stays on stderr

    def test_sweep_store_resume_and_exports(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["sweep", "--spec", json.dumps(SWEEP_DOC), "--store", str(store), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["executed"] == 2 and first["cached"] == 0
        csv_path = tmp_path / "rows.csv"
        assert main(argv + ["--csv", str(csv_path)]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0 and second["cached"] == 2  # resumed for free
        assert [row["n_clients"] for row in second["rows"]] == [2, 1]
        assert csv_path.read_text().startswith("key,workload,")

    def test_sweep_force_reexecutes(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["sweep", "--spec", json.dumps(SWEEP_DOC), "--store", str(store), "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 2 and payload["cached"] == 0

    def test_sweep_error_policy_skip_exits_nonzero(self, capsys):
        doc = {
            "base": {"workload": "leftmove", "backend": "sim-cluster", "max_steps": 1},
            "axes": {"level": [1, 2]},  # level 1 is invalid for sim-cluster
        }
        assert main(["sweep", "--spec", json.dumps(doc), "--error-policy", "skip", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 1 and payload["executed"] == 1

    def test_sweep_rejects_bad_documents_and_flags(self, tmp_path, capsys):
        assert main(["sweep", "--spec", '{"axes": {"bogus": [1]}}']) == 2
        assert "unknown sweep axis" in capsys.readouterr().err
        assert main(["sweep", "--spec", "{}", "--resume"]) == 2
        assert "--store" in capsys.readouterr().err
        assert (
            main(["sweep", "--spec", "{}", "--force", "--resume", "--store", str(tmp_path)]) == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_processes_pool(self, tmp_path, capsys):
        argv = ["sweep", "--spec", json.dumps(SWEEP_DOC), "--processes", "2", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 2
        assert [row["n_clients"] for row in payload["rows"]] == [2, 1]  # cell order kept


class TestJsonOutput:
    """Commands emit machine-readable output with --json."""

    def test_workloads_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sop" in payload["workloads"] and "leftmove" in payload["workloads"]
        assert "nmcs" in payload["algorithms"] and "sim-cluster" in payload["backends"]

    def test_run_json(self, capsys):
        assert main(["run", "--workload", "leftmove", "--level", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "nmcs"

    def test_paper_json(self, tmp_path, capsys):
        argv = ["paper", "--out", str(tmp_path), "--workload", "leftmove", "--levels", "2", "--json"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["levels"] == [2]
        assert len(payload["claims"]) == 27
        assert {claim["holds"] for claim in payload["claims"]} == {True, False, None}
        assert set(payload["claims"][0]) == {"text", "holds", "reading"}
        assert [path.rsplit("/", 1)[-1] for path in payload["paths"]] == [
            "raw", "table1.csv", "table2.csv", "table3.csv",
            "table4.csv", "table5.csv", "table6.csv", "paper.md",
        ]


# The exact --json schemas of the service commands; downstream tooling keys
# off these, so additions are fine but renames/removals must be deliberate.
JOB_SNAPSHOT_KEYS = {
    "id", "client", "kind", "state", "key", "attached",
    "cells", "submitted_at", "started_at", "finished_at",
    "queue_wait_seconds", "wall_seconds", "error",
}
CELLS_KEYS = {"total", "done", "cached", "completed", "failed"}
STATS_KEYS = {
    "submitted", "queued", "cached", "attached",
    "rejected_queue_full", "rejected_shutting_down", "searches_started",
    "running", "inflight", "queue_size", "n_workers",
}


@pytest.fixture
def service_address(tmp_path):
    """A live in-process job server on an ephemeral port; yields its address."""
    from repro.lab import ResultStore
    from repro.service import SearchService, ServiceServer

    service = SearchService(store=ResultStore(tmp_path / "store"))
    server = ServiceServer(service, port=0)
    address = server.start()
    try:
        yield address
    finally:
        service.shutdown(drain=False, timeout=5)
        server.stop()


class TestServiceCommands:
    def test_service_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["serve", "--port", "0", "--workers", "4", "--queue-depth", "8"],
            ["serve", "--socket", "/tmp/x.sock", "--store", "results"],
            ["submit", "--connect", ":7171", "--workload", "leftmove", "--json"],
            ["submit", "--connect", ":7171", "--sweep", "doc.json", "--no-wait"],
            ["jobs", "--connect", ":7171", "--json"],
            ["jobs", "--connect", ":7171", "--cancel", "job-1"],
            ["jobs", "--connect", ":7171", "--shutdown", "--no-drain"],
        ):
            assert parser.parse_args(argv) is not None

    def test_submit_json_schema(self, service_address, capsys):
        assert main(
            ["submit", "--connect", service_address, "--json",
             "--workload", "leftmove", "--level", "1", "--seed", "4"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"submit", "job", "counts", "reports", "report"}
        assert payload["submit"]["status"] == "queued"
        assert set(payload["job"]) == JOB_SNAPSHOT_KEYS
        assert set(payload["job"]["cells"]) == CELLS_KEYS
        assert payload["job"]["state"] == "completed"
        assert payload["counts"] == payload["job"]["cells"]
        assert payload["report"] == payload["reports"][0]
        assert payload["report"]["score"] > 0

    def test_submit_is_cached_on_second_run(self, service_address, capsys):
        argv = ["submit", "--connect", service_address, "--json",
                "--workload", "leftmove", "--level", "1", "--seed", "5"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["submit"]["status"] == "cached"
        assert second["report"]["score"] == first["report"]["score"]

    def test_submit_no_wait_returns_ack_only(self, service_address, capsys):
        assert main(
            ["submit", "--connect", service_address, "--json", "--no-wait",
             "--workload", "leftmove", "--level", "1", "--seed", "6"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"submit"}
        assert set(payload["submit"]) == {"status", "job_id", "state", "key"}

    def test_submit_sweep_document(self, service_address, tmp_path, capsys):
        doc = tmp_path / "sweep.json"
        doc.write_text(json.dumps({
            "base": {"workload": "leftmove", "level": 1, "max_steps": 1},
            "axes": {"seed": [1, 2]},
        }))
        assert main(
            ["submit", "--connect", service_address, "--sweep", str(doc), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["job"]["kind"] == "sweep"
        assert len(payload["reports"]) == 2
        assert "report" not in payload  # only single-cell jobs get the alias

    def test_submit_connection_failure_is_a_clean_error(self, capsys):
        assert main(
            ["submit", "--connect", "127.0.0.1:1", "--workload", "leftmove"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_json_schema(self, service_address, capsys):
        assert main(
            ["submit", "--connect", service_address, "--json",
             "--workload", "leftmove", "--level", "1", "--seed", "7"]
        ) == 0
        capsys.readouterr()
        assert main(["jobs", "--connect", service_address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"jobs", "stats"}
        assert set(payload["stats"]) == STATS_KEYS
        assert len(payload["jobs"]) == 1
        assert set(payload["jobs"][0]) == JOB_SNAPSHOT_KEYS

    def test_jobs_human_listing(self, service_address, capsys):
        assert main(["jobs", "--connect", service_address]) == 0
        out = capsys.readouterr().out
        assert "no jobs" in out and "submitted: 0" in out

    def test_serve_lifecycle_round_trip(self, tmp_path, capsys):
        """``repro serve`` comes up, serves a submit, and exits on shutdown."""
        import threading
        import time

        ready = tmp_path / "ready"
        rc = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main(["serve", "--port", "0", "--ready-file", str(ready),
                      "--store", str(tmp_path / "store")])
            )
        )
        thread.start()
        for _ in range(200):
            if ready.exists():
                break
            time.sleep(0.05)
        address = ready.read_text().strip()
        assert main(
            ["submit", "--connect", address, "--json",
             "--workload", "leftmove", "--level", "1", "--seed", "8"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["job"]["state"] == "completed"
        assert main(["jobs", "--connect", address, "--shutdown"]) == 0
        thread.join(timeout=15)
        assert not thread.is_alive() and rc == [0]
