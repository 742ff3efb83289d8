"""Trace goldens: the simulator must fire the same events in the same order.

``tests/data/trace_golden.json`` was captured with
``tests/data/capture_trace_golden.py``.  Each scenario's digest covers every
message and computation record of the run, with every instant as
``float.hex``, so any change to what the kernel schedules, or in which order
it fires it, shows up here as a mismatch, even one that would keep the
score and pass ``kernel_golden.json``'s 1e-9 tolerance on simulated seconds.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_CAPTURE_PATH = Path(__file__).parent / "data" / "capture_trace_golden.py"
_spec = importlib.util.spec_from_file_location("capture_trace_golden", _CAPTURE_PATH)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads(capture.GOLDEN_PATH.read_text(encoding="utf-8"))


def _scenario_id(record):
    spec = record["spec"]
    steps = "first" if spec.get("max_steps") == 1 else "rollout"
    where = spec.get("cluster", f"c{spec.get('n_clients')}")
    return f"{spec['workload']}-{spec['dispatcher']}-{where}-{steps}"


def test_golden_covers_the_capture_scenarios():
    assert [record["spec"] for record in GOLDEN] == capture.SCENARIOS


@pytest.mark.parametrize("record", GOLDEN, ids=[_scenario_id(r) for r in GOLDEN])
def test_trace_matches_golden(record):
    assert capture.trace_record(record["spec"]) == record
