"""Capture digests of the full ordered traces of simulated cluster runs.

``kernel_golden.json`` pins scores, sequences and work totals, but simulated
seconds only to a relative tolerance of 1e-9.  This golden pins *the same
events in the same order*: for each scenario it stores a SHA-256 digest over

* every message, in delivery order: source, destination, tag, payload type,
  size, and the send and receive instants as ``float.hex``;
* every computation record, in completion order: process, node, start, end
  and work (``float.hex``);

together with the kernel's event counts (fired, scheduled, cancelled, peak
queue size, compactions), the simulated seconds (``float.hex``), the score and
the move sequence.  The scenarios are Table II-VI shapes at test scale:
morpion-small and leftmove, Round-Robin and Last-Minute, 1, 8 and 64
homogeneous clients and the ``16x4+16x2`` heterogeneous cluster, first move
and full rollout.

Run from the repository root against a kernel revision considered correct::

    PYTHONPATH=src python tests/data/capture_trace_golden.py

and commit the resulting ``trace_golden.json``; ``tests/test_trace_golden.py``
replays every scenario and demands exact equality.

A ``sim-cluster`` cell keeps no message log, so each scenario runs through
``run_parallel_nmcs`` with the config and cluster the backend builds for the
spec (:func:`repro.api.parallel_config`, :func:`repro.api.build_cluster`),
into a ``Trace()`` that records one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

from repro.api import SearchSpec, build_cluster, parallel_config
from repro.cluster.trace import Trace
from repro.parallel.driver import run_parallel_nmcs
from repro.workloads import get_workload

GOLDEN_PATH = Path(__file__).parent / "trace_golden.json"

SCENARIOS = [
    # Tables II/IV: first move over the client sweep, both dispatchers.
    {"workload": "morpion-small", "dispatcher": "rr", "max_steps": 1, "n_clients": 1},
    {"workload": "morpion-small", "dispatcher": "lm", "max_steps": 1, "n_clients": 8},
    {"workload": "morpion-small", "dispatcher": "rr", "max_steps": 1, "n_clients": 64},
    # Table VI: oversubscribed heterogeneous cluster.
    {"workload": "morpion-small", "dispatcher": "lm", "max_steps": 1,
     "cluster": "heterogeneous:16x4+16x2"},
    # Tables III/V: one full rollout.
    {"workload": "leftmove", "dispatcher": "lm", "n_clients": 1},
    {"workload": "leftmove", "dispatcher": "rr", "n_clients": 8},
    {"workload": "leftmove", "dispatcher": "lm", "n_clients": 64},
]


def _hex(value: float) -> str:
    return float(value).hex()


def trace_record(overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scenario as a fresh engine would, and summarise its trace exactly."""
    spec = SearchSpec(backend="sim-cluster", **overrides)
    workload = get_workload(spec.workload)
    level = workload.low_level if spec.level is None else spec.level
    run = run_parallel_nmcs(
        workload.state(), parallel_config(spec, level), build_cluster(spec), trace=Trace()
    )
    trace = run.trace
    digest = hashlib.sha256()
    for m in trace.messages:
        digest.update(
            f"m {m.source} {m.dest} {m.tag} {m.payload_type} {_hex(m.size_bytes)} "
            f"{_hex(m.sent_at)} {_hex(m.received_at)} {m.delivered}\n".encode()
        )
    for c in trace.computes:
        digest.update(
            f"c {c.pid} {c.node} {_hex(c.start)} {_hex(c.end)} {_hex(c.work)}\n".encode()
        )
    stats = run.kernel_stats
    return {
        "spec": overrides,
        "score": run.score,
        "sequence": [repr(move) for move in run.result.sequence],
        "simulated_seconds": _hex(run.simulated_seconds),
        "messages": len(trace.messages),
        "computes": len(trace.computes),
        "events_fired": stats.events_fired,
        "events_scheduled": stats.events_scheduled,
        "events_cancelled": stats.events_cancelled,
        "peak_queue_size": stats.peak_queue_size,
        "compactions": stats.compactions,
        "digest": digest.hexdigest(),
    }


def main() -> None:
    records = []
    for overrides in SCENARIOS:
        record = trace_record(overrides)
        records.append(record)
        print(f"{overrides}: {record['messages']} messages, "
              f"{record['events_fired']} events, digest {record['digest'][:12]}")
    GOLDEN_PATH.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(records)} scenarios)")


if __name__ == "__main__":
    main()
