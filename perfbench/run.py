"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs pass 0 untraced, then twice under the per-layer
wrappers of ``layers.py``, and reports the per-layer metrics, the tracing
overhead and whether the exact counts repeated.  The second-to-last stdout
line is the full ``repro.bench.v2`` record (provenance, quartiles, sample
counts); the last line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-tables", "search-kernels", "service-mix", "sweep-process")
#: set-up is repeated this many times in fresh processes (plus once in the run)
SETUP_REPEATS = 5

Metrics = Dict[str, Dict[str, Any]]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setups(args: argparse.Namespace) -> Tuple[List[float], List[float]]:
    """Set-up seconds of fresh processes (imports included), one after another,
    and the host-speed probes taken before, between and after them."""
    from harness import host_loop_s

    samples, probes = [], [host_loop_s()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        probes.append(host_loop_s())
    return samples, probes


def checked_pass(workload: Any, index: int, tracer: Any = None) -> Tuple[Any, int]:
    """Run pass ``index`` (traced while ``tracer`` is given), then check its outputs."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        result = workload.run_pass(index)
    finally:
        if tracer is not None:
            tracer.remove()
    failed = result.check()
    result.check = None  # release the pass's outputs before the next pass runs
    return result, failed


def end_to_end(
    workload: Any, setup_samples: List[float], setup_probes: List[float]
) -> Tuple[list, int, Metrics, Metrics]:
    """Untraced passes: ``(passes, failed, result metrics, record-only metrics)``.

    Every workload reports the same three metrics; ``wall_s`` is the median
    wall time of its passes.  Set-ups and passes are scaled to the reference
    host speed by the probes around them (``harness.host_scales``, and
    ``HostClock`` in each pass); the record keeps the unscaled medians too.
    """
    from harness import host_scales, peak_rss_mb, summary

    passes, failed = [], 0
    for index in range(workload.passes):
        result, wrong = checked_pass(workload, index)
        passes.append(result)
        failed += wrong
    setup = summary(s * k for s, k in zip(setup_samples, host_scales(setup_probes)))
    wall = summary(p.wall_s * p.host_scale for p in passes)
    metrics = {
        "setup_s": {"value": setup["median"], "unit": "s", **setup,
                    "unscaled_median": statistics.median(setup_samples)},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB", "n": 1},
        "wall_s": {"value": wall["median"], "unit": "s", **wall,
                   "unscaled_median": statistics.median(p.wall_s for p in passes)},
    }
    recorded = workload.recorded(passes)
    recorded["host_scale"] = {"unit": "ratio", **summary(p.host_scale for p in passes)}
    return passes, failed, metrics, recorded


def per_layer(workload: Any) -> Tuple[list, int, Metrics, Metrics, Dict[str, Any]]:
    """Pass 0 untraced, then twice traced.

    Returns ``(passes, failed, result metrics, record-only metrics, record extras)``.
    """
    from layers import EXACT_COUNTS, PER_LAYER, REPORTED, SHARE_LAYERS, LayerTracer, layer_metrics

    untraced, failed = checked_pass(workload, 0)
    passes, traced = [untraced], []
    for _ in range(2):
        tracer = LayerTracer()
        result, wrong = checked_pass(workload, 0, tracer)
        passes.append(result)
        failed += wrong
        traced.append(layer_metrics(tracer, result.wall_s, result.layer))
    values = traced[0]
    repeated = {name: (traced[0][name], traced[1][name]) for name in EXACT_COUNTS}
    mismatched = [name for name, (first, second) in repeated.items() if first != second]
    failed += len(mismatched)
    values["trace.overhead_ratio"] = (
        passes[1].wall_s * passes[1].host_scale / (passes[0].wall_s * passes[0].host_scale)
    )
    values["failed_ratio"] = failed / sum(p.attempted for p in passes)
    layer_self = {layer: values[f"{layer}.self_s"] for layer in SHARE_LAYERS}
    dominant = max(layer_self, key=layer_self.get)
    shares = ", ".join(f"{layer} {values[f'{layer}.share']:.1%}" for layer in SHARE_LAYERS)
    print(f"{workload.name}: dominant layer {dominant} ({shares}); "
          f"tracing overhead x{values['trace.overhead_ratio']:.2f}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in REPORTED}
    recorded = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    extra = {"dominant_layer": dominant, "exact_counts": repeated,
             "exact_counts_mismatched": mismatched}
    return passes, failed, metrics, recorded, extra


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_OBS", None)  # the program's own telemetry stays off
    setup_samples, probes = ([], []) if args.setup_only or args.trace else time_setups(args)
    setup_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from harness import host_loop_s, provenance, record, result_line
    from workloads import WORKLOADS, remove_tree

    tmp = ROOT / ".perfbench-tmp" / f"run-{os.getpid()}"
    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, tmp, 1 if args.trace else kind.passes_for(args.seconds))
    try:
        workload.setup()
        setup_samples.append(time.perf_counter() - setup_start)
        if probes:
            probes.append(host_loop_s())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[-1]}))
            return 0
        if args.trace:
            passes, failed, metrics, recorded, extra = per_layer(workload)
        else:
            passes, failed, metrics, recorded = end_to_end(workload, setup_samples, probes)
            extra = {}
    finally:
        workload.close()
        remove_tree(tmp)

    attempted = sum(p.attempted for p in passes)
    print(json.dumps(record(
        workload=args.workload, trace=bool(args.trace),
        prov=provenance(ROOT, args.seed, args.seconds), repeats=len(passes),
        metrics={**metrics, **recorded}, attempted=attempted, failed=failed, extra=extra,
    )))
    print(json.dumps(result_line(failed == 0, attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
