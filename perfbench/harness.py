"""Shared measurement helpers: statistics, memory, provenance and the result record.

Every run of ``perfbench/run.py`` emits one ``repro.bench.v2`` record (see
:func:`record`) on stdout before its final result line, so runs on different
commits and hosts compare field for field.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

SCHEMA = "repro.bench.v2"

#: iterations of the host-speed reference loop (about 20 ms on a 2-CPU x86_64 VM)
REFERENCE_LOOP_N = 200_000
#: seconds the reference loop takes on the host that scaled times refer to
REFERENCE_LOOP_S = 0.020


def host_loop_s(repeats: int = 3) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed right now.

    A shared host's speed drifts by tens of percent over minutes; timing
    this loop next to each measured interval lets :func:`host_scales`
    take that drift out.  The loop touches no program code.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP_N):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def host_scales(probes: Sequence[float]) -> List[float]:
    """Scale factor of each interval between consecutive ``probes``.

    Multiplying a duration by its factor gives the duration on a host
    where the reference loop takes :data:`REFERENCE_LOOP_S`.
    """
    return [2 * REFERENCE_LOOP_S / (before + after) for before, after in zip(probes, probes[1:])]


class HostClock:
    """Times the segments of one pass, probing host speed between them.

    ``raw_s`` is the segments' total wall time; ``scaled_s`` scales each
    segment by the probes before and after it.  Probe time is in neither.
    Short segments follow the host's drift closely, so a long pass ends a
    segment after each of its parts (:meth:`lap`).  Probe only while the
    program is idle: a probe next to busy worker processes measures them.
    """

    def __init__(self, probe_repeats: int = 3) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._repeats = probe_repeats
        self._probe = host_loop_s(probe_repeats)
        self._start: Optional[float] = None

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        """End the running segment and probe the host."""
        elapsed = time.perf_counter() - self._start
        probe = host_loop_s(self._repeats)
        (scale,) = host_scales([self._probe, probe])
        self._probe = probe
        self.raw_s += elapsed
        self.scaled_s += elapsed * scale
        self._start = None

    def lap(self) -> None:
        """End the running segment, probe the host, then start the next one."""
        self.stop()
        self.start()

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, timed as one segment."""
        self.start()
        result = fn(*args, **kwargs)
        self.stop()
        return result

    @property
    def scale(self) -> float:
        """Factor that scales this pass's times to the reference host speed."""
        return self.scaled_s / self.raw_s


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median and quartiles of ``values`` with the sample count behind them."""
    values = list(values)
    if len(values) == 1:
        (only,) = values
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile of ``values`` (linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, Any]:
    """p50/p99 of a latency sample, with how many samples lie beyond the p99."""
    p99 = percentile(samples_ms, 99)
    return {
        **summary(samples_ms),
        "p50": statistics.median(samples_ms),
        "p99": p99,
        "beyond_p99": sum(1 for value in samples_ms if value > p99),
    }


def _peak_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB (0 if it is gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live multiprocessing child, in MiB.

    Forked children share pages with the parent, so the sum over-counts
    shared memory; it is an upper bound on the run's simultaneous peak.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = sum(_peak_kib(child.pid) for child in multiprocessing.active_children())
    return (own_kib + children_kib) / 1024.0


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, seed: int, seconds: int) -> Dict[str, Any]:
    """Where and on what code a run happened (git fields are null outside a repo)."""
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha is not None else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "argv": sys.argv[1:],
    }


def record(
    *,
    workload: str,
    trace: bool,
    prov: Dict[str, Any],
    repeats: int,
    metrics: Dict[str, Dict[str, Any]],
    attempted: int,
    failed: int,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The full ``repro.bench.v2`` record of one run."""
    return {
        "schema": SCHEMA,
        "workload": workload,
        "trace": trace,
        "provenance": prov,
        "repeats": repeats,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        **(extra or {}),
    }


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """The final line the harness contract asks for: value and unit per metric."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }
