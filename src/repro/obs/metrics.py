"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the numeric half of :mod:`repro.obs` (spans are the other —
see :mod:`repro.obs.tracing`).  Design constraints, in order:

* **zero dependencies** — plain stdlib, importable from every layer
  (``repro.api``, ``repro.lab.store``, the kernel) without cycles;
* **thread-safe** — the service's worker threads update the same counters
  concurrently; every mutation happens under the owning family's lock;
* **zero overhead when disabled** — observability is *opt-in*
  (:func:`enable`, or ``REPRO_OBS=1`` in the environment).  While disabled,
  every ``inc``/``set``/``observe`` returns after one module-global flag
  check, so instrumented hot paths cost one predictable branch.  Golden
  regression outputs are bit-identical either way: metrics never touch the
  PRNG or the simulated clock;
* **fixed histogram buckets** — boundaries are declared at registration
  (Prometheus style, upper-inclusive ``le`` edges plus an implicit ``+Inf``),
  so merging/rendering never re-bins.

Metric *families* are named once (re-registration with the same type and
shape returns the existing family; a conflicting shape raises) and may
declare label names; :meth:`Counter.labels` etc. return lightweight child
handles bound to one label value tuple.  :meth:`MetricsRegistry.snapshot`
renders everything as plain JSON data (the service's ``metrics`` verb), and
:meth:`MetricsRegistry.render_prometheus` as Prometheus text exposition.

>>> from repro import obs
>>> obs.enable()
>>> hits = obs.metrics.counter("demo_hits_total", "demo counter")
>>> hits.inc()
>>> obs.metrics.snapshot()["demo_hits_total"]["values"][0]["value"]
1.0
>>> obs.disable()
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "get_registry",
    "enabled",
    "enable",
    "disable",
]

#: Default latency buckets (seconds): sub-millisecond demo jobs up to
#: minute-scale sweeps, log-ish spacing.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: The obs-wide on/off switch (shared with tracing).  Off by default so the
#: library costs nothing unless a caller opts in; ``REPRO_OBS=1`` opts the
#: whole process in at import time (useful for benchmarks and one-off runs).
_ENABLED: bool = os.environ.get("REPRO_OBS", "") not in ("", "0")


def enabled() -> bool:
    """Whether observability (metrics + spans) is currently recording."""
    return _ENABLED


def enable() -> None:
    """Turn recording on for the whole process (idempotent)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn recording off (instrumented code keeps running, records nothing)."""
    global _ENABLED
    _ENABLED = False


class _Family:
    """Shared plumbing of one named metric family (labels, lock, children)."""

    kind: str = "untyped"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        #: label-value tuple -> per-series storage (type-specific)
        self._series: Dict[Tuple[str, ...], Any] = {}

    # -- label resolution ------------------------------------------------ #
    _NO_LABELS: Tuple[str, ...] = ()

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.labelnames}; got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _check_unlabelled(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} declares labels {self.labelnames}; "
                "use .labels(...) to pick a series"
            )

    def shape(self) -> Tuple[Any, ...]:
        """What must match for re-registration to be considered identical."""
        return (self.kind, self.labelnames)

    # -- rendering ------------------------------------------------------- #
    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    def _prom_labels(self, key: Tuple[str, ...], extra: str = "") -> str:
        parts = [f'{n}="{v}"' for n, v in zip(self.labelnames, key)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class Counter(_Family):
    """A monotonically increasing value (events, items, rejections)."""

    kind = "counter"

    def labels(self, **labels: Any) -> "_CounterChild":
        return _CounterChild(self, self._key(labels))

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series (family must declare no labels)."""
        self._check_unlabelled()
        _CounterChild(self, self._NO_LABELS).inc(amount)

    def value(self, **labels: Any) -> float:
        key = self._key(labels) if labels or self.labelnames else self._NO_LABELS
        with self._lock:
            return self._series.get(key, 0.0)

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": self._label_dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]

    def _render_prom(self, lines: List[str]) -> None:
        with self._lock:
            series = sorted(self._series.items())
        for key, value in series:
            lines.append(f"{self.name}{self._prom_labels(key)} {_fmt(value)}")


class _CounterChild:
    __slots__ = ("_family", "_key")

    def __init__(self, family: Counter, key: Tuple[str, ...]) -> None:
        self._family = family
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decrements")
        family = self._family
        with family._lock:
            family._series[self._key] = family._series.get(self._key, 0.0) + amount


class Gauge(_Family):
    """A value that goes up and down (queue depth, in-flight jobs)."""

    kind = "gauge"

    def labels(self, **labels: Any) -> "_GaugeChild":
        return _GaugeChild(self, self._key(labels))

    def set(self, value: float) -> None:
        self._check_unlabelled()
        _GaugeChild(self, self._NO_LABELS).set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._check_unlabelled()
        _GaugeChild(self, self._NO_LABELS).inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._check_unlabelled()
        _GaugeChild(self, self._NO_LABELS).inc(-amount)

    def value(self, **labels: Any) -> float:
        key = self._key(labels) if labels or self.labelnames else self._NO_LABELS
        with self._lock:
            return self._series.get(key, 0.0)

    _snapshot_values = Counter._snapshot_values
    _render_prom = Counter._render_prom


class _GaugeChild:
    __slots__ = ("_family", "_key")

    def __init__(self, family: Gauge, key: Tuple[str, ...]) -> None:
        self._family = family
        self._key = key

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        family = self._family
        with family._lock:
            family._series[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        family = self._family
        with family._lock:
            family._series[self._key] = family._series.get(self._key, 0.0) + amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Family):
    """Observations binned into fixed, upper-inclusive bucket boundaries.

    Storage per series is ``[per-bucket counts..., +Inf count, sum, count]``;
    snapshots and Prometheus text render *cumulative* bucket counts (the
    ``le`` convention), so a value equal to a boundary lands in that bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...],
    ) -> None:
        super().__init__(name, help, labelnames)
        if not buckets:
            raise ValueError("a histogram needs at least one bucket boundary")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"bucket boundaries must be strictly increasing: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)

    def shape(self) -> Tuple[Any, ...]:
        return (self.kind, self.labelnames, self.buckets)

    def labels(self, **labels: Any) -> "_HistogramChild":
        return _HistogramChild(self, self._key(labels))

    def observe(self, value: float) -> None:
        self._check_unlabelled()
        _HistogramChild(self, self._NO_LABELS).observe(value)

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed wall time of its block."""
        self._check_unlabelled()
        return _HistogramTimer(_HistogramChild(self, self._NO_LABELS))

    def _new_series(self) -> List[float]:
        return [0.0] * (len(self.buckets) + 1) + [0.0, 0.0]  # buckets+inf, sum, n

    def stats(self, **labels: Any) -> Dict[str, Any]:
        """``{"count", "sum", "buckets"}`` of one series (cumulative counts)."""
        key = self._key(labels) if labels or self.labelnames else self._NO_LABELS
        with self._lock:
            series = list(self._series.get(key) or self._new_series())
        return self._render_series(series)

    def _render_series(self, series: List[float]) -> Dict[str, Any]:
        cumulative: Dict[str, float] = {}
        running = 0.0
        for boundary, count in zip(self.buckets, series):
            running += count
            cumulative[_fmt(boundary)] = running
        cumulative["+Inf"] = running + series[len(self.buckets)]
        return {
            "buckets": cumulative,
            "sum": series[-2],
            "count": series[-1],
        }

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted((k, list(v)) for k, v in self._series.items())
        return [
            {"labels": self._label_dict(key), **self._render_series(series)}
            for key, series in items
        ]

    def _render_prom(self, lines: List[str]) -> None:
        for entry in self._snapshot_values():
            key = tuple(entry["labels"].get(n, "") for n in self.labelnames)
            for boundary, count in entry["buckets"].items():
                le = 'le="%s"' % boundary
                lines.append(
                    f"{self.name}_bucket{self._prom_labels(key, le)} {_fmt(count)}"
                )
            lines.append(f"{self.name}_sum{self._prom_labels(key)} {_fmt(entry['sum'])}")
            lines.append(f"{self.name}_count{self._prom_labels(key)} {_fmt(entry['count'])}")


class _HistogramChild:
    __slots__ = ("_family", "_key")

    def __init__(self, family: Histogram, key: Tuple[str, ...]) -> None:
        self._family = family
        self._key = key

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        family = self._family
        with family._lock:
            series = family._series.get(self._key)
            if series is None:
                series = family._series[self._key] = family._new_series()
            index = len(family.buckets)  # +Inf slot unless a boundary holds it
            for i, boundary in enumerate(family.buckets):
                if value <= boundary:
                    index = i
                    break
            series[index] += 1.0
            series[-2] += value
            series[-1] += 1.0

    def time(self) -> "_HistogramTimer":
        return _HistogramTimer(self)


class _HistogramTimer:
    __slots__ = ("_child", "_start")

    def __init__(self, child: _HistogramChild) -> None:
        self._child = child
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._child.observe(time.perf_counter() - self._start)


def _fmt(value: float) -> str:
    """Render a number the Prometheus way (integers without trailing .0)."""
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


class MetricsRegistry:
    """A named collection of metric families.

    One process-wide default registry (:func:`get_registry`) backs all the
    library's built-in instrumentation; private registries are for tests and
    embedders that want isolation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------ #
    # Registration (idempotent per name; shape conflicts raise)
    # ------------------------------------------------------------------ #
    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if existing.shape() != family.shape():
                    raise ValueError(
                        f"metric {family.name!r} already registered with a "
                        f"different shape: {existing.shape()} != {family.shape()}"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        family = self._register(Counter(name, help, tuple(labelnames)))
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        family = self._register(Gauge(name, help, tuple(labelnames)))
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._register(Histogram(name, help, tuple(labelnames), tuple(buckets)))
        assert isinstance(family, Histogram)
        return family

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Everything, as JSON-ready data (the service's ``metrics`` verb)."""
        with self._lock:
            families = sorted(self._families.items())
        return {
            name: {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                **({"buckets": list(family.buckets)} if isinstance(family, Histogram) else {}),
                "values": family._snapshot_values(),
            }
            for name, family in families
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one family per HELP/TYPE block)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            family._render_prom(lines)
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every series (registrations survive — handles stay valid)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with family._lock:
                family._series.clear()

    # ------------------------------------------------------------------ #
    # Cross-process merging
    # ------------------------------------------------------------------ #
    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how child *processes* report home: a sweep worker snapshots
        its own registry after each chunk, ships the JSON over the result
        queue, and the parent merges it here so ``repro stats`` counts work
        done anywhere in the process tree.  Semantics per metric type:

        * **counters** and **histograms** are additive — every bucket/sum/
          count/value in the snapshot is added to the local series (the
          caller must therefore send *deltas*, i.e. reset the child registry
          after each snapshot, or the same work is double-counted);
        * **gauges** take the incoming value (a level, not an increment).

        Families absent locally are registered from the snapshot's own
        metadata (type/help/labelnames/buckets); a family that exists with a
        conflicting shape raises, same as live re-registration.  Series are
        mutated directly under the family lock, so merged values land even
        while recording is disabled — a disabled parent still reflects an
        enabled child's telemetry truthfully.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            labelnames = tuple(data.get("labelnames", ()))
            help_text = data.get("help", "")
            if kind == "counter":
                family: _Family = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                family = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                family = self.histogram(
                    name, help_text, labelnames, tuple(data.get("buckets", DEFAULT_BUCKETS))
                )
            else:
                raise ValueError(f"cannot merge metric {name!r} of unknown type {kind!r}")
            for entry in data.get("values", ()):
                labels = entry.get("labels", {})
                key = tuple(str(labels.get(n, "")) for n in labelnames)
                if isinstance(family, Histogram):
                    deltas = _histogram_series_from(family, entry)
                    with family._lock:
                        series = family._series.get(key)
                        if series is None:
                            series = family._series[key] = family._new_series()
                        for i, delta in enumerate(deltas):
                            series[i] += delta
                elif isinstance(family, Gauge):
                    with family._lock:
                        family._series[key] = float(entry["value"])
                else:
                    with family._lock:
                        family._series[key] = family._series.get(key, 0.0) + float(
                            entry["value"]
                        )


def _histogram_series_from(family: Histogram, entry: Mapping[str, Any]) -> List[float]:
    """Raw storage deltas (per-bucket, +Inf, sum, count) of one snapshot entry.

    Snapshots render *cumulative* ``le`` counts; merging needs the per-bucket
    increments back, so this undoes the running sum against the family's own
    boundaries (snapshot and family buckets are guaranteed to match — a shape
    conflict would have raised at registration).
    """
    cumulative = entry.get("buckets", {})
    raw: List[float] = []
    running = 0.0
    for boundary in family.buckets:
        value = float(cumulative.get(_fmt(boundary), running))
        raw.append(value - running)
        running = value
    raw.append(float(cumulative.get("+Inf", running)) - running)
    raw.append(float(entry.get("sum", 0.0)))
    raw.append(float(entry.get("count", 0.0)))
    return raw


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation reports to."""
    return _DEFAULT_REGISTRY
