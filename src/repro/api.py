"""Unified declarative API: one entry point for every algorithm × game × backend.

The paper's core claim is that the *same* nested search runs sequentially, on
Round-Robin or on Last-Minute dispatching, with different time/score
trade-offs.  This module makes that claim executable as a one-liner: describe
a scenario with a :class:`SearchSpec` (what to search, how, and on which
execution substrate) and hand it to an :class:`Engine`; every combination
returns the same :class:`RunReport` schema, so scenarios differ by *one field
of a spec*, never by which function you call.

>>> from repro.api import Engine, SearchSpec
>>> engine = Engine()
>>> seq = engine.run(SearchSpec(workload="morpion-small", max_steps=1))
>>> lm = engine.run(SearchSpec(workload="morpion-small", max_steps=1,
...                            backend="sim-cluster", dispatcher="lm", n_clients=8))
>>> seq.score == lm.score  # same search, different substrate
True

Extensibility is registry-based:

* :func:`register_algorithm` adds a sequential search conforming to the
  ``(state, level, seeds, counter, budget, params) -> SearchResult`` protocol
  (the six bundled searches — sample, flat, nmcs, reflexive, iterated,
  nrpa — are registered this way);
* :func:`register_backend` adds an execution substrate conforming to the
  ``(spec, algorithm, ctx) -> RunReport`` protocol (bundled: ``sequential``
  and ``sim-cluster`` on the discrete-event kernel).

Specs and reports serialise to/from dict and JSON (:meth:`SearchSpec.to_json`,
:meth:`SearchSpec.from_json`, :meth:`RunReport.to_json`), so sweeps can be
stored, shipped to workers, or diffed between sessions.

Batches are first-class: :meth:`Engine.stream` executes a list of specs or a
whole :class:`repro.lab.sweep.SweepSpec` as a lazy stream of
:class:`RunEvent`\\ s (started / cached / completed / failed per cell) with an
error policy, cancellation and an optional worker-process pool
(:mod:`repro.lab.procpool`), and :meth:`Engine.run_many` collects that
stream into reports.  Attaching a :class:`repro.lab.store.ResultStore`
makes batches durable and resumable: completed cells are persisted under
their content address and skipped on re-runs (see ``docs/SWEEPS.md``).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import threading
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.cluster.topology import (
    ClusterSpec,
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
    single_machine,
)
from repro.core.counters import WorkCounter
from repro.core.flat import flat_monte_carlo
from repro.core.iterated import iterated_search
from repro.core.nested import nested_search
from repro.core.nrpa import nrpa_search
from repro.core.reflexive import reflexive_search
from repro.core.result import SearchResult
from repro.core.sample import sample
from repro.games.base import GameState, Move
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.driver import run_parallel_nmcs
from repro.parallel.jobs import CachingJobExecutor, JobExecutor
from repro.obs import metrics as _obs_metrics
from repro.obs import span as _obs_span
from repro.obs import enabled as _obs_enabled
from repro.prng import SeedSequence
from repro.timemodel.cost import CostModel
from repro.workloads import get_workload

if TYPE_CHECKING:  # pragma: no cover - lab imports api; annotations only here
    from repro.lab.store import ResultStore
    from repro.lab.sweep import SweepSpec

__all__ = [
    "SearchSpec",
    "RunReport",
    "RunContext",
    "RunEvent",
    "Engine",
    "AlgorithmEntry",
    "BackendEntry",
    "register_algorithm",
    "register_backend",
    "list_algorithms",
    "list_backends",
    "build_cluster",
    "parallel_config",
    "to_jsonable",
]


# --------------------------------------------------------------------------- #
# Telemetry (no-ops unless repro.obs is enabled)
# --------------------------------------------------------------------------- #
_RUNS_TOTAL = _obs_metrics.counter(
    "repro_engine_runs_total",
    "Engine.run calls completed, by execution backend",
    labelnames=("backend",),
)
_RUN_SECONDS = _obs_metrics.histogram(
    "repro_engine_run_seconds",
    "wall-clock seconds per Engine.run, by execution backend",
    labelnames=("backend",),
)
_CELLS_TOTAL = _obs_metrics.counter(
    "repro_engine_cells_total",
    "batch cells streamed by Engine.stream, by event kind",
    labelnames=("kind",),
)
#: Pre-bound children so the stream hot path pays one flag check per event.
_CELL_EVENTS = {
    kind: _CELLS_TOTAL.labels(kind=kind)
    for kind in ("started", "cached", "completed", "failed")
}


# --------------------------------------------------------------------------- #
# JSON support
# --------------------------------------------------------------------------- #
def to_jsonable(obj: Any) -> Any:
    """Best-effort conversion of experiment payloads into JSON-serialisable data.

    Handles the containers and dataclasses produced by this library; anything
    without an obvious JSON form (game moves, search results) falls back to
    ``repr``, which is stable for the bundled domains.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if hasattr(obj, "to_dict") and callable(obj.to_dict):
        return to_jsonable(obj.to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


# --------------------------------------------------------------------------- #
# The declarative spec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SearchSpec:
    """A complete, serialisable description of one search scenario.

    Attributes
    ----------
    workload:
        Named workload (see :mod:`repro.workloads`).  Every run resolves it
        and starts from its initial position; a position of your own runs
        through the kernels (:func:`repro.core.nested.nested_search`,
        :func:`repro.parallel.driver.run_parallel_nmcs`) instead.
    algorithm / backend:
        Registry names (see :func:`list_algorithms` / :func:`list_backends`).
    level:
        Nesting level; ``None`` uses the workload's low level.
    seed:
        Master random seed (same derivation on every backend and in
        :func:`repro.core.nested.nmcs`, so scores are comparable across them).
    max_steps:
        Budget on root moves: ``1`` is the paper's "first move" experiment,
        ``None`` plays the full game ("one rollout").
    dispatcher:
        ``"rr"`` / ``"lm"`` (any :meth:`DispatcherKind.parse` alias); used by
        the ``sim-cluster`` backend, ignored elsewhere.
    cluster:
        Cluster descriptor for the simulated backend: ``"homogeneous"``,
        ``"paper"``, ``"paper-mix"`` (homogeneous up to 32 clients, the
        paper's mixed cluster above), ``"single"`` or
        ``"heterogeneous:<N>x<a>+<M>x<b>"`` (Table VI style).
    n_clients / n_medians:
        Simulated cluster sizing.
    freq_ghz / units_per_ghz:
        Cost-model parameters mapping work units to simulated seconds.
    params:
        Algorithm-specific extras (e.g. ``{"iterations": 4}`` for NRPA,
        ``{"restarts": 8}`` for iterated NMCS, ``{"lm_fifo_jobs": true}`` for
        the Last-Minute FIFO ablation).

    ``level``, ``seed``, ``max_steps``, ``n_clients`` and ``n_medians`` take
    integers only (not ``bool``): ``max_steps=1.5`` would otherwise play two
    root moves under a key of its own.  ``workload``, ``algorithm``,
    ``backend``, ``cluster`` and ``dispatcher`` take strings, and
    ``freq_ghz`` and ``units_per_ghz`` finite integers or floats (not
    ``bool``, NaN or infinity), so a wrongly typed field fails here rather
    than once the run starts, and no stored report reads NaN seconds.
    """

    workload: str = "morpion-small"
    algorithm: str = "nmcs"
    backend: str = "sequential"
    level: Optional[int] = None
    seed: int = 0
    max_steps: Optional[int] = None
    dispatcher: Optional[str] = None
    cluster: str = "homogeneous"
    n_clients: int = 8
    n_medians: int = 40
    freq_ghz: float = 1.86
    units_per_ghz: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        # A read-only view keeps the frozen contract honest (no mutation via
        # spec.params) and excluding it from __hash__ keeps specs hashable.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        for names, kinds, noun in (
            (("workload", "algorithm", "backend", "cluster", "dispatcher"), str, "a string"),
            (("level", "seed", "max_steps", "n_clients", "n_medians"), int, "an integer"),
            (("freq_ghz", "units_per_ghz"), (int, float), "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                if value is None and name in ("level", "max_steps", "dispatcher", "units_per_ghz"):
                    continue
                if isinstance(value, bool) or not isinstance(value, kinds):
                    raise ValueError(f"malformed SearchSpec: {name} must be {noun}, got {value!r}")
        for name in ("freq_ghz", "units_per_ghz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"malformed SearchSpec: {name} must be finite, got {value!r}")
        if self.level is not None and self.level < 0:
            raise ValueError("level must be >= 0 when given")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 when given")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.n_medians < 1:
            raise ValueError("n_medians must be >= 1")
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if self.units_per_ghz is not None and self.units_per_ghz <= 0:
            raise ValueError("units_per_ghz must be positive when given")
        if self.dispatcher is not None:
            DispatcherKind.parse(self.dispatcher)  # fail early on typos

    def replace(self, **changes: Any) -> "SearchSpec":
        """A copy of this spec with the given fields changed."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; round-trips exactly via :meth:`from_dict`.

        Field values are kept verbatim (no lossy coercion); :meth:`to_json`
        therefore raises on ``params`` values that have no JSON form rather
        than silently stringifying them.  JSON itself has no tuple type, so a
        tuple-valued param survives the *dict* round-trip but comes back as a
        list from the *JSON* one.
        """
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["params"] = dict(self.params)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpec":
        """Build a spec from a dict.

        Raises ``ValueError`` for any malformed document: one that is not a
        mapping, has unknown keys, a ``params`` that is not a mapping, or a
        value of a type its field cannot take.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a SearchSpec document must be an object, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SearchSpec fields: {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        if not isinstance(data.get("params", {}), Mapping):
            raise ValueError(f"SearchSpec params must be an object, got {data['params']!r}")
        try:
            return cls(**data)
        except TypeError as exc:  # e.g. a string level compared with 0
            raise ValueError(f"malformed SearchSpec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "SearchSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a SearchSpec JSON document must be an object")
        return cls.from_dict(data)


# --------------------------------------------------------------------------- #
# The unified report
# --------------------------------------------------------------------------- #
@dataclass
class RunReport:
    """What every backend returns: one schema for all algorithm × backend pairs.

    ``raw`` keeps the backend-native result object (``SearchResult`` or
    ``ParallelRunResult``) for callers that need substrate-specific detail
    (e.g. the trace's tallies and compute records; a ``sim-cluster`` cell
    keeps no message log, see :func:`parallel_config`); it is excluded from
    the serialised form.
    ``n_jobs`` and ``n_workers`` are set by the ``sim-cluster`` backend only:
    the client jobs dispatched and the simulated cluster's client count.
    """

    spec: SearchSpec
    algorithm: str
    backend: str
    level: int
    score: float
    sequence: Tuple[Move, ...] = ()
    work_units: Optional[float] = None
    simulated_seconds: Optional[float] = None
    wall_seconds: float = 0.0
    n_jobs: Optional[int] = None
    n_workers: Optional[int] = None
    comm: Optional[Dict[str, int]] = None
    client_utilisation: Optional[float] = None
    #: Event-loop diagnostics of simulated backends (see
    #: :class:`repro.cluster.simulator.KernelStats`; None for real substrates).
    kernel_stats: Optional[Dict[str, Any]] = None
    #: Span-summary cost breakdown of the run (see :mod:`repro.obs.tracing`);
    #: populated by :meth:`Engine.run` only while observability is enabled.
    telemetry: Optional[Dict[str, Any]] = None
    raw: Any = field(default=None, repr=False, compare=False)

    @property
    def sequence_length(self) -> int:
        return len(self.sequence)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (moves rendered with ``repr``, ``raw`` dropped).

        Strings pass through unrendered, so a report rebuilt with
        :meth:`from_dict` (whose sequence is already the rendered strings)
        re-serialises to the identical document instead of double-quoting.
        """
        return {
            "spec": self.spec.to_dict(),
            "algorithm": self.algorithm,
            "backend": self.backend,
            "level": self.level,
            "score": self.score,
            "sequence": [
                move if isinstance(move, str) else repr(move)
                for move in self.sequence
            ],
            "sequence_length": self.sequence_length,
            "work_units": self.work_units,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "n_jobs": self.n_jobs,
            "n_workers": self.n_workers,
            "comm": to_jsonable(self.comm),
            "client_utilisation": self.client_utilisation,
            "kernel_stats": to_jsonable(self.kernel_stats),
            "telemetry": to_jsonable(self.telemetry),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, raw: Any = None) -> "RunReport":
        """Rebuild a report from its :meth:`to_dict` form.

        The round-trip is exact for every numeric/count field; ``sequence``
        comes back as the rendered move strings (``to_dict`` serialises moves
        with ``repr``), which :func:`repro.games.base.play_sequence` still
        replays by matching them to the legal moves.  ``raw`` attaches
        provenance (e.g. the store record or wire message the report was
        decoded from).
        """
        return cls(
            spec=SearchSpec.from_dict(data["spec"]),
            algorithm=data["algorithm"],
            backend=data["backend"],
            level=data["level"],
            score=data["score"],
            sequence=tuple(data.get("sequence", ())),
            work_units=data.get("work_units"),
            simulated_seconds=data.get("simulated_seconds"),
            wall_seconds=data.get("wall_seconds", 0.0),
            n_jobs=data.get("n_jobs"),
            n_workers=data.get("n_workers"),
            comm=data.get("comm"),
            client_utilisation=data.get("client_utilisation"),
            kernel_stats=data.get("kernel_stats"),
            telemetry=data.get("telemetry"),
            raw=raw,
        )


# --------------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AlgorithmEntry:
    """A registered sequential search algorithm.

    ``fn`` follows the protocol
    ``(state, level, seeds, counter, budget, params) -> SearchResult`` where
    ``budget`` is the root-move cap (``None`` = play to the end) and
    ``params`` the spec's algorithm-specific extras.  Algorithms with no
    notion of a root-move cap register ``supports_budget=False``; the engine
    then rejects specs with ``max_steps`` set instead of silently running
    unbounded while the report claims otherwise.

    ``params`` declares the parameter names the algorithm reads, so the
    engine can reject typos (``playout_per_move``) loudly instead of
    silently ignoring them; ``None`` opts out of validation entirely (the
    algorithm accepts arbitrary keys).
    """

    name: str
    fn: Callable[..., SearchResult]
    description: str = ""
    seed_label: str = "nmcs"
    supports_budget: bool = True
    params: Optional[Tuple[str, ...]] = ()


@dataclass(frozen=True)
class BackendEntry:
    """A registered execution substrate.

    ``fn`` follows the protocol ``(spec, algorithm, ctx) -> RunReport``.
    ``algorithms`` restricts which registered algorithms the substrate can
    execute (``None`` = all); the ``sim-cluster`` substrate distributes the
    nested search specifically, so it declares ``("nmcs",)``.  ``params``
    declares substrate-level parameter names the backend reads from
    ``spec.params`` (e.g. ``lm_fifo_jobs``); they are accepted in addition
    to the algorithm's own declared params.
    """

    name: str
    fn: Callable[..., RunReport]
    description: str = ""
    algorithms: Optional[Tuple[str, ...]] = None
    params: Optional[Tuple[str, ...]] = ()

    def supports(self, algorithm: str) -> bool:
        return self.algorithms is None or algorithm in self.algorithms


ALGORITHMS: Dict[str, AlgorithmEntry] = {}
BACKENDS: Dict[str, BackendEntry] = {}


def register_algorithm(
    name: str,
    *,
    description: str = "",
    seed_label: str = "nmcs",
    supports_budget: bool = True,
    params: Optional[Iterable[str]] = (),
) -> Callable[[Callable[..., SearchResult]], Callable[..., SearchResult]]:
    """Register the decorated function as the search algorithm named ``name``.

    ``params`` declares the accepted ``spec.params`` keys (the engine rejects
    any others loudly; pass ``None`` to accept arbitrary keys).  Raises
    ``ValueError`` if the name is already taken (registries are flat
    namespaces shared by the CLI, the benchmarks and the experiment runners).
    """

    def decorator(fn: Callable[..., SearchResult]) -> Callable[..., SearchResult]:
        if name in ALGORITHMS:
            raise ValueError(f"algorithm {name!r} is already registered")
        ALGORITHMS[name] = AlgorithmEntry(
            name=name,
            fn=fn,
            description=description,
            seed_label=seed_label,
            supports_budget=supports_budget,
            params=None if params is None else tuple(params),
        )
        return fn

    return decorator


def register_backend(
    name: str,
    *,
    description: str = "",
    algorithms: Optional[Iterable[str]] = None,
    params: Optional[Iterable[str]] = (),
) -> Callable[[Callable[..., RunReport]], Callable[..., RunReport]]:
    """Register the decorated function as the execution backend named ``name``."""

    def decorator(fn: Callable[..., RunReport]) -> Callable[..., RunReport]:
        if name in BACKENDS:
            raise ValueError(f"backend {name!r} is already registered")
        BACKENDS[name] = BackendEntry(
            name=name,
            fn=fn,
            description=description,
            algorithms=None if algorithms is None else tuple(algorithms),
            params=None if params is None else tuple(params),
        )
        return fn

    return decorator


def list_algorithms() -> Dict[str, str]:
    """Mapping of registered algorithm name to its one-line description."""
    return {name: entry.description for name, entry in sorted(ALGORITHMS.items())}


def list_backends() -> Dict[str, str]:
    """Mapping of registered backend name to its one-line description."""
    return {name: entry.description for name, entry in sorted(BACKENDS.items())}


def _algorithm(name: str) -> AlgorithmEntry:
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {name!r}; registered algorithms: {known}") from None


def _backend(name: str) -> BackendEntry:
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r}; registered backends: {known}") from None


def _validate_params(spec: SearchSpec, algorithm: AlgorithmEntry, backend: BackendEntry) -> None:
    """Reject ``spec.params`` keys neither the algorithm nor the backend declares.

    Either side may register ``params=None`` to accept arbitrary keys, which
    disables the check (an undeclared surface cannot be validated against).
    """
    if algorithm.params is None or backend.params is None:
        return
    allowed = set(algorithm.params) | set(backend.params)
    unknown = sorted(set(spec.params) - allowed)
    if not unknown:
        return
    accepted = ", ".join(sorted(allowed)) if allowed else "(none)"
    raise ValueError(
        f"unknown param(s) {', '.join(map(repr, unknown))} for algorithm "
        f"{spec.algorithm!r} on backend {spec.backend!r}; accepted params: {accepted}"
    )


# --------------------------------------------------------------------------- #
# Cluster descriptors
# --------------------------------------------------------------------------- #
def build_cluster(spec: SearchSpec) -> ClusterSpec:
    """Build the :class:`ClusterSpec` described by ``spec.cluster`` / ``spec.n_clients``."""
    kind, _, arg = spec.cluster.partition(":")
    kind = kind.strip().lower()
    if kind == "homogeneous":
        return homogeneous_cluster(spec.n_clients)
    if kind == "paper":
        return paper_cluster(spec.n_clients)
    if kind == "paper-mix":
        # Tables II-V policy: only 1.86 GHz PCs up to 32 clients, the paper's
        # mixed cluster beyond.
        if spec.n_clients > 32:
            return paper_cluster(spec.n_clients)
        return homogeneous_cluster(spec.n_clients)
    if kind == "single":
        return single_machine(spec.n_clients)
    if kind == "heterogeneous":
        try:
            groups = [part.split("x") for part in arg.split("+")]
            (n_over, c_over), (n_reg, c_reg) = [(int(a), int(b)) for a, b in groups]
        except (ValueError, TypeError):
            raise ValueError(
                f"bad heterogeneous cluster descriptor {spec.cluster!r}; "
                "expected 'heterogeneous:<N>x<a>+<M>x<b>' (e.g. 'heterogeneous:16x4+16x2')"
            ) from None
        return heterogeneous_cluster(
            n_over, n_reg, clients_on_oversubscribed=c_over, clients_on_regular=c_reg
        )
    known = "homogeneous, paper, paper-mix, single, heterogeneous:<N>x<a>+<M>x<b>"
    raise ValueError(f"unknown cluster descriptor {spec.cluster!r}; known kinds: {known}")


def parallel_config(spec: SearchSpec, level: int) -> ParallelConfig:
    """The :class:`ParallelConfig` the ``sim-cluster`` backend runs ``spec`` with at ``level``.

    With :func:`build_cluster` it replays a cell through the kernel, for
    instance to record the message log a cell does not keep::

        run_parallel_nmcs(state, parallel_config(spec, level), build_cluster(spec), trace=Trace())
    """
    return ParallelConfig(
        level=level,
        dispatcher=spec.dispatcher or "rr",
        n_medians=spec.n_medians,
        max_root_steps=spec.max_steps,
        master_seed=spec.seed,
        lm_fifo_jobs=bool(spec.params.get("lm_fifo_jobs", False)),
    )


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
@dataclass
class RunContext:
    """Resolved per-run resources handed to a backend."""

    state: GameState
    level: int
    executor: JobExecutor
    cost_model: CostModel


@dataclass(frozen=True)
class RunEvent:
    """One lifecycle event of a batched run (see :meth:`Engine.stream`).

    ``kind`` is one of:

    * ``"started"`` — the cell is about to execute (not emitted for cache hits);
    * ``"cached"`` — the cell was satisfied from the :class:`ResultStore`
      without executing any search;
    * ``"completed"`` — the cell executed successfully (and was stored, when
      a store is attached);
    * ``"failed"`` — the cell raised; ``error`` carries the exception.

    ``done`` / ``total`` make every terminal event a progress report
    (``done`` counts cells finished so far, including this one).
    """

    kind: str
    index: int
    total: int
    spec: SearchSpec
    report: Optional[RunReport] = None
    error: Optional[BaseException] = None
    done: int = 0

    @property
    def terminal(self) -> bool:
        """Whether this event ends its cell (cached / completed / failed)."""
        return self.kind != "started"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the service wire encoding).

        ``error`` is rendered as ``"TypeName: message"`` — exceptions have no
        faithful JSON form, so the round-trip through :meth:`from_dict` keeps
        the message but not the original type or traceback.
        """
        return {
            "kind": self.kind,
            "index": self.index,
            "total": self.total,
            "spec": self.spec.to_dict(),
            "report": None if self.report is None else self.report.to_dict(),
            "error": None if self.error is None else f"{type(self.error).__name__}: {self.error}",
            "done": self.done,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunEvent":
        """Rebuild an event from its :meth:`to_dict` form.

        A serialised ``error`` comes back as a ``RuntimeError`` carrying the
        rendered message (see :meth:`to_dict`); everything else round-trips
        exactly (``report`` via :meth:`RunReport.from_dict`).
        """
        report = data.get("report")
        error = data.get("error")
        return cls(
            kind=data["kind"],
            index=data["index"],
            total=data["total"],
            spec=SearchSpec.from_dict(data["spec"]),
            report=None if report is None else RunReport.from_dict(report),
            error=None if error is None else RuntimeError(error),
            done=data.get("done", 0),
        )


#: What the batch layer accepts: a SweepSpec, or any iterable of specs/dicts.
BatchInput = Union["SweepSpec", Iterable[Union[SearchSpec, Mapping[str, Any]]]]

class Engine:
    """Executes :class:`SearchSpec` scenarios; shares caches across runs.

    A run's result is a function of its spec and the engine's cost model:
    every run starts from its workload's initial position, and every
    ``sim-cluster`` run of one workload shares that workload's
    :class:`CachingJobExecutor`, so a sweep over client counts or
    dispatchers executes each search job exactly once, while runs of
    different workloads never see each other's entries (job cache keys are
    seed paths, which repeat across workloads).

    ``cost_model`` overrides the default cost model for all runs; a spec's
    ``units_per_ghz`` overrides it for that run.  A position, job executor
    or :class:`~repro.cluster.network.NetworkModel` of your own runs through
    the kernels: ``run_parallel_nmcs(state, config, cluster, executor=...,
    network=...)`` (:mod:`repro.parallel.driver`) or the searches of
    :mod:`repro.core`.
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model
        self._workload_executors: Dict[str, JobExecutor] = {}

    def _executor_for(self, workload_name: str) -> JobExecutor:
        cached = self._workload_executors.get(workload_name)
        if cached is None:
            cached = CachingJobExecutor()
            self._workload_executors[workload_name] = cached
        return cached

    def run(self, spec: "SearchSpec | Mapping[str, Any]") -> RunReport:
        """Execute one scenario from its workload's initial position."""
        if isinstance(spec, Mapping):
            spec = SearchSpec.from_dict(spec)
        algorithm = _algorithm(spec.algorithm)
        backend = _backend(spec.backend)
        if not backend.supports(spec.algorithm):
            supported = ", ".join(backend.algorithms or ())
            raise ValueError(
                f"backend {spec.backend!r} cannot execute algorithm {spec.algorithm!r}; "
                f"it supports: {supported}. Use backend 'sequential' for the other algorithms."
            )
        if spec.max_steps is not None and not algorithm.supports_budget:
            raise ValueError(
                f"algorithm {spec.algorithm!r} has no root-move budget; "
                "leave max_steps unset (it would be silently ignored otherwise)"
            )
        _validate_params(spec, algorithm, backend)
        workload = get_workload(spec.workload)
        if spec.units_per_ghz is not None:
            cost_model = CostModel(units_per_ghz_per_second=spec.units_per_ghz)
        else:
            cost_model = self.cost_model if self.cost_model is not None else CostModel()
        ctx = RunContext(
            state=workload.state(),
            level=workload.low_level if spec.level is None else spec.level,
            executor=self._executor_for(spec.workload),
            cost_model=cost_model,
        )
        with _obs_span(
            "engine.run",
            backend=spec.backend,
            algorithm=spec.algorithm,
            workload=spec.workload,
        ) as root_span:
            wall_start = time.perf_counter()
            report = backend.fn(spec, algorithm, ctx)
        if _obs_enabled():
            wall = time.perf_counter() - wall_start
            _RUNS_TOTAL.labels(backend=spec.backend).inc()
            _RUN_SECONDS.labels(backend=spec.backend).observe(wall)
            report.telemetry = root_span.summary()
        return report

    # ------------------------------------------------------------------ #
    # Batch layer
    # ------------------------------------------------------------------ #
    def _expand_batch(self, specs: BatchInput) -> List[SearchSpec]:
        """Normalise a batch input (SweepSpec / iterable of specs or dicts)."""
        if hasattr(specs, "cells") and hasattr(specs, "base"):  # SweepSpec, duck-typed
            expanded: Iterable[Any] = specs.specs()
        elif isinstance(specs, (SearchSpec, Mapping)):
            raise TypeError(
                "Engine.run_many/stream take a SweepSpec or an iterable of specs; "
                "for a single scenario use Engine.run(spec)"
            )
        else:
            expanded = specs
        return [
            spec if isinstance(spec, SearchSpec) else SearchSpec.from_dict(spec)
            for spec in expanded
        ]

    def _storable_spec(self, spec: SearchSpec) -> SearchSpec:
        """The spec whose content address identifies this run's *result*.

        ``simulated_seconds`` depends on the effective cost model, which for
        a spec with ``units_per_ghz=None`` is an engine-level setting the
        spec itself does not capture.  Pinning the engine's rate into the
        spec keeps the content address faithful: the same sweep run on an
        engine with a different calibration stores under different keys
        instead of silently reusing mismatched timings.  The batch layer
        *executes* the pinned spec too (it resolves to the identical cost
        model), so the reports it returns echo the exact spec their store
        records carry, fresh and cached runs alike.
        """
        if spec.units_per_ghz is None and self.cost_model is not None:
            return spec.replace(units_per_ghz=self.cost_model.units_per_ghz_per_second)
        return spec

    def stream(
        self,
        specs: BatchInput,
        *,
        store: Optional["ResultStore"] = None,
        error_policy: str = "raise",
        max_workers: Optional[int] = None,
        executor: str = "inline",
        cancel: Optional[Union[threading.Event, Callable[[], bool]]] = None,
        refresh: bool = False,
    ) -> Iterator[RunEvent]:
        """Execute a batch lazily, yielding a :class:`RunEvent` stream.

        Cache hits resolve first: every cell whose record is in ``store``
        yields its ``"cached"`` event before any cell starts.  The remaining
        cells then run on one of two runners — inline or the worker-process
        pool — and this one loop turns what they report into
        ``"started"``/``"completed"``/``"failed"`` events, writes the store
        and applies the error policy, whichever runner it is.

        Parameters
        ----------
        specs:
            A :class:`~repro.lab.sweep.SweepSpec` or an iterable of
            :class:`SearchSpec` / spec dicts.
        store:
            Optional :class:`~repro.lab.store.ResultStore`: cells whose key
            is already present resolve to ``"cached"`` events without
            executing any search, and completed cells are persisted (by the
            consuming thread, exactly once), so an interrupted batch resumes
            for free.
        error_policy:
            ``"raise"`` (default) re-raises a cell's exception after
            emitting its ``"failed"`` event and letting cells already
            running finish; ``"skip"`` keeps going.
        max_workers:
            The worker-*process* count of ``executor="process"`` (``None`` =
            ``os.cpu_count()``); passing it with the inline executor raises
            ``ValueError``.  Simulated time is unaffected — only wall time
            is.
        executor:
            ``"inline"`` (default) runs cells one at a time on the consuming
            thread, in cell order.  ``"process"`` ships cache-missing cells,
            in chunks of :func:`repro.lab.procpool.auto_chunk_size` cells
            per task frame, to the shared worker-process pool
            (:func:`repro.lab.procpool.run_batch`), where each worker runs
            them through its own :class:`Engine` — CPU-bound cells then
            scale past the GIL.  ``"started"`` is emitted as a chunk fills,
            events arrive in completion order, and worker failures come back
            as :class:`~repro.lab.procpool.RemoteCellError`.  The stream
            holds the pool (one batch at a time) until it ends, so starting
            another process stream from inside its consumer loop deadlocks.
            A cell the pool skips without a cancel (the pool was closed
            under the batch) fails with ``RuntimeError``.
        cancel:
            A :class:`threading.Event` or zero-argument callable; when set,
            no further cell starts (cells already running finish and their
            events are delivered).  Cells already handed to the pool but not
            yet running re-check the flag when their turn comes and are
            skipped without executing (they emit no terminal event, so the
            stream may end with ``done < total``).  Cache hits are not
            cells that start: they are reported even when the flag is set.
        refresh:
            Skip the store lookup (re-execute every cell) while still
            persisting results — a forced re-run against the same store.
        """
        if error_policy not in ("raise", "skip"):
            raise ValueError(f"unknown error_policy {error_policy!r}; use 'raise' or 'skip'")
        if executor not in ("inline", "process"):
            raise ValueError(f"unknown executor {executor!r}; use 'inline' or 'process'")
        if executor == "inline" and max_workers is not None:
            raise ValueError(
                "max_workers is a worker-process count; pass it with executor='process'"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 when given")
        if cancel is None:
            cancelled = lambda: False  # noqa: E731 - tiny local predicate
        elif isinstance(cancel, threading.Event):
            cancelled = cancel.is_set
        else:
            cancelled = cancel
        batch = [self._storable_spec(spec) for spec in self._expand_batch(specs)]
        total = len(batch)
        done = 0
        pending: List[Tuple[int, SearchSpec]] = []
        for index, spec in enumerate(batch):
            report = None if store is None or refresh else store.get(spec)
            if report is None:
                pending.append((index, spec))
                continue
            done += 1
            _CELL_EVENTS["cached"].inc()
            yield RunEvent("cached", index, total, spec, report=report, done=done)

        first_error: Optional[BaseException] = None

        def stop() -> bool:
            return first_error is not None or cancelled()

        if executor == "process":
            from repro.lab.procpool import run_batch

            cells = run_batch(pending, stop, max_workers)
        else:
            cells = self._inline_cells(pending, stop)
        try:
            for index, kind, result in cells:
                spec = batch[index]
                if kind == "started":
                    _CELL_EVENTS["started"].inc()
                    yield RunEvent("started", index, total, spec, done=done)
                    continue
                done += 1
                if kind == "failed":
                    _CELL_EVENTS["failed"].inc()
                    yield RunEvent("failed", index, total, spec, error=result, done=done)
                    if error_policy == "raise" and first_error is None:
                        first_error = result
                    continue
                if store is not None:
                    store.put(spec, result)
                _CELL_EVENTS["completed"].inc()
                yield RunEvent("completed", index, total, spec, report=result, done=done)
        finally:
            # Release a runner the consumer abandoned: its pool, its batch.
            cells.close()
        if first_error is not None:
            raise first_error

    # Runners (this one and repro.lab.procpool.run_batch): each takes the
    # cache-missing ``(index, spec)`` cells and a ``stop`` predicate, and
    # yields ``(index, "started", None)`` before a cell runs, then
    # ``(index, "completed", report)`` or ``(index, "failed", exception)``.
    # A cell skipped because ``stop`` turned true yields nothing more.
    def _inline_cells(
        self, pending: List[Tuple[int, SearchSpec]], stop: Callable[[], bool]
    ) -> Generator[Tuple[int, str, Any], None, None]:
        """Run cells one at a time on the consuming thread, in cell order."""
        for index, spec in pending:
            if stop():
                return
            yield index, "started", None
            try:
                report = self.run(spec)
            except Exception as exc:
                yield index, "failed", exc
            else:
                yield index, "completed", report

    def run_many(
        self,
        specs: BatchInput,
        *,
        store: Optional["ResultStore"] = None,
        on_event: Optional[Callable[[RunEvent], None]] = None,
        error_policy: str = "raise",
        max_workers: Optional[int] = None,
        executor: str = "inline",
        cancel: Optional[Union[threading.Event, Callable[[], bool]]] = None,
        refresh: bool = False,
    ) -> List[RunReport]:
        """Execute a batch (or a whole :class:`SweepSpec`) and return its reports.

        A thin collector over :meth:`stream`: reports come back in cell
        order whatever the executor is, cells that failed under
        ``error_policy="skip"`` are absent, and ``on_event`` observes every
        :class:`RunEvent` as it happens (progress callbacks, logging, ...).
        ``executor="process"`` runs cells on the persistent worker-process
        pool (see :meth:`stream`).
        """
        reports: Dict[int, RunReport] = {}
        for event in self.stream(
            specs,
            store=store,
            error_policy=error_policy,
            max_workers=max_workers,
            executor=executor,
            cancel=cancel,
            refresh=refresh,
        ):
            if on_event is not None:
                on_event(event)
            if event.report is not None:
                reports[event.index] = event.report
        return [reports[index] for index in sorted(reports)]


# --------------------------------------------------------------------------- #
# Built-in algorithms
# --------------------------------------------------------------------------- #
@register_algorithm(
    "sample",
    description="one uniformly random playout (level ignored)",
    supports_budget=False,
)
def _alg_sample(state, level, seeds, counter, budget, params) -> SearchResult:
    return sample(state, seeds=seeds, counter=counter)


@register_algorithm(
    "flat",
    description="flat Monte-Carlo move selection",
    seed_label="flat",
    params=("playouts_per_move", "aggregation"),
)
def _alg_flat(state, level, seeds, counter, budget, params) -> SearchResult:
    return flat_monte_carlo(
        state,
        playouts_per_move=int(params.get("playouts_per_move", 1)),
        seeds=seeds,
        aggregation=params.get("aggregation", "max"),
        counter=counter,
        max_steps=budget,
    )


@register_algorithm("nmcs", description="Nested Monte-Carlo Search (the paper's algorithm)")
def _alg_nmcs(state, level, seeds, counter, budget, params) -> SearchResult:
    return nested_search(state, level, seeds, counter=counter, max_steps=budget)


@register_algorithm(
    "reflexive",
    description="reflexive Monte-Carlo search (no best-sequence memorisation)",
    seed_label="reflexive",
)
def _alg_reflexive(state, level, seeds, counter, budget, params) -> SearchResult:
    return reflexive_search(state, level, seeds, counter=counter, max_steps=budget)


@register_algorithm(
    "iterated",
    description="multi-restart NMCS, keeps the best sequence",
    supports_budget=False,
    params=("restarts", "work_budget"),
)
def _alg_iterated(state, level, seeds, counter, budget, params) -> SearchResult:
    return iterated_search(
        state,
        level,
        seeds,
        restarts=int(params.get("restarts", 2)),
        work_budget=params.get("work_budget"),
        counter=counter,
    )


@register_algorithm(
    "nrpa",
    description="Nested Rollout Policy Adaptation (Rosin 2011)",
    seed_label="nrpa",
    supports_budget=False,
    params=("iterations", "alpha"),
)
def _alg_nrpa(state, level, seeds, counter, budget, params) -> SearchResult:
    return nrpa_search(
        state,
        level,
        seeds,
        iterations=int(params.get("iterations", 3)),
        alpha=float(params.get("alpha", 1.0)),
        counter=counter,
    )


# --------------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------------- #
@register_backend(
    "sequential",
    description="single simulated core; runs every registered algorithm",
)
def _backend_sequential(spec: SearchSpec, algorithm: AlgorithmEntry, ctx: RunContext) -> RunReport:
    counter = WorkCounter()
    seeds = SeedSequence(spec.seed, algorithm.seed_label)
    start = time.perf_counter()
    result = algorithm.fn(ctx.state, ctx.level, seeds, counter, spec.max_steps, spec.params)
    wall = time.perf_counter() - start
    work = float(counter.moves)
    return RunReport(
        spec=spec,
        algorithm=algorithm.name,
        backend=spec.backend,
        level=ctx.level,
        score=result.score,
        sequence=tuple(result.sequence),
        work_units=work,
        simulated_seconds=ctx.cost_model.seconds_for(work, spec.freq_ghz),
        wall_seconds=wall,
        raw=result,
    )


@register_backend(
    "sim-cluster",
    description="paper's root/median/dispatcher/client architecture on the discrete-event kernel",
    algorithms=("nmcs",),
    params=("lm_fifo_jobs",),
)
def _backend_sim_cluster(spec: SearchSpec, algorithm: AlgorithmEntry, ctx: RunContext) -> RunReport:
    from repro.analysis.commpattern import communication_counts

    config = parallel_config(spec, ctx.level)
    cluster = build_cluster(spec)
    start = time.perf_counter()
    run = run_parallel_nmcs(ctx.state, config, cluster, ctx.executor, ctx.cost_model)
    wall = time.perf_counter() - start
    return RunReport(
        spec=spec,
        algorithm=algorithm.name,
        backend=spec.backend,
        level=ctx.level,
        score=run.score,
        sequence=tuple(run.result.sequence),
        work_units=run.total_client_work,
        simulated_seconds=run.simulated_seconds,
        wall_seconds=wall,
        n_jobs=run.n_jobs,
        n_workers=cluster.n_clients,
        comm=communication_counts(run.trace),
        client_utilisation=run.client_utilisation(),
        kernel_stats=run.kernel_stats.to_dict() if run.kernel_stats is not None else None,
        raw=run,
    )
