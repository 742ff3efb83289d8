"""The discrete-event kernel tying processes, nodes and the network together.

The :class:`Kernel` owns the event queue, the simulated clock, the registered
nodes and processes, the network model, the cost model and the execution
trace.  Simulated processes are generators yielding syscalls (see
:mod:`repro.cluster.process`); the kernel interprets each syscall, schedules
the corresponding events and resumes the process with the syscall's result.

Determinism: all ties are broken by scheduling order (see
:mod:`repro.cluster.events`), there is no randomness anywhere in the kernel,
and message delivery preserves per-(sender, receiver) ordering.  Two runs of
the same workload on the same topology produce bit-identical traces.

Processes are resumed through events whose arguments carry the
:class:`SimProcess` itself rather than its name, so a resumption needs no
lookup.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.cluster.events import Event, EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node, NodeSpec
from repro.cluster.process import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Message,
    ProcessContext,
    ProcessState,
    Recv,
    Send,
    SimProcess,
    Sleep,
    Syscall,
)
from repro.cluster.trace import Trace
from repro.obs import enabled as _obs_enabled
from repro.obs import metrics as _obs_metrics
from repro.timemodel.cost import CostModel

__all__ = ["Kernel", "KernelStats", "SimulationError"]

# Telemetry (no-ops unless repro.obs is enabled).  Counters accumulate the
# per-``Kernel.run`` deltas; the gauge tracks the latest run's event rate.
_KERNEL_EVENTS = _obs_metrics.counter(
    "repro_kernel_events_fired_total", "events fired by Kernel.run calls"
)
_KERNEL_SIM_SECONDS = _obs_metrics.counter(
    "repro_kernel_simulated_seconds_total", "simulated seconds advanced by Kernel.run calls"
)
_KERNEL_WALL_SECONDS = _obs_metrics.counter(
    "repro_kernel_wall_seconds_total", "wall-clock seconds spent inside Kernel.run"
)
_KERNEL_EVENT_RATE = _obs_metrics.gauge(
    "repro_kernel_events_per_simulated_second",
    "events fired per simulated second in the most recent Kernel.run",
)


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state (e.g. deadlock)."""


@dataclass
class KernelStats:
    """Diagnostics of one kernel's event loop (cumulative across ``run`` calls).

    ``events_cancelled`` counts events that were cancelled before firing
    (completion re-aims on node load changes, mostly); ``peak_queue_size``
    is the largest the event heap ever grew (cancelled entries included —
    it measures memory, not live work); ``compactions`` counts in-place
    heap rebuilds that reclaimed cancelled entries.  ``wall_seconds`` is
    real time spent inside :meth:`Kernel.run`, so
    ``wall_seconds_per_simulated_second`` is the simulator's slowdown
    factor — the pathology metric for latency-dominated runs.
    """

    events_fired: int = 0
    events_scheduled: int = 0
    events_cancelled: int = 0
    peak_queue_size: int = 0
    compactions: int = 0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def wall_seconds_per_simulated_second(self) -> Optional[float]:
        """Real seconds burnt per simulated second (None before any time passes)."""
        if self.simulated_seconds <= 0:
            return None
        return self.wall_seconds / self.simulated_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_fired": self.events_fired,
            "events_scheduled": self.events_scheduled,
            "events_cancelled": self.events_cancelled,
            "peak_queue_size": self.peak_queue_size,
            "compactions": self.compactions,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "wall_seconds_per_simulated_second": self.wall_seconds_per_simulated_second,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelStats":
        """Rebuild stats from their :meth:`to_dict` form (exact round-trip).

        ``wall_seconds_per_simulated_second`` is derived, so it is ignored on
        input and recomputed from the stored fields.
        """
        return cls(
            events_fired=int(data.get("events_fired", 0)),
            events_scheduled=int(data.get("events_scheduled", 0)),
            events_cancelled=int(data.get("events_cancelled", 0)),
            peak_queue_size=int(data.get("peak_queue_size", 0)),
            compactions=int(data.get("compactions", 0)),
            simulated_seconds=float(data.get("simulated_seconds", 0.0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )


class Kernel:
    """Discrete-event simulation kernel."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.network = network if network is not None else NetworkModel()
        self.trace = trace if trace is not None else Trace()
        self._nodes: Dict[str, Node] = {}
        self._processes: Dict[str, SimProcess] = {}
        self._contexts: Dict[str, ProcessContext] = {}
        self._last_delivery: Dict[tuple, float] = {}
        self._finished_count = 0
        self._events_fired = 0
        self._wall_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Topology registration
    # ------------------------------------------------------------------ #
    def add_node(self, spec: NodeSpec) -> Node:
        """Register a node; returns the simulation-side :class:`Node`."""
        if spec.name in self._nodes:
            raise ValueError(f"duplicate node name {spec.name!r}")
        node = Node(spec, self)
        self._nodes[spec.name] = node
        return node

    def add_nodes(self, specs: Iterable[NodeSpec]) -> None:
        """Register several nodes at once."""
        for spec in specs:
            self.add_node(spec)

    def node(self, name: str) -> Node:
        """The registered node with the given name."""
        return self._nodes[name]

    def nodes(self) -> Dict[str, Node]:
        """All registered nodes by name."""
        return dict(self._nodes)

    # ------------------------------------------------------------------ #
    # Process management
    # ------------------------------------------------------------------ #
    def spawn(
        self,
        name: str,
        node_name: str,
        fn: Callable[..., Generator[Syscall, Any, Any]],
        *args: Any,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a process ``name`` on node ``node_name`` running ``fn(ctx, ...)``.

        ``fn`` must be a generator function whose first parameter is the
        :class:`ProcessContext`.  The process starts at the current simulated
        time (it is resumed through a zero-delay event).
        """
        if name in self._processes:
            raise ValueError(f"duplicate process name {name!r}")
        if node_name not in self._nodes:
            raise ValueError(f"unknown node {node_name!r} for process {name!r}")
        ctx = ProcessContext(self, name, node_name)
        generator = fn(ctx, *args, **kwargs)
        if not hasattr(generator, "send"):
            raise TypeError(f"process function {fn!r} did not return a generator")
        process = SimProcess(name=name, node_name=node_name, generator=generator, started_at=self.now)
        self._processes[name] = process
        self._contexts[name] = ctx
        self.schedule_at(self.now, self._resume, process, None)
        return process

    def process(self, name: str) -> SimProcess:
        """The process record with the given name."""
        return self._processes[name]

    def all_finished(self) -> bool:
        """True when every registered process has finished."""
        return self._finished_count == len(self._processes)

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time`` (>= now)."""
        now = self.now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(f"cannot schedule into the past ({time} < {now})")
            time = now
        return self.queue.push(time, callback, *args)

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback, *args)

    # ------------------------------------------------------------------ #
    # Process resumption and syscall handling
    # ------------------------------------------------------------------ #
    def _resume_now(self, process: SimProcess, value: Any = None) -> None:
        """Schedule ``process`` to resume with ``value`` at the current instant."""
        self.queue.push(self.now, self._resume, process, value)

    def _resume(self, process: SimProcess, value: Any) -> None:
        if process.state is ProcessState.FINISHED or process.state is ProcessState.FAILED:
            return
        process.state = ProcessState.RUNNING
        try:
            syscall = process.generator.send(value)
        except StopIteration as stop:
            process.state = ProcessState.FINISHED
            process.return_value = stop.value
            process.finished_at = self.now
            self._finished_count += 1
            return
        except Exception as exc:
            process.state = ProcessState.FAILED
            process.exception = exc
            process.finished_at = self.now
            self._finished_count += 1
            raise SimulationError(f"process {process.name!r} raised {exc!r}") from exc
        self._handle_syscall(process, syscall)

    def _handle_syscall(self, process: SimProcess, syscall: Syscall) -> None:
        if isinstance(syscall, Send):
            self._do_send(process, syscall)
        elif isinstance(syscall, Recv):
            self._do_recv(process, syscall)
        elif isinstance(syscall, Compute):
            self._do_compute(process, syscall)
        elif isinstance(syscall, Sleep):
            if syscall.seconds < 0:
                raise SimulationError(f"negative sleep from {process.name!r}")
            process.state = ProcessState.SLEEPING
            self.schedule_after(syscall.seconds, self._resume, process, None)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded a non-syscall object {syscall!r}"
            )

    # -- Send ------------------------------------------------------------ #
    def _do_send(self, process: SimProcess, syscall: Send) -> None:
        dest = self._processes.get(syscall.dest)
        if dest is None:
            raise SimulationError(
                f"process {process.name!r} sent a message to unknown process {syscall.dest!r}"
            )
        # Both instants are >= now (delays are non-negative), so they go
        # straight to the queue.
        sent_at = self.now
        network = self.network
        key = (process.name, syscall.dest)
        delivery = sent_at + network.transfer_delay(syscall.size_bytes)
        previous = self._last_delivery.get(key, 0.0)
        if previous > delivery:
            delivery = previous
        self._last_delivery[key] = delivery
        push = self.queue.push
        push(delivery, self._deliver, process.name, dest, syscall, sent_at, delivery)
        # The sender resumes after the (small) send overhead.
        push(sent_at + network.send_overhead_s, self._resume, process, None)

    def _deliver(
        self, source: str, dest: SimProcess, syscall: Send, sent_at: float, delivery: float
    ) -> None:
        tag, payload = syscall.tag, syscall.payload
        message = Message(source, tag, payload, sent_at, delivery)
        self.trace.record_message(
            source, syscall.dest, tag, payload, syscall.size_bytes, sent_at, delivery
        )
        pending = dest.pending_recv
        if (
            pending is not None
            and dest.state is ProcessState.BLOCKED_RECV
            and dest.matches(message, pending)
        ):
            dest.pending_recv = None
            self._resume_now(dest, message)
        else:
            dest.mailbox.append(message)

    # -- Recv ------------------------------------------------------------ #
    def _do_recv(self, process: SimProcess, syscall: Recv) -> None:
        message = process.mailbox.pop_match(syscall)
        if message is not None:
            self._resume_now(process, message)
            return
        process.state = ProcessState.BLOCKED_RECV
        process.pending_recv = syscall

    # -- Compute ---------------------------------------------------------- #
    def _do_compute(self, process: SimProcess, syscall: Compute) -> None:
        if syscall.work_units < 0:
            raise SimulationError(f"negative compute from {process.name!r}")
        process.state = ProcessState.COMPUTING
        if syscall.work_units == 0:
            # A zero-work computation is still a job: record it (start == end)
            # so job counts stay faithful for trivial evaluations.
            self.trace.record_compute(
                pid=process.name,
                node=process.node_name,
                start=self.now,
                end=self.now,
                work=0.0,
            )
            self._resume_now(process)
            return
        self._nodes[process.node_name].start_computation(
            process.name, syscall.work_units, on_complete=lambda: self._resume_now(process)
        )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        until_time: Optional[float] = None,
        until_process: Optional[str] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the simulation and return the final simulated time.

        Stops when the event queue empties, when ``until_time`` is reached,
        when the process named ``until_process`` finishes, or after
        ``max_events`` events — whichever comes first.  The clock never runs
        backwards: an ``until_time`` earlier than :attr:`now` fires nothing
        and leaves the clock where it is.
        """
        target = self._processes.get(until_process) if until_process else None
        if until_process is not None and target is None:
            raise ValueError(f"unknown process {until_process!r}")
        pop = self.queue.pop
        finished, failed = ProcessState.FINISHED, ProcessState.FAILED
        events_fired = 0
        wall_start = _time.perf_counter()
        sim_start = self.now
        try:
            while True:
                if target is not None and (target.state is finished or target.state is failed):
                    break
                if until_time is not None:
                    next_time = self.queue.peek_time()
                    if next_time is None:
                        break
                    if next_time > until_time:
                        if until_time > self.now:
                            self.now = until_time
                        break
                event = pop()
                if event is None:
                    break
                self.now = event.time
                event.callback(*event.args)
                events_fired += 1
                if max_events is not None and events_fired >= max_events:
                    break
        finally:
            wall_delta = _time.perf_counter() - wall_start
            self._events_fired += events_fired
            self._wall_seconds += wall_delta
            self.trace.kernel_stats = self.stats()
            if _obs_enabled():
                sim_delta = max(0.0, self.now - sim_start)
                _KERNEL_EVENTS.inc(events_fired)
                _KERNEL_SIM_SECONDS.inc(sim_delta)
                _KERNEL_WALL_SECONDS.inc(wall_delta)
                if sim_delta > 0:
                    _KERNEL_EVENT_RATE.set(events_fired / sim_delta)
        return self.now

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> KernelStats:
        """A snapshot of this kernel's event-loop diagnostics."""
        return KernelStats(
            events_fired=self._events_fired,
            events_scheduled=self.queue.pushed,
            events_cancelled=self.queue.cancelled_total,
            peak_queue_size=self.queue.peak_size,
            compactions=self.queue.compactions,
            simulated_seconds=self.now,
            wall_seconds=self._wall_seconds,
        )

    def blocked_processes(self) -> List[str]:
        """Names of processes currently blocked on a receive."""
        return [
            p.name for p in self._processes.values() if p.state is ProcessState.BLOCKED_RECV
        ]

    def failed_processes(self) -> List[str]:
        """Names of processes that terminated with an exception."""
        return [p.name for p in self._processes.values() if p.state is ProcessState.FAILED]
