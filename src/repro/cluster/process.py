"""Simulated processes and their system calls.

A simulated process is a Python generator that *yields* syscall objects
(:class:`Send`, :class:`Recv`, :class:`Compute`, :class:`Sleep`) and receives
the syscall's result when it is resumed — the classic coroutine style of
discrete-event frameworks.  The :class:`ProcessContext` passed to each process
constructs the syscalls and exposes the process' identity and the current
simulated time.

The messaging interface follows the subset of MPI the paper's pseudo-code
uses: point-to-point ``send`` / ``recv`` with integer tags, a wildcard source
(``ANY_SOURCE``) and a wildcard tag (``ANY_TAG``).  Receives return a
:class:`Message` carrying the sender's name, the tag and the payload, which is
what "receive node from any node" in the Last-Minute dispatcher pseudo-code
needs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Generator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import Kernel

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Mailbox",
    "Syscall",
    "Send",
    "Recv",
    "Compute",
    "Sleep",
    "ProcessState",
    "SimProcess",
    "ProcessContext",
]


class _Wildcard:
    """Sentinel for wildcard source / tag matching."""

    def __init__(self, label: str) -> None:
        self._label = label

    def __repr__(self) -> str:
        return self._label


ANY_SOURCE = _Wildcard("ANY_SOURCE")
ANY_TAG = _Wildcard("ANY_TAG")


@dataclass(slots=True)
class Message:
    """A delivered message: who sent it, with which tag, carrying what.

    Built for every delivery, so it is a slotted, unfrozen dataclass (a
    frozen one costs about four times as much to build); no one changes a
    message once it is built.
    """

    source: str
    tag: int
    payload: Any
    sent_at: float
    received_at: float


class Syscall:
    """Base class of everything a simulated process may ``yield``.

    Syscalls are built for every step of every process, so they are slotted
    and unfrozen, like :class:`Message`; no one changes one once it is built.
    """

    __slots__ = ()


@dataclass(slots=True)
class Send(Syscall):
    """Send ``payload`` to the process named ``dest`` (non-blocking, buffered)."""

    dest: str
    payload: Any
    tag: int = 0
    size_bytes: float = 256.0


@dataclass(slots=True)
class Recv(Syscall):
    """Block until a message matching ``source`` and ``tag`` is available."""

    source: Any = ANY_SOURCE
    tag: Any = ANY_TAG


@dataclass(slots=True)
class Compute(Syscall):
    """Perform ``work_units`` of computation on the process' node."""

    work_units: float


@dataclass(slots=True)
class Sleep(Syscall):
    """Advance simulated time by ``seconds`` without using the processor."""

    seconds: float


class Mailbox:
    """Buffered messages of one process, indexed by tag.

    Receives almost always name a tag (the root/median/client protocol keeps
    its planes on distinct tags), so messages are bucketed into per-tag FIFO
    queues: a tag-filtered receive pops the head of one bucket instead of
    scanning every buffered message.  A global enqueue sequence per message
    preserves the exact matching semantics of a single FIFO list — whatever
    the filter, the *earliest delivered* matching message wins — so wildcard
    receives (``ANY_TAG``) compare bucket heads and source-filtered receives
    scan only their tag's bucket.
    """

    __slots__ = ("_by_tag", "_seq", "_size")

    def __init__(self) -> None:
        self._by_tag: Dict[Any, Deque[Tuple[int, Message]]] = {}
        self._seq = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def append(self, message: Message) -> None:
        """Buffer a delivered message (called by the kernel)."""
        bucket = self._by_tag.get(message.tag)
        if bucket is None:
            bucket = self._by_tag[message.tag] = deque()
        bucket.append((self._seq, message))
        self._seq += 1
        self._size += 1

    def pop_match(self, recv: "Recv") -> Optional["Message"]:
        """Remove and return the earliest message matching ``recv`` (or None)."""
        if recv.tag is ANY_TAG:
            buckets = self._by_tag.values()
        else:
            bucket = self._by_tag.get(recv.tag)
            buckets = (bucket,) if bucket is not None else ()
        best_bucket: Optional[Deque[Tuple[int, Message]]] = None
        best_index = 0
        best_seq = -1
        for bucket in buckets:
            if not bucket:
                continue
            if recv.source is ANY_SOURCE:
                index = 0
            else:
                index = next(
                    (i for i, (_, m) in enumerate(bucket) if m.source == recv.source), -1
                )
                if index < 0:
                    continue
            seq = bucket[index][0]
            if best_bucket is None or seq < best_seq:
                best_bucket, best_index, best_seq = bucket, index, seq
        if best_bucket is None:
            return None
        if best_index == 0:
            message = best_bucket.popleft()[1]
        else:
            message = best_bucket[best_index][1]
            del best_bucket[best_index]
        self._size -= 1
        return message


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED_RECV = "blocked_recv"
    COMPUTING = "computing"
    SLEEPING = "sleeping"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass
class SimProcess:
    """Kernel-side record of one simulated process."""

    name: str
    node_name: str
    generator: Generator[Syscall, Any, Any]
    state: ProcessState = ProcessState.READY
    pending_recv: Optional[Recv] = None
    mailbox: Mailbox = field(default_factory=Mailbox)
    return_value: Any = None
    exception: Optional[BaseException] = None
    started_at: float = 0.0
    finished_at: Optional[float] = None

    def matches(self, message: Message, recv: Recv) -> bool:
        """Does ``message`` satisfy the pending ``recv`` specification?"""
        if recv.source is not ANY_SOURCE and message.source != recv.source:
            return False
        if recv.tag is not ANY_TAG and message.tag != recv.tag:
            return False
        return True


class ProcessContext:
    """The handle a simulated process uses to interact with the kernel."""

    def __init__(self, kernel: "Kernel", name: str, node_name: str) -> None:
        self._kernel = kernel
        self.name = name
        self.node_name = node_name

    # -- syscall constructors ------------------------------------------- #
    def send(self, dest: str, payload: Any, tag: int = 0, size_bytes: float = 256.0) -> Send:
        """Send ``payload`` to ``dest``; yield the returned object."""
        return Send(dest, payload, tag, size_bytes)

    def recv(self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG) -> Recv:
        """Receive a matching message; yield the returned object."""
        return Recv(source, tag)

    def compute(self, work_units: float) -> Compute:
        """Perform ``work_units`` of computation; yield the returned object."""
        return Compute(float(work_units))

    def sleep(self, seconds: float) -> Sleep:
        """Idle for ``seconds`` of simulated time; yield the returned object."""
        return Sleep(float(seconds))

    # -- introspection --------------------------------------------------- #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._kernel.now
