"""Simulated heterogeneous compute cluster with MPI-style message passing.

The paper's experiments ran on a physical cluster (20 dual-core 1.86 GHz PCs,
12 dual-core 2.33 GHz PCs and a quad-core server on Gigabit Ethernet) using
Open MPI.  This package provides the equivalent substrate for the
reproduction: a deterministic discrete-event simulator in which

* **nodes** have a frequency and a core count, and share their cores between
  the client processes running on them (proportional sharing — this is what
  makes oversubscribed heterogeneous configurations slow, the effect the
  Last-Minute algorithm exploits);
* **processes** are Python generators exchanging messages through an
  MPI-flavoured interface (``send`` / ``recv`` with tags and ``ANY_SOURCE``);
* **the network** adds per-message latency and bandwidth-proportional delay,
  preserving per-sender/receiver ordering like MPI;
* every computation, and a tally of every message (the messages themselves
  on request), is recorded in a :class:`~repro.cluster.trace.Trace` for the
  communication-pattern analyses of Figures 2–5.

The search work executed by simulated client processes is *real* (the nested
searches actually run and their results are exact); only elapsed time is
simulated, derived from the amount of work done and the node's speed through
the :mod:`repro.timemodel` cost model.
"""

from repro.cluster.events import Event, EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.node import NodeSpec, Node
from repro.cluster.process import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    ProcessContext,
    SimProcess,
    Compute,
    Send,
    Recv,
    Sleep,
)
from repro.cluster.simulator import Kernel
from repro.cluster.topology import ClusterSpec, ClientPlacement, paper_cluster, homogeneous_cluster, heterogeneous_cluster
from repro.cluster.trace import Trace, MessageRecord, ComputeRecord

__all__ = [
    "Event",
    "EventQueue",
    "NetworkModel",
    "NodeSpec",
    "Node",
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "ProcessContext",
    "SimProcess",
    "Compute",
    "Send",
    "Recv",
    "Sleep",
    "Kernel",
    "ClusterSpec",
    "ClientPlacement",
    "paper_cluster",
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "Trace",
    "MessageRecord",
    "ComputeRecord",
]
