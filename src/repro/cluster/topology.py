"""Cluster topologies: node specifications and client placements.

Section V of the paper describes the physical cluster:

    "Our cluster is composed of 20 1.86 GHz dual core PCs, 12 2.33 GHz dual
     core PCs and one quad core server connected with a Gigabit network. [...]
     Each node runs two client processes. [...] The server runs the root
     process as well as all the median processes and the dispatcher."

and Table VI uses heterogeneous repartitions "16x4+16x2" (16 PCs running 4
clients and 16 PCs running 2 clients) and "8x4+8x2".

A :class:`ClusterSpec` lists the nodes and where each client process runs;
the root, the median processes and the dispatcher are always placed on the
server node, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import NodeSpec

__all__ = [
    "ClientPlacement",
    "ClusterSpec",
    "paper_cluster",
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "single_machine",
]

#: Frequencies of the two PC generations in the authors' cluster (GHz).
SLOW_PC_GHZ = 1.86
FAST_PC_GHZ = 2.33
SERVER_GHZ = 2.33
SERVER_CORES = 4


@dataclass(frozen=True)
class ClientPlacement:
    """One client process and the node it runs on."""

    client_name: str
    node_name: str


@dataclass
class ClusterSpec:
    """A full cluster description: nodes, client placement and the server node."""

    nodes: List[NodeSpec]
    clients: List[ClientPlacement]
    server_node: str
    description: str = ""

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        if self.server_node not in names:
            raise ValueError(f"server node {self.server_node!r} is not in the node list")
        known = set(names)
        for placement in self.clients:
            if placement.node_name not in known:
                raise ValueError(
                    f"client {placement.client_name} placed on unknown node {placement.node_name}"
                )
        client_names = [c.client_name for c in self.clients]
        if len(set(client_names)) != len(client_names):
            raise ValueError("client names must be unique")

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def node(self, name: str) -> NodeSpec:
        """The :class:`NodeSpec` with the given name."""
        for spec in self.nodes:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def client_names(self) -> List[str]:
        """Names of every client process, in placement order."""
        return [c.client_name for c in self.clients]

    def mean_frequency(self) -> float:
        """Mean node frequency weighted by client count (paper's ``r`` ratio)."""
        if not self.clients:
            return 0.0
        total = sum(self.node(c.node_name).freq_ghz for c in self.clients)
        return total / len(self.clients)

    def frequency_ratio(self, reference_ghz: float = SLOW_PC_GHZ) -> float:
        """The paper's correction ratio ``r = mean client frequency / reference``.

        Section V: with 20 PCs at 1.86 GHz and 12 at 2.33 GHz,
        ``r = ((20*1.86 + 12*2.33) / 32) / 1.86 = 1.09``.
        """
        return self.mean_frequency() / reference_ghz


def _server_node() -> NodeSpec:
    return NodeSpec(name="server", freq_ghz=SERVER_GHZ, cores=SERVER_CORES)


def homogeneous_cluster(
    n_clients: int,
    freq_ghz: float = SLOW_PC_GHZ,
    cores_per_node: int = 2,
    clients_per_node: int = 2,
    description: Optional[str] = None,
) -> ClusterSpec:
    """A cluster of identical dual-core PCs running ``clients_per_node`` clients each.

    This is the configuration of the 1–32 client rows of Tables II–V (those
    runs only used the 1.86 GHz PCs, as the paper notes for the 32-client row).
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if clients_per_node < 1 or cores_per_node < 1:
        raise ValueError("clients_per_node and cores_per_node must be >= 1")
    nodes = [_server_node()]
    clients: List[ClientPlacement] = []
    n_nodes = (n_clients + clients_per_node - 1) // clients_per_node
    client_index = 0
    for i in range(n_nodes):
        name = f"pc-{i:02d}"
        nodes.append(NodeSpec(name=name, freq_ghz=freq_ghz, cores=cores_per_node))
        for _ in range(clients_per_node):
            if client_index >= n_clients:
                break
            clients.append(ClientPlacement(f"client-{client_index:03d}", name))
            client_index += 1
    return ClusterSpec(
        nodes=nodes,
        clients=clients,
        server_node="server",
        description=description
        or f"homogeneous: {n_clients} clients on {n_nodes} x {freq_ghz} GHz PCs",
    )


def paper_cluster(n_clients: int = 64) -> ClusterSpec:
    """The authors' 64-client cluster: 20 slow + 12 fast dual-core PCs.

    With fewer than 64 clients requested, slow (1.86 GHz) PCs are used first,
    matching the paper's note that the 32-client results "are obtained using
    only 1.86 GHz PCs".
    """
    if not 1 <= n_clients <= 64:
        raise ValueError("the paper's cluster hosts between 1 and 64 clients")
    nodes = [_server_node()]
    for i in range(20):
        nodes.append(NodeSpec(name=f"slow-{i:02d}", freq_ghz=SLOW_PC_GHZ, cores=2))
    for i in range(12):
        nodes.append(NodeSpec(name=f"fast-{i:02d}", freq_ghz=FAST_PC_GHZ, cores=2))
    pc_order = [f"slow-{i:02d}" for i in range(20)] + [f"fast-{i:02d}" for i in range(12)]
    clients: List[ClientPlacement] = []
    for c in range(n_clients):
        node_name = pc_order[(c // 2) % len(pc_order)]
        clients.append(ClientPlacement(f"client-{c:03d}", node_name))
    return ClusterSpec(
        nodes=nodes,
        clients=clients,
        server_node="server",
        description=f"paper cluster with {n_clients} clients (20x1.86 + 12x2.33 dual-core)",
    )


def heterogeneous_cluster(
    n_oversubscribed: int,
    n_regular: int,
    clients_on_oversubscribed: int = 4,
    clients_on_regular: int = 2,
    freq_ghz: float = SLOW_PC_GHZ,
    cores_per_node: int = 2,
) -> ClusterSpec:
    """Table VI style heterogeneous repartitions (e.g. ``16x4+16x2``).

    ``n_oversubscribed`` dual-core PCs run ``clients_on_oversubscribed``
    clients each (they are CPU-oversubscribed and therefore slow per client),
    and ``n_regular`` PCs run ``clients_on_regular`` clients each.
    """
    if n_oversubscribed < 0 or n_regular < 0 or n_oversubscribed + n_regular == 0:
        raise ValueError("need at least one PC")
    nodes = [_server_node()]
    clients: List[ClientPlacement] = []
    client_index = 0
    for i in range(n_oversubscribed):
        name = f"over-{i:02d}"
        nodes.append(NodeSpec(name=name, freq_ghz=freq_ghz, cores=cores_per_node))
        for _ in range(clients_on_oversubscribed):
            clients.append(ClientPlacement(f"client-{client_index:03d}", name))
            client_index += 1
    for i in range(n_regular):
        name = f"reg-{i:02d}"
        nodes.append(NodeSpec(name=name, freq_ghz=freq_ghz, cores=cores_per_node))
        for _ in range(clients_on_regular):
            clients.append(ClientPlacement(f"client-{client_index:03d}", name))
            client_index += 1
    return ClusterSpec(
        nodes=nodes,
        clients=clients,
        server_node="server",
        description=(
            f"heterogeneous: {n_oversubscribed}x{clients_on_oversubscribed}"
            f"+{n_regular}x{clients_on_regular} clients"
        ),
    )


def single_machine(n_clients: int = 4, freq_ghz: float = 2.33, cores: int = 4) -> ClusterSpec:
    """Everything (root, medians, dispatcher, clients) on one multi-core host.

    This is the ``"single"`` cluster descriptor of :class:`repro.api.SearchSpec`.
    """
    node = NodeSpec(name="host", freq_ghz=freq_ghz, cores=cores)
    clients = [ClientPlacement(f"client-{i:03d}", "host") for i in range(n_clients)]
    return ClusterSpec(
        nodes=[node],
        clients=clients,
        server_node="host",
        description=f"single machine with {n_clients} clients on {cores} cores",
    )
