"""Tests for cluster topologies and execution traces."""

from __future__ import annotations

import pytest

from repro.cluster.topology import (
    ClientPlacement,
    ClusterSpec,
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
    single_machine,
)
from repro.cluster.node import NodeSpec
from repro.cluster.trace import ComputeRecord, MessageRecord, Trace


class TestTopologies:
    def test_homogeneous_counts(self):
        cluster = homogeneous_cluster(8)
        assert cluster.n_clients == 8
        # 4 dual-core PCs with 2 clients each, plus the server node
        assert len(cluster.nodes) == 5
        assert cluster.server_node == "server"

    def test_homogeneous_odd_client_count(self):
        cluster = homogeneous_cluster(5, clients_per_node=2)
        assert cluster.n_clients == 5

    def test_paper_cluster_64(self):
        cluster = paper_cluster(64)
        assert cluster.n_clients == 64
        slow = [n for n in cluster.nodes if n.freq_ghz == 1.86]
        fast = [n for n in cluster.nodes if n.freq_ghz == 2.33 and n.cores == 2]
        assert len(slow) == 20 and len(fast) == 12
        # frequency correction ratio of the paper: r = 1.09
        assert cluster.frequency_ratio() == pytest.approx(1.09, abs=0.005)

    def test_paper_cluster_32_uses_slow_pcs_only(self):
        cluster = paper_cluster(32)
        used_nodes = {cluster.node(c.node_name) for c in cluster.clients}
        assert all(n.freq_ghz == 1.86 for n in used_nodes)

    def test_paper_cluster_bounds(self):
        with pytest.raises(ValueError):
            paper_cluster(0)
        with pytest.raises(ValueError):
            paper_cluster(65)

    def test_heterogeneous_cluster(self):
        cluster = heterogeneous_cluster(16, 16)
        assert cluster.n_clients == 16 * 4 + 16 * 2
        over = [c for c in cluster.clients if c.node_name.startswith("over")]
        assert len(over) == 64
        assert "16x4+16x2" in cluster.description

    def test_single_machine(self):
        cluster = single_machine(4)
        assert cluster.n_clients == 4
        assert len(cluster.nodes) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            homogeneous_cluster(0)
        with pytest.raises(ValueError):
            heterogeneous_cluster(0, 0)
        node = NodeSpec(name="a")
        with pytest.raises(ValueError):
            ClusterSpec(nodes=[node], clients=[ClientPlacement("c", "missing")], server_node="a")
        with pytest.raises(ValueError):
            ClusterSpec(nodes=[node], clients=[], server_node="missing")
        with pytest.raises(ValueError):
            ClusterSpec(nodes=[node, node], clients=[], server_node="a")

    def test_node_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(name="x", freq_ghz=0)
        with pytest.raises(ValueError):
            NodeSpec(name="x", cores=0)

    def test_node_lookup(self):
        cluster = homogeneous_cluster(2)
        assert cluster.node("server").cores == 4
        with pytest.raises(KeyError):
            cluster.node("nope")


class TestTrace:
    def make_trace(self) -> Trace:
        trace = Trace()
        trace.record_message("a", "b", 1, {"k": 1}, 10.0, 0.0, 0.5)
        trace.record_message("b", "a", 2, "reply", 5.0, 0.5, 1.0)
        trace.record_compute("client-0", "n0", 0.0, 2.0, 20.0)
        trace.record_compute("client-1", "n0", 1.0, 3.0, 20.0)
        trace.record_compute("client-0", "n0", 2.0, 4.0, 10.0)
        return trace

    def test_queries(self):
        trace = self.make_trace()
        assert len(trace.messages_between("a", "b")) == 1
        assert len(trace.messages_by_type("dict")) == 1
        assert trace.total_work("client") == 50.0
        assert trace.busy_time("client-0") == pytest.approx(4.0)
        assert trace.makespan() == pytest.approx(4.0)
        assert trace.communication_edges() == {("a", "b"): 1, ("b", "a"): 1}

    def test_concurrency(self):
        trace = self.make_trace()
        assert trace.max_concurrency("client") == 2
        assert trace.mean_concurrency("client") == pytest.approx(6.0 / 4.0)

    def test_back_to_back_not_counted_as_overlap(self):
        trace = Trace()
        trace.record_compute("client-0", "n0", 0.0, 1.0, 1.0)
        trace.record_compute("client-0", "n0", 1.0, 2.0, 1.0)
        assert trace.max_concurrency("client") == 1

    def test_a_trace_without_a_log_keeps_tallies_and_computes(self):
        trace = Trace(log_messages=False)
        trace.record_message("a", "b", 0, None, 0.0, 0.0, 5.0)
        trace.record_compute("c", "n", 0.0, 1.0, 1.0)
        assert len(trace.computes) == 1
        assert trace.payload_counts() == {"NoneType": 1}
        assert trace.makespan() == 5.0
        for query in (
            lambda: trace.messages,
            lambda: trace.messages_between("a", "b"),
            lambda: trace.messages_by_type("NoneType"),
            trace.communication_edges,
        ):
            with pytest.raises(ValueError, match="no message log"):
                query()
        with pytest.raises(ValueError, match="keeps no messages"):
            Trace(messages=[], log_messages=False)

    def test_clear(self):
        trace = self.make_trace()
        trace.clear()
        assert trace.makespan() == 0.0
        assert trace.mean_concurrency() == 0.0
