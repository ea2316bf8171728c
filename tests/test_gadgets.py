"""Unit tests for the paper's gadget topologies."""

import networkx as nx
import pytest

from repro.core.exceptions import TopologyError
from repro.graphs import (
    OrientedNetwork,
    figure9_path,
    figure11_graph,
    theorem1_chain,
    theorem1_gadget,
    theorem1_spliced_chain,
    theorem2_gadget,
    theorem2_network,
)
from repro.graphs.topology import Network
from repro.predicates import is_maximal_matching


class TestTheorem1Gadgets:
    def test_chain_shape(self):
        net = theorem1_chain()
        assert net.n == 5 and net.m == 4
        assert net.degree(3) == 2

    def test_spliced_chain_shape(self):
        net = theorem1_spliced_chain()
        assert net.n == 7 and net.m == 6

    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_gadget_size(self, delta):
        net = theorem1_gadget(delta)
        assert net.n == delta * delta + 1
        assert net.max_degree == delta

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_gadget_structure(self, delta):
        net = theorem1_gadget(delta)
        assert net.degree("c") == delta
        for i in range(delta):
            assert net.degree(("m", i)) == delta
        pendants = [p for p in net.processes if net.degree(p) == 1]
        assert len(pendants) == delta * (delta - 1)

    def test_gadget_minimum_delta(self):
        with pytest.raises(TopologyError):
            theorem1_gadget(1)


class TestTheorem2Gadgets:
    def test_fig3_is_six_cycle(self):
        oriented = theorem2_network()
        net = oriented.network
        assert net.n == 6 and net.m == 6
        assert all(net.degree(p) == 2 for p in net.processes)

    def test_fig3_proof_constraints(self):
        oriented = theorem2_network()
        net = oriented.network
        # Γ.p2 = {p1, p5} — the proof's neighborhood of p2.
        assert sorted(net.neighbors(2)) == [1, 5]
        # p1, p4 sources; p5, p6 sinks.
        assert oriented.sources() == {1, 4}
        assert oriented.sinks() == {5, 6}
        assert oriented.root == 1

    def test_fig3_orientation_is_dag(self):
        oriented = theorem2_network()
        # OrientedNetwork.__post_init__ validates acyclicity; also check
        # every undirected edge is oriented exactly once.
        directed = {(p, q) for p, succs in oriented.succ.items() for q in succs}
        assert len(directed) == oriented.network.m

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_gadget_degree(self, delta):
        oriented = theorem2_gadget(delta)
        net = oriented.network
        assert net.max_degree == delta
        for core in (1, 2, 3, 4, 5, 6):
            assert net.degree(core) == delta

    @pytest.mark.parametrize("delta", [3, 4])
    def test_gadget_preserves_sources_and_sinks(self, delta):
        oriented = theorem2_gadget(delta)
        sources = oriented.sources()
        sinks = oriented.sinks()
        assert 1 in sources and 4 in sources
        assert 5 in sinks and 6 in sinks

    def test_oriented_network_rejects_cycles(self):
        net = Network.from_edges(range(3), [(0, 1), (1, 2), (2, 0)])
        succ = {0: frozenset({1}), 1: frozenset({2}), 2: frozenset({0})}
        with pytest.raises(TopologyError):
            OrientedNetwork(net, succ, root=0)

    def test_oriented_network_rejects_non_edges(self):
        net = Network.from_edges(range(3), [(0, 1), (1, 2)])
        succ = {0: frozenset({2}), 1: frozenset(), 2: frozenset()}
        with pytest.raises(TopologyError):
            OrientedNetwork(net, succ, root=0)


class TestTightExamples:
    def test_figure9_is_path(self):
        net = figure9_path(7)
        assert net.n == 7 and net.m == 6 and net.max_degree == 2

    def test_figure11_parameters(self):
        net, matching = figure11_graph()
        assert net.m == 14
        assert net.max_degree == 4

    def test_figure11_matching_is_maximal(self):
        net, matching = figure11_graph()
        assert is_maximal_matching(net, matching)

    def test_figure11_matches_bound_exactly(self):
        from repro.analysis import matching_stability_bound

        net, matching = figure11_graph()
        # 2·⌈14/7⌉ = 4 matched processes; the example achieves exactly it.
        assert matching_stability_bound(net) == 4
        assert 2 * len(matching) == 4
