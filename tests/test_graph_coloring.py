"""Unit tests for the proper-coloring substrate (graphs.coloring)."""

import random

import networkx as nx
import pytest

from repro.core.exceptions import TopologyError
from repro.graphs import (
    assert_local_identifiers,
    chain,
    clique,
    color_count,
    dsatur_coloring,
    greedy_coloring,
    is_proper_coloring,
    random_connected,
    random_proper_coloring,
    ring,
    sequential_coloring,
    welsh_powell_coloring,
)
from repro.graphs.topology import Network, relabel_ports_randomly

ALGOS = [
    greedy_coloring,
    dsatur_coloring,
    welsh_powell_coloring,
    sequential_coloring,
]


@pytest.mark.parametrize("algo", ALGOS)
class TestAlgorithms:
    def test_proper_on_random(self, algo):
        net = random_connected(20, 0.25, seed=5)
        assert is_proper_coloring(net, algo(net))

    def test_proper_on_clique(self, algo):
        net = clique(5)
        colors = algo(net)
        assert is_proper_coloring(net, colors)
        assert color_count(colors) == 5

    def test_at_most_delta_plus_one(self, algo):
        for seed in range(4):
            net = random_connected(15, 0.3, seed=seed)
            assert color_count(algo(net)) <= net.max_degree + 1

    def test_one_based(self, algo):
        net = ring(6)
        assert min(algo(net).values()) >= 1


class TestHelpers:
    def test_is_proper_detects_conflict(self):
        net = chain(3)
        assert not is_proper_coloring(net, {0: 1, 1: 1, 2: 2})

    def test_is_proper_requires_total(self):
        net = chain(3)
        assert not is_proper_coloring(net, {0: 1, 1: 2})

    def test_assert_local_identifiers(self):
        net = chain(3)
        with pytest.raises(TopologyError):
            assert_local_identifiers(net, {0: 1, 1: 1, 2: 1})

    def test_color_count(self):
        assert color_count({0: 1, 1: 5, 2: 1}) == 2

    def test_random_proper(self):
        net = random_connected(15, 0.3, seed=9)
        colors = random_proper_coloring(net, random.Random(1))
        assert is_proper_coloring(net, colors)

    def test_sequential_respects_order(self):
        net = chain(3)
        colors = sequential_coloring(net, order=[2, 1, 0])
        assert colors[2] == 1  # first in order gets color 1


#: every connected graph of networkx's bundled atlas (2 to 7 nodes)
ATLAS = [graph for graph in nx.graph_atlas_g()
         if graph.number_of_nodes() >= 2 and nx.is_connected(graph)]


def test_greedy_is_networkx_largest_first_on_every_atlas_graph():
    """The port-table first fit is networkx's ``largest_first`` greedy
    coloring (shifted to 1-based), dict order included, under the
    graph's own port numbering and a random relabeling; the proper-
    coloring check refuses the copy of a color across any edge."""
    assert len(ATLAS) == 995
    for index, graph in enumerate(ATLAS):
        own = Network(graph)
        for net in (own, relabel_ports_randomly(own, random.Random(index))):
            expect = [(p, c + 1) for p, c in nx.greedy_color(
                net.subgraph_view(), strategy="largest_first").items()]
            colors = greedy_coloring(net)
            assert list(colors.items()) == expect, index
            assert is_proper_coloring(net, colors), index
            for p, q in net.edges():
                assert not is_proper_coloring(net, {**colors, p: colors[q]})
