"""Unit tests for the topology generators."""

import math
import random

import networkx as nx
import numpy as np
import pytest

from repro.core.exceptions import TopologyError
from repro.graphs import columnar, generators, topology
from repro.graphs import (
    Network,
    binary_tree,
    caterpillar,
    chain,
    clique,
    grid,
    hypercube,
    random_connected,
    random_regular,
    random_tree,
    ring,
    sparse_random,
    star,
    torus,
)


class TestDeterministicFamilies:
    def test_chain(self):
        net = chain(6)
        assert net.n == 6 and net.m == 5 and net.max_degree == 2

    def test_chain_minimum(self):
        with pytest.raises(TopologyError):
            chain(0)

    def test_ring(self):
        net = ring(5)
        assert net.n == 5 and net.m == 5
        assert all(net.degree(p) == 2 for p in net.processes)

    def test_ring_minimum(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_star(self):
        net = star(5)
        assert net.n == 6 and net.max_degree == 5
        assert sum(1 for p in net.processes if net.degree(p) == 1) == 5

    def test_clique(self):
        net = clique(5)
        assert net.m == 10 and net.max_degree == 4

    def test_grid(self):
        net = grid(3, 4)
        assert net.n == 12 and net.max_degree == 4

    def test_torus_regular(self):
        net = torus(3, 4)
        assert all(net.degree(p) == 4 for p in net.processes)

    def test_hypercube(self):
        net = hypercube(3)
        assert net.n == 8
        assert all(net.degree(p) == 3 for p in net.processes)

    def test_binary_tree(self):
        net = binary_tree(3)
        assert net.n == 15 and net.max_degree == 3

    def test_caterpillar(self):
        net = caterpillar(3, 2)
        assert net.n == 3 + 6
        # spine interior node: 2 spine + 2 legs
        assert net.max_degree == 4


class TestRandomFamilies:
    def test_random_connected_is_connected(self):
        for seed in range(5):
            net = random_connected(20, 0.15, seed=seed)
            assert net.n == 20
            assert net.diameter < 20  # diameter computable => connected

    def test_random_connected_reproducible(self):
        a = random_connected(15, 0.3, seed=42)
        b = random_connected(15, 0.3, seed=42)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_random_regular_degrees(self):
        net = random_regular(12, 3, seed=1)
        assert all(net.degree(p) == 3 for p in net.processes)

    def test_random_regular_parity(self):
        with pytest.raises(TopologyError):
            random_regular(7, 3, seed=0)

    def test_random_tree_edge_count(self):
        net = random_tree(17, seed=2)
        assert net.m == net.n - 1

    def test_single_node_tree(self):
        assert random_tree(1).n == 1


class TestParameterChecks:
    """Every generator checks its parameters the way
    ``sparse_edge_probability`` checks ``avg_degree``: one
    :class:`TopologyError` naming the parameter, before networkx or a
    sampler sees the value."""

    @pytest.mark.parametrize("name,params,bad", [
        # a bool is an int to Python: a 1×3 grid, a process named True
        ("grid", {"rows": True, "cols": 3}, "rows"),
        ("grid", {"rows": 3, "cols": 0}, "cols"),
        ("caterpillar", {"spine": True, "legs_per_node": True}, "spine"),
        ("caterpillar", {"spine": 3, "legs_per_node": True},
         "legs_per_node"),
        ("caterpillar", {"spine": 3, "legs_per_node": -1}, "legs_per_node"),
        # floats failed inside networkx with a TypeError
        ("ring", {"n": 12.0}, "n"),
        ("hypercube", {"dim": 2.0}, "dim"),
        ("chain", {"n": "5"}, "n"),
        ("star", {"leaves": 0}, "leaves"),
        ("clique", {"n": 1}, "n"),
        ("torus", {"rows": 3, "cols": 2}, "cols"),
        ("binary-tree", {"height": 1.0}, "height"),
        ("gnp", {"n": 6.0, "p": 0.5}, "n"),
        ("regular", {"n": 6, "d": 2.0}, "d"),
        ("regular", {"n": 4, "d": 4}, "d"),
        ("tree", {"n": True}, "n"),
        # p outside [0, 1] came back a path or the complete graph
        ("gnp", {"n": 6, "p": -0.5}, "p"),
        ("gnp", {"n": 6, "p": float("nan")}, "p"),
        ("gnp", {"n": 6, "p": 1.5}, "p"),
        ("gnp", {"n": 6, "p": True}, "p"),
        # seed=True built seed 1's network
        ("gnp", {"n": 6, "p": 0.5, "seed": True}, "seed"),
        ("regular", {"n": 6, "d": 2, "seed": True}, "seed"),
        ("sparse", {"n": 20, "seed": True}, "seed"),
        ("sparse", {"n": 20, "seed": 1.5}, "seed"),
        ("tree", {"n": 6, "seed": True}, "seed"),
        ("sparse", {"n": 20.0}, "n"),
    ])
    def test_bad_parameter_is_one_topology_error(self, name, params, bad):
        from repro.api import topology_registry
        from repro.api.registry import build_topology

        with pytest.raises(TopologyError, match=f"^{bad} must"):
            topology_registry.build(name, **params)
        if name == "sparse":  # the NumPy sampler shares the checks
            with pytest.raises(TopologyError, match=f"^{bad} must"):
                build_topology(name, params, columnar=True)

    def test_edge_values_still_build(self):
        assert random_connected(6, 0, seed=1).m == 5  # stitched path
        assert random_connected(6, 1).m == 15
        assert random_regular(1, 0).n == binary_tree(0).n == 1
        assert caterpillar(2, 0).m == 1 and grid(1, 1).n == 1


def networkx_sparse_random(n, avg_degree, seed):
    """``sparse_random`` as it was built on networkx: one
    ``fast_gnp_random_graph`` sample, its ``connected_components``
    stitched along a shuffled chain; the network and the graph."""
    rng = random.Random(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    g = nx.fast_gnp_random_graph(n, p, seed=rng.randrange(2**31))
    comps = [list(c) for c in nx.connected_components(g)]
    rng.shuffle(comps)
    for a, b in zip(comps, comps[1:]):
        g.add_edge(rng.choice(a), rng.choice(b))
    return Network(g), g


#: the NumPy-free ``sparse`` generator (the oracle) and the NumPy one
SAMPLERS = (generators.sparse_random, columnar.sparse_random)


class TestSparseRandomExact:
    """``sparse_random`` builds port lists without networkx, and its
    NumPy twin builds port arrays; both must give the very network the
    networkx construction gives: the same processes, every port in the
    same place, the same edge order, and a networkx graph (built on
    demand) with the same adjacency order.  The grid covers p >= 1
    (n <= avg_degree + 1) and samples with hundreds of stitched
    components (avg_degree <= 1)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 100, 1000, 10000])
    @pytest.mark.parametrize("avg_degree", [0.5, 1, 3, 6])
    def test_equals_networkx_construction(self, n, avg_degree):
        for seed in range(5):
            ref, ref_graph = networkx_sparse_random(n, avg_degree, seed)
            procs = ref.processes
            diameter = nx.diameter(ref_graph, usebounds=True) \
                if n <= 1000 else None
            for sampler in SAMPLERS:
                net = sampler(n, avg_degree, seed=seed)
                assert net.processes == procs
                assert net.port_arrays() == ref.port_arrays()
                assert (net.m, net.max_degree) == (ref.m, ref.max_degree)
                assert [net.neighbors(p) for p in procs] == \
                    [ref.neighbors(p) for p in procs]
                assert net.edges() == ref.edges()
                graph = net.subgraph_view()
                assert list(graph.nodes) == list(ref_graph.nodes)
                assert [list(graph.adj[p]) for p in procs] == \
                    [list(ref_graph.adj[p]) for p in procs]
                if diameter is not None:
                    assert net.diameter == diameter

    def test_one_component_search(self, monkeypatch):
        """The generator's own component search is its connectivity
        verdict: the network constructor searches no second time, while
        an edge sequence is still searched and a split one refused."""
        from repro.graphs import topology

        calls = []
        search = topology._connected

        def counting(rows):
            calls.append(len(rows))
            return search(rows)

        monkeypatch.setattr(topology, "_connected", counting)
        net = sparse_random(2000, 0.5, seed=4)
        assert net.n == 2000 and calls == []
        with pytest.raises(TopologyError, match="connected"):
            topology.Network.from_edges(range(4), [(0, 1), (2, 3)])
        assert calls == [4]

    def test_no_networkx_sampling(self, monkeypatch):
        """For 0 < p < 1 the generator calls neither networkx sampler."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("networkx called")

        monkeypatch.setattr(nx, "fast_gnp_random_graph", refuse)
        monkeypatch.setattr(nx, "connected_components", refuse)
        net = sparse_random(500, 1.0, seed=3)
        assert net.n == 500 and net.m >= 499

    def test_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            sparse_random(1)
        with pytest.raises(TopologyError):
            sparse_random(10, avg_degree=0)

    @pytest.mark.parametrize("avg_degree", [
        float("nan"), float("inf"), True, False, "3", None,
    ])
    def test_rejects_non_finite_or_non_numeric_avg_degree(self,
                                                          avg_degree):
        """``min(1.0, nan / 59)`` is 1.0, so a NaN average degree built
        the complete graph, and ``True`` built a graph of average
        degree 1."""
        for sampler in SAMPLERS:
            with pytest.raises(TopologyError, match="avg_degree"):
                sampler(60, avg_degree=avg_degree, seed=1)

    @pytest.mark.parametrize("n,avg_degree", [
        (10, 1e-17), (100_000, 1e-12), (10, 5e-324),
    ])
    def test_vanishing_avg_degree_gives_a_stitched_chain(self, n,
                                                         avg_degree):
        """A positive ``avg_degree`` small enough that ``1.0 - p ==
        1.0`` put ``log(1 - p)`` at 0 and divided by zero; the sample is
        empty instead, so the network is the random chain that stitches
        the n singletons, the same from both samplers."""
        a, b = (sampler(n, avg_degree, seed=1) for sampler in SAMPLERS)
        assert a.m == b.m == n - 1 and a.max_degree == b.max_degree == 2
        assert a.port_arrays() == b.port_arrays()

    @pytest.mark.parametrize("avg_degree", [1e-9, 1e-6, 2e-3])
    def test_samplers_agree_where_skips_pass_the_last_pair(self,
                                                           avg_degree):
        """Skips of about ``(n - 1) / avg_degree`` pairs against
        ``n(n - 1)/2`` pairs in all: most land past the last pair, where
        the NumPy sampler clips them before its int64 cast, and the
        samples hold a handful of pairs at most."""
        for seed in range(20):
            a, b = (sampler(1000, avg_degree, seed=seed)
                    for sampler in SAMPLERS)
            assert a.port_arrays() == b.port_arrays()


class TestNumpySampler:
    """The NumPy ``sparse`` sampler step by step against the oracle: the
    uniforms, the skips, the sampled port tables and the component lists
    ``rng.shuffle`` and ``rng.choice`` see."""

    def test_uniforms_are_the_generators_draws(self):
        a, b = random.Random(12), random.Random(12)
        draws = columnar.uniforms(a, 100_000)
        assert draws.tolist() == [b.random() for _ in range(100_000)]
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("p", [3e-6, 3e-4, 0.05, 0.5])
    def test_skips_equal_math_log_over_a_million_draws(self, p):
        """250k draws at each of four p, and every draw that puts the
        quotient within an ulp-sized step of an integer."""
        lp = math.log(1.0 - p)
        draws = columnar.uniforms(random.Random(p), 250_000)
        # r = 1 - exp(k * lp) puts log(1 - r) / lp within ulps of k
        edges = np.array([1.0 - math.exp(k * lp)
                          for k in range(1, min(3000, int(-30 / lp)))])
        draws = np.concatenate((draws, edges, np.nextafter(edges, 0),
                                np.nextafter(edges, 1)))
        assert draws.max() < 1.0
        limit = 2**40
        expected = [min(int(math.log(1.0 - r) / lp), limit)
                    for r in draws.tolist()]
        assert columnar.gnp_skips(draws, lp, limit).tolist() == expected
        clipped = [min(skip, 100) for skip in expected]
        assert columnar.gnp_skips(draws, lp, 100).tolist() == clipped

    @staticmethod
    def assert_sample_equals_oracle(n, avg_degree, seed):
        """Element for element: a component list in another order can
        give the same stitched network whenever ``rng.choice`` happens
        to pick the same member."""
        p = min(1.0, avg_degree / (n - 1))
        ports = generators._gnp_ports(n, p, random.Random(seed))
        offsets, flat, minima = columnar.gnp_port_arrays(
            n, p, random.Random(seed))
        assert [offsets.tolist(), flat.tolist()] == \
            [list(a) for a in topology._index_arrays(ports)]
        assert columnar.component_lists(offsets, flat, minima) == \
            generators._component_lists(ports)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 100, 1000, 10000])
    @pytest.mark.parametrize("avg_degree", [0.5, 1, 3, 6])
    def test_sample_and_component_lists_equal_the_oracle(self, n,
                                                         avg_degree):
        for seed in range(5):
            self.assert_sample_equals_oracle(n, avg_degree, seed)

    def test_one_hundred_thousand_processes(self):
        self.assert_sample_equals_oracle(100_000, 3, 7)
        a, b = (sampler(100_000, 3, seed=7) for sampler in SAMPLERS)
        assert a.port_arrays() == b.port_arrays()
        assert (b.n, b.m, b.max_degree) == (a.n, a.m, a.max_degree)
