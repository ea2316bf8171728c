"""Unit tests for port-numbered networks."""

import os
import random
import subprocess
import sys

import networkx as nx
import pytest

import repro
from repro.api import ExperimentSpec, drive_simulator, topology_registry
from repro.core.exceptions import TopologyError
from repro.graphs import (
    Network,
    chain,
    missing_edges,
    non_bridge_edges,
    relabel_ports_randomly,
    removable_nodes,
    ring,
)

#: one small instance of every registered generator
GENERATOR_CASES = [
    ("chain", {"n": 5}),
    ("ring", {"n": 6}),
    ("star", {"leaves": 4}),
    ("clique", {"n": 5}),
    ("grid", {"rows": 3, "cols": 4}),
    ("torus", {"rows": 3, "cols": 4}),
    ("hypercube", {"dim": 3}),
    ("binary-tree", {"height": 3}),
    ("caterpillar", {"spine": 4, "legs_per_node": 2}),
    ("gnp", {"n": 12, "p": 0.3, "seed": 1}),
    ("regular", {"n": 10, "d": 3, "seed": 2}),
    ("sparse", {"n": 30, "avg_degree": 3, "seed": 3}),
    ("tree", {"n": 12, "seed": 4}),
]


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            Network(nx.Graph())

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(TopologyError):
            Network(g)

    def test_rejects_self_loop(self):
        g = nx.Graph([(0, 1)])
        g.add_edge(1, 1)
        with pytest.raises(TopologyError):
            Network(g)

    def test_rejects_directed_graph(self):
        """An adjacency walk over a directed graph would take each arc
        as a one-way port; the constructor refuses it instead."""
        with pytest.raises(TopologyError, match="undirected"):
            Network(nx.DiGraph([(0, 1), (1, 2)]))

    def test_rejects_multigraph(self):
        """A multigraph's adjacency keys hide a pair joined twice, which
        ``from_edges`` refuses; the constructor refuses the type."""
        edges = [(0, 1), (0, 1), (1, 2)]
        with pytest.raises(TopologyError, match="joined twice"):
            Network.from_edges(range(3), edges)
        with pytest.raises(TopologyError, match="multigraph"):
            Network(nx.MultiGraph(edges))
        with pytest.raises(TopologyError, match="undirected"):
            Network(nx.MultiDiGraph(edges))

    def test_single_node_allowed(self):
        g = nx.Graph()
        g.add_node(0)
        net = Network(g)
        assert net.n == 1 and net.m == 0 and net.diameter == 0

    def test_from_edges(self):
        net = Network.from_edges(range(3), [(0, 1), (1, 2)])
        assert net.n == 3 and net.m == 2


class TestPaperNotation:
    def test_counts(self):
        net = ring(6)
        assert net.n == 6 and net.m == 6

    def test_degree(self):
        net = chain(4)
        assert net.degree(0) == 1
        assert net.degree(1) == 2

    def test_max_degree(self):
        net = chain(5)
        assert net.max_degree == 2

    def test_diameter(self):
        assert chain(5).diameter == 4
        assert ring(6).diameter == 3

    @pytest.mark.parametrize("name,params", [
        ("ring", {"n": 11}),
        ("chain", {"n": 9}),
        ("grid", {"rows": 4, "cols": 7}),
        ("tree", {"n": 60, "seed": 3}),
        ("star", {"leaves": 8}),
        ("clique", {"n": 7}),
        ("gnp", {"n": 40, "p": 0.1, "seed": 5}),
        ("sparse", {"n": 300, "avg_degree": 0.5, "seed": 1}),
        ("sparse", {"n": 300, "avg_degree": 3, "seed": 2}),
        ("sparse", {"n": 300, "avg_degree": 6, "seed": 3}),
    ])
    def test_diameter_is_the_all_pairs_value(self, name, params):
        """The bounded eccentricity search gives the largest distance
        over all pairs, as one BFS per process measures it."""
        net = topology_registry.build(name, **params)
        graph = net.subgraph_view()
        all_pairs = max(
            max(nx.single_source_shortest_path_length(graph, v).values())
            for v in graph
        )
        assert net.diameter == all_pairs

    @pytest.mark.parametrize("name,params", GENERATOR_CASES,
                             ids=[name for name, _ in GENERATOR_CASES])
    def test_cached_counts_match_networkx(self, name, params):
        """Δ and m come from the port tables; they must equal
        networkx's counts for every generator and for every network a
        ``with_*`` mutator derives."""
        net = topology_registry.build(name, **params)
        procs = net.processes
        p = procs[0]
        derived = [
            net,
            net.with_ports({p: list(reversed(net.neighbors(p)))}),
            net.with_node_added("joiner", procs[:2]),
        ]
        missing = missing_edges(net, limit=1)
        if missing:
            derived.append(net.with_edge_added(*missing[0]))
        safe_edges = non_bridge_edges(net)
        if safe_edges:
            derived.append(net.with_edge_removed(*safe_edges[0]))
        removable = removable_nodes(net)
        if removable:
            derived.append(net.with_node_removed(removable[0]))
        for candidate in derived:
            graph = candidate.subgraph_view()
            expect_delta = max(d for _node, d in graph.degree)
            for _ in range(2):  # the first read fills the cache
                assert candidate.m == graph.number_of_edges()
                assert candidate.max_degree == expect_delta

    def test_neighbors_in_port_order(self):
        net = Network.from_edges(range(3), [(0, 2), (0, 1)])
        assert net.neighbors(0) == (2, 1)


class TestPorts:
    def test_neighbor_at_is_one_based(self):
        net = Network.from_edges(range(3), [(0, 1), (0, 2)])
        assert net.neighbor_at(0, 1) == 1
        assert net.neighbor_at(0, 2) == 2

    def test_neighbor_at_out_of_range(self):
        net = chain(3)
        with pytest.raises(TopologyError):
            net.neighbor_at(0, 2)
        with pytest.raises(TopologyError):
            net.neighbor_at(0, 0)

    def test_port_to_inverts_neighbor_at(self):
        net = ring(5)
        for p in net.processes:
            for port in range(1, net.degree(p) + 1):
                q = net.neighbor_at(p, port)
                assert net.port_to(p, q) == port

    def test_port_to_non_neighbor(self):
        net = chain(4)
        with pytest.raises(TopologyError):
            net.port_to(0, 3)

    def test_with_ports_rejects_bad_list(self):
        net = chain(3)
        with pytest.raises(TopologyError):
            net.with_ports({1: [0, 0]})

    def test_with_ports_rejects_unknown_process(self):
        # a port list for no process was dropped without a word
        with pytest.raises(TopologyError, match="not a process"):
            chain(3).with_ports({9: [0]})
        with pytest.raises(TopologyError, match="not a process"):
            Network(nx.path_graph(3), ports={9: [0]})

    def test_with_ports_overrides(self):
        net = chain(3)
        net2 = net.with_ports({1: [2, 0]})
        assert net2.neighbor_at(1, 1) == 2
        # original untouched
        assert net.neighbor_at(1, 1) in (0, 2)

    def test_random_relabel_preserves_structure(self):
        net = ring(7)
        net2 = relabel_ports_randomly(net, random.Random(3))
        assert net2.n == net.n and net2.m == net.m
        for p in net2.processes:
            assert sorted(net2.neighbors(p)) == sorted(net.neighbors(p))


class TestQueries:
    def test_are_neighbors(self):
        net = chain(4)
        assert net.are_neighbors(0, 1)
        assert not net.are_neighbors(0, 2)

    def test_contains_and_len(self):
        net = chain(4)
        assert 0 in net and 9 not in net
        assert len(net) == 4

    def test_nx_graph_is_copy(self):
        net = chain(3)
        g = net.nx_graph
        g.add_edge(0, 2)
        assert not net.are_neighbors(0, 2)


def connected_atlas_graphs():
    """networkx's bundled atlas: every connected graph on 2 to 7 nodes
    (995 of them)."""
    from networkx.generators.atlas import graph_atlas_g

    return [g for g in graph_atlas_g() if len(g) >= 2 and nx.is_connected(g)]


class TestMutationOracle:
    """The mutators and ``with_ports`` edit the port tables alone.  Each
    result must be the network of a networkx graph mutated the same way
    in place, beside port lists kept the way a port-numbered network
    keeps them: a new neighbor behind each endpoint's highest port, a
    removed one compacted out.  With a network's own ports, the edge
    listing and the churn candidates must also be networkx's, mutation
    after mutation."""

    OPERATIONS = ("remove-edge", "add-edge", "add-node", "remove-node")

    @staticmethod
    def mutate(net, graph, ports, op, rng, label):
        """Apply ``op`` to the network and, the same way, to ``graph``
        and ``ports``; targets come from the graph alone."""
        procs = list(graph)
        if op == "remove-edge":
            bridges = set(nx.bridges(graph))
            pool = [e for e in graph.edges
                    if e not in bridges and e[::-1] not in bridges]
            if not pool:
                return net
            p, q = pool[rng.randrange(len(pool))]
            graph.remove_edge(p, q)
            ports[p].remove(q)
            ports[q].remove(p)
            return net.with_edge_removed(p, q)
        if op == "add-edge":
            pool = [(p, q) for i, p in enumerate(procs)
                    for q in procs[i + 1:] if not graph.has_edge(p, q)]
            if not pool:
                return net
            p, q = pool[rng.randrange(len(pool))]
            graph.add_edge(p, q)
            ports[p].append(q)
            ports[q].append(p)
            return net.with_edge_added(p, q)
        if op == "add-node":
            joined = rng.sample(procs, min(2, len(procs)))
            graph.add_edges_from((label, q) for q in joined)
            for q in joined:
                ports[q].append(label)
            ports[label] = joined
            return net.with_node_added(label, joined)
        cuts = set(nx.articulation_points(graph))
        pool = [p for p in procs if p not in cuts] if len(procs) > 3 else []
        if not pool:
            return net
        p = pool[rng.randrange(len(pool))]
        graph.remove_node(p)
        del ports[p]
        for order in ports.values():
            if p in order:
                order.remove(p)
        return net.with_node_removed(p)

    @staticmethod
    def check(net, graph, ports, own):
        procs = tuple(graph)
        assert net.processes == procs
        assert [net.neighbors(p) for p in procs] == \
            [tuple(ports[p]) for p in procs]
        assert (net.m, net.max_degree) == \
            (graph.number_of_edges(), max(d for _node, d in graph.degree))
        if own:
            edges = list(graph.edges)
            bridges = set(nx.bridges(graph))
            cuts = set(nx.articulation_points(graph))
            assert net.edges() == edges
            assert non_bridge_edges(net) == [
                e for e in edges if e not in bridges and e[::-1] not in bridges]
            assert removable_nodes(net) == (
                [p for p in procs if p not in cuts] if len(procs) > 3 else [])

    def test_atlas_and_generators_own_and_relabelled_ports(self):
        nets = [Network(g) for g in connected_atlas_graphs()]
        assert len(nets) == 995
        nets += [topology_registry.build(name, **params)
                 for name, params in GENERATOR_CASES]
        for k, net in enumerate(nets):
            rng = random.Random(k)
            for own in (True, False):
                ports = {p: list(net.neighbors(p)) for p in net.processes}
                graph = nx.Graph()
                graph.add_nodes_from(ports)
                graph.add_edges_from((p, q) for p, row in ports.items()
                                     for q in row)
                start = net
                if not own:
                    for order in ports.values():
                        rng.shuffle(order)
                    start = net.with_ports(ports)
                self.check(start, graph, ports, own)
                current = start
                for op in self.OPERATIONS:
                    current = self.mutate(current, graph, ports, op, rng,
                                          "joiner")
                    self.check(current, graph, ports, own)
                if not own:
                    p = next(iter(ports))
                    ports[p].reverse()
                    current = current.with_ports({p: ports[p]})
                    self.check(current, graph, ports, own)

    def test_mutations_edges_and_adjacency_build_no_graph(self):
        """The mutators, ``with_ports``, ``edges()`` and
        ``are_neighbors()`` answer from the port tables: neither the
        network nor its mutants build a networkx graph."""
        for net in (ring(8), topology_registry.build(
                "sparse", n=40, avg_degree=3, seed=1)):
            p, q = net.edges()[0]
            assert net.are_neighbors(p, q) and not net.are_neighbors(p, p)
            grown = net.with_node_added("joiner", [p, q])  # a triangle
            derived = [
                net.with_ports({p: net.neighbors(p)[::-1]}),
                net.with_edge_added(*missing_edges(net, limit=1)[0]),
                grown,
                grown.with_edge_removed(p, q),
                grown.with_node_removed("joiner"),
            ]
            for candidate in (net, *derived):
                candidate.edges()
                candidate.are_neighbors(p, q)
                assert candidate._graph is None

    def test_relabelled_edges_follow_port_order(self):
        """Edges list from their first endpoint in process order, in
        that endpoint's port order, and the on-demand graph keeps port
        order: a relabelled network is not its source graph's order."""
        net = Network(nx.star_graph(3), ports={0: [3, 1, 2]})
        assert net.edges() == [(0, 3), (0, 1), (0, 2)]
        assert list(net.subgraph_view().adj[0]) == [3, 1, 2]
        relabelled = net.with_ports({0: [2, 3, 1]})
        assert relabelled.edges() == [(0, 2), (0, 3), (0, 1)]


class TestFromEdges:
    """The construction path from an edge sequence keeps every check a
    networkx graph and the graph constructor give."""

    def test_rejects_empty(self):
        with pytest.raises(TopologyError, match="at least one"):
            Network.from_edges([], [])

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Network.from_edges([0, 1], [(0, 1), (1, 1)])

    @pytest.mark.parametrize("again", [(0, 1), (1, 0)])
    def test_rejects_repeated_pair(self, again):
        with pytest.raises(TopologyError, match="joined twice"):
            Network.from_edges([0, 1, 2], [(0, 1), (1, 2), again])

    @pytest.mark.parametrize("edges", [[(0, 1), (2, 3)], [(0, 1), (1, 2)]])
    def test_rejects_disconnected(self, edges):
        # two components, and one isolated process
        with pytest.raises(TopologyError, match="connected"):
            Network.from_edges([0, 1, 2, 3], edges)

    def test_rejects_unknown_or_repeated_process(self):
        with pytest.raises(TopologyError, match="unknown"):
            Network.from_edges([0, 1], [(0, 2)])
        with pytest.raises(TopologyError, match="listed twice"):
            Network.from_edges([0, 1, 1], [(0, 1)])

    def test_single_process(self):
        net = Network.from_edges(["solo"], [])
        assert net.n == 1 and net.m == 0 and net.diameter == 0

    def test_equals_graph_built_edge_by_edge(self):
        # a:[c,b], b:[c,a], c:[a,b,d] -- an adjacency order that neither
        # a graph copy nor re-adding the edges in edge-view order keeps
        edges = [("a", "c"), ("b", "c"), ("a", "b"), ("c", "d")]
        net = Network.from_edges("abcd", edges)
        g = nx.Graph()
        g.add_nodes_from("abcd")
        g.add_edges_from(edges)
        ref = Network(g)
        assert net.processes == ref.processes
        assert [net.neighbors(p) for p in "abcd"] == \
            [ref.neighbors(p) for p in "abcd"]
        assert net.edges() == ref.edges()
        graph = net.subgraph_view()
        assert [list(graph.adj[p]) for p in "abcd"] == \
            [list(g.adj[p]) for p in "abcd"]
        graph.adj["a"]["b"]["probe"] = 1  # one data dict per edge
        assert graph.adj["b"]["a"] == {"probe": 1}

    def test_answers_from_port_tables_alone(self):
        net = Network.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert list(net.processes) == [0, 1, 2, 3] and net.n == len(net) == 4
        assert 2 in net and 9 not in net and [0] not in net
        assert net.neighbors(0) == (1, 3) and net.degree(1) == 2
        assert (net.m, net.max_degree, net.port_to(3, 0)) == (4, 2, 2)
        offsets, flat = net.port_arrays()
        assert list(offsets) == [0, 2, 4, 6, 8]
        assert list(flat) == [1, 3, 0, 2, 1, 3, 2, 0]
        assert net._graph is None
        assert net.diameter == 2 and net._graph is not None

    @pytest.mark.parametrize("name,params", GENERATOR_CASES,
                             ids=[name for name, _ in GENERATOR_CASES])
    def test_port_arrays_index_the_port_tables(self, name, params):
        net = topology_registry.build(name, **params)
        procs = net.processes
        offsets, flat = net.port_arrays()
        assert offsets.typecode == flat.typecode == "q"
        assert len(offsets) == net.n + 1 and len(flat) == 2 * net.m
        assert [
            [procs[j] for j in flat[offsets[i]:offsets[i + 1]]]
            for i in range(net.n)
        ] == [list(net.neighbors(p)) for p in procs]
        assert net.port_arrays() is net.port_arrays()


def from_port_lists(rows, connected=True):
    """``Network._from_port_arrays`` over index-space port lists."""
    import numpy as np

    offsets = np.cumsum([0] + [len(row) for row in rows])
    flat = np.array([q for row in rows for q in row], dtype=np.int64)
    return Network._from_port_arrays(offsets, flat, connected=connected)


class TestFromPortArrays:
    """The construction path from NumPy port arrays runs the checks of
    the edge-sequence path over the arrays, plus a reverse for every
    port, and builds the neighbor tuples only when a scalar query asks."""

    def test_answers_from_the_arrays_alone(self):
        net = from_port_lists([[1, 3], [0, 2], [3, 1], [2, 0]])
        assert "_ports" not in vars(net)
        assert list(net.processes) == [0, 1, 2, 3] and net.n == len(net) == 4
        assert (net.m, net.max_degree) == (4, 2)
        assert net.process_index() == {0: 0, 1: 1, 2: 2, 3: 3}
        assert 2 in net and 9 not in net and [0] not in net
        offsets, flat = net.port_arrays()
        assert offsets.typecode == flat.typecode == "q"
        assert list(offsets) == [0, 2, 4, 6, 8]
        assert list(flat) == [1, 3, 0, 2, 3, 1, 2, 0]
        assert all(type(x) is int for x in flat)
        assert "_ports" not in vars(net) and net._graph is None
        assert net.neighbors(2) == (3, 1) and net.degree(0) == 2
        assert net.port_to(2, 1) == 2 and net.neighbor_at(3, 2) == 0
        assert "_ports" in vars(net) and net._graph is None
        assert net.diameter == 2 and net.edges() == \
            Network.from_edges(range(4), [(0, 1), (0, 3), (1, 2),
                                          (2, 3)]).edges()

    def test_single_process(self):
        net = from_port_lists([[]])
        assert (net.n, net.m, net.max_degree, net.diameter) == (1, 0, 0, 0)

    @pytest.mark.parametrize("rows,match", [
        ([], "at least one"),
        ([[1], [0, 1]], "self-loop"),
        ([[1, 1], [0, 0]], "joined twice"),
        ([[1, 2], [0], [0, 0]], "joined twice"),
        ([[1, 2], [0], []], "no reverse"),
        ([[1], [0], [0]], "no reverse"),
        ([[1], [2]], "unknown process"),
        ([[-1], [0]], "unknown process"),
    ])
    def test_rejects_bad_tables(self, rows, match):
        with pytest.raises(TopologyError, match=match):
            from_port_lists(rows)

    def test_rejects_offsets_that_miss_the_table(self):
        import numpy as np

        with pytest.raises(TopologyError, match="offsets"):
            Network._from_port_arrays(np.array([0, 1, 3]),
                                      np.array([1, 0], dtype=np.int64),
                                      connected=True)

    def test_takes_the_callers_connectivity_verdict(self):
        with pytest.raises(TopologyError, match="connected"):
            from_port_lists([[1], [0], [3], [2]], connected=False)


def run_fresh(script, numpy_blocked=False, tmp_path=None):
    """Run ``script`` in a fresh interpreter on this checkout's ``src``
    (behind a ``numpy`` package whose import fails, if asked) and return
    its stdout."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = [src_root]
    if numpy_blocked:
        stub = tmp_path / "numpy"
        stub.mkdir()
        (stub / "__init__.py").write_text(
            "raise ImportError('numpy is blocked')\n")
        path.insert(0, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNetworkxOnDemand:
    """A sparse trial on the fused columnar path never needs the
    networkx graph, and a scalar one never needs NumPy."""

    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_fused_sparse_coloring_builds_no_graph(self, protocol):
        spec = ExperimentSpec(
            protocol=protocol, topology="sparse",
            topology_params={"n": 400, "avg_degree": 3, "seed": 11},
            seed=4, engine="batch-resident", metrics="aggregate",
        )
        sim = spec.build_simulator()
        assert sim.engine.batch_active
        report = drive_simulator(sim, max_rounds=spec.max_rounds)
        assert report.silent and report.legitimate
        assert sim.network._graph is None

    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_scalar_sparse_trial_builds_no_graph(self, protocol):
        """The scalar legitimacy predicates read the port tables, so a
        scalar trial, which asks ``Protocol.is_legitimate``, builds no
        networkx graph either."""
        spec = ExperimentSpec(
            protocol=protocol, topology="sparse",
            topology_params={"n": 400, "avg_degree": 3, "seed": 11},
            scheduler="central", scheduler_params={"enabled_only": True},
            seed=4, engine="incremental",
        )
        sim = spec.build_simulator()
        report = drive_simulator(sim, max_rounds=spec.max_rounds)
        assert report.silent and report.legitimate
        assert sim.network._graph is None

    def test_scalar_sparse_mis_loads_no_numpy(self):
        script = (
            "import sys\n"
            "from repro.api import ExperimentSpec\n"
            "row = ExperimentSpec(protocol='mis', topology='sparse',"
            " topology_params={'n': 60, 'avg_degree': 3, 'seed': 2},"
            " engine='incremental').run()\n"
            "assert row.silent and row.legitimate\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        assert run_fresh(script).strip() == "[]"

    def test_columnar_spec_without_numpy_takes_the_list_sampler(self,
                                                                tmp_path):
        """With NumPy blocked, a ``batch-resident`` sparse spec builds
        its network through the NumPy-free sampler: the same network the
        NumPy sampler builds here."""
        params = {"n": 300, "avg_degree": 1, "seed": 5}
        script = (
            "import sys\n"
            "from repro.api import ExperimentSpec\n"
            "net = ExperimentSpec(protocol='coloring', topology='sparse',"
            f" topology_params={params!r},"
            " engine='batch-resident').build_network()\n"
            "assert 'repro.graphs.columnar' not in sys.modules\n"
            "print([list(a) for a in net.port_arrays()])\n"
        )
        out = run_fresh(script, numpy_blocked=True, tmp_path=tmp_path)
        spec = ExperimentSpec(protocol="coloring", topology="sparse",
                              topology_params=params,
                              engine="batch-resident")
        net = spec.build_network()
        assert "_ports" not in vars(net)  # the NumPy sampler's arrays
        assert out.strip() == str([list(a) for a in net.port_arrays()])

    def test_fused_sparse_coloring_reads_only_port_arrays(self):
        """A fused sparse COLORING trial imports no ``numpy.random``,
        never builds the per-process neighbor tuples, and builds no
        networkx graph."""
        script = (
            "import sys\n"
            "from repro.api import ExperimentSpec, drive_simulator\n"
            "spec = ExperimentSpec(protocol='coloring', topology='sparse',"
            " topology_params={'n': 2000, 'avg_degree': 3, 'seed': 11},"
            " seed=4, engine='batch-resident', metrics='aggregate')\n"
            "sim = spec.build_simulator()\n"
            "report = drive_simulator(sim, max_rounds=spec.max_rounds)\n"
            "assert sim.engine.batch_active and report.silent\n"
            "net = sim.network\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules,"
            " '_ports' in vars(net), net._graph is None)\n"
        )
        assert run_fresh(script).split() == ["True", "False", "False", "True"]
