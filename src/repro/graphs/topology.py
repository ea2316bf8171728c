"""Port-numbered network topologies.

The paper's model assumes each process ``p`` distinguishes its neighbors
via *local indices* numbered ``1 .. δ.p`` (Section 2).  The local index
assignment (the "port numbering") is adversarial in anonymous networks —
several impossibility arguments hinge on choosing it maliciously — so the
topology object carries an explicit, per-process port map rather than
relying on any canonical neighbor ordering.

:class:`Network` holds those port tables and answers the paper's
notation from them: ``Γ.p`` (:meth:`Network.neighbors`), ``δ.p``
(:meth:`Network.degree`), ``Δ`` (:attr:`Network.max_degree`), ``n``
and ``m``.  The columnar engine reads the same tables in index space
(:meth:`Network.port_arrays`); a network built from those arrays (the
NumPy ``sparse`` sampler of :mod:`repro.graphs.columnar`) answers
``n``, ``m``, ``Δ`` and the process order from them and builds its
per-process tables only when a scalar query first asks.  Graph
algorithms — ``D`` (:attr:`Network.diameter`), colorings, bridges, cut
vertices and the ``with_*`` mutators — run on a :mod:`networkx` graph,
which a network built from an edge sequence (:meth:`Network.from_edges`,
the ``sparse`` generator) or from port arrays builds only when one of
them first asks.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import contains, sub
from typing import (Collection, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import networkx as nx

from ..core.exceptions import TopologyError

ProcessId = Hashable


def _connected(rows: Sequence[Sequence[int]]) -> bool:
    """True when index-space port lists span one component."""
    seen = bytearray(len(rows))
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        for j in rows[stack.pop()]:
            if not seen[j]:
                seen[j] = 1
                reached += 1
                stack.append(j)
    return reached == len(rows)


def _index_arrays(rows: Sequence[Sequence[int]]) -> Tuple[array, array]:
    """``(offsets, flat)`` of index-space port lists (see
    :meth:`Network.port_arrays`)."""
    # array() converts a list faster than it drains an iterator
    return (array("q", accumulate(map(len, rows), initial=0)),
            array("q", list(chain.from_iterable(rows))))


def _array_q(values) -> array:
    """An ``array('q')`` copy of a NumPy integer array (one memcpy)."""
    out = array("q")
    out.frombytes(memoryview(
        values.astype("=i8", order="C", copy=False)).cast("B"))
    return out


class Network:
    """An undirected connected network with explicit port numbering.

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph`.  Must be connected, simple,
        with at least one node and no self-loops.
    ports:
        Optional mapping ``p -> [q1, q2, ...]`` listing p's neighbors in
        local-index order (index ``i`` of the list is port ``i+1``).
        When omitted, a deterministic port numbering is derived from the
        graph's neighbor iteration order.
    copy:
        Copy ``graph`` before adopting it (the default).  Builders that
        hand over a freshly constructed graph nobody else holds pass
        ``copy=False`` to skip the duplication — at million-node scale
        the defensive copy dominates the build.

    :meth:`from_edges` builds a network from an edge sequence instead,
    without a graph until a graph algorithm needs one.
    """

    def __init__(
        self,
        graph: nx.Graph,
        ports: Optional[Mapping[ProcessId, Sequence[ProcessId]]] = None,
        copy: bool = True,
    ):
        if graph.number_of_nodes() == 0:
            raise TopologyError("network must have at least one process")
        if any(graph.has_edge(v, v) for v in graph.nodes):
            raise TopologyError("self-loops are not allowed")
        if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise TopologyError("network must be connected")

        graph = graph.copy() if copy else graph
        table: Dict[ProcessId, Tuple[ProcessId, ...]] = {}
        for p in graph.nodes:
            if ports is not None and p in ports:
                order = tuple(ports[p])
                if sorted(map(repr, order)) != sorted(
                    map(repr, graph.neighbors(p))
                ):
                    raise TopologyError(
                        f"port list of {p!r} does not enumerate its neighbors"
                    )
            else:
                order = tuple(graph.neighbors(p))
            table[p] = order
        #: ``p -> (q1, q2, ...)`` in port order, in process order (built
        #: on first use on a network made from port arrays)
        self._ports = table
        self._adopt(table, graph)

    def _adopt(self, pids: Collection[ProcessId],
               graph: Optional[nx.Graph]) -> None:
        #: the processes in order: the keys of ``_ports``, or ``range(n)``
        self._pids = pids
        #: the networkx graph; None until first needed on a network
        #: built from an edge sequence (see :meth:`_nx`)
        self._graph = graph
        #: ``p -> {q: port}`` inverse tables, built lazily by
        #: :meth:`port_to` — only scenario churn and debug tooling ask
        #: for them, so the eager build was pure overhead at scale.
        self._port_of: Dict[ProcessId, Dict[ProcessId, int]] = {}
        # Derived once on first use: a Network never changes after
        # construction (every ``with_*`` mutator returns a new one).
        self._port_arrays: Optional[Tuple[array, array]] = None
        self._index: Optional[Dict[ProcessId, int]] = None
        self._diameter: Optional[int] = None
        self._m: Optional[int] = None
        self._max_degree: Optional[int] = None

    @classmethod
    def from_edges(
        cls,
        processes: Iterable[ProcessId],
        edges: Iterable[Tuple[ProcessId, ProcessId]],
    ) -> "Network":
        """The network on ``processes`` (in that order) with ``edges``.

        Each edge is appended to both endpoints' port lists as it comes,
        so a process numbers its ports in edge-sequence order — the
        adjacency order networkx gives a graph built by adding the same
        edges one by one, and the graph this network builds when a graph
        algorithm first needs one.  Raises :class:`TopologyError` for no
        processes, a process listed twice, an edge to an unknown process,
        a self-loop, a pair joined twice (in either orientation), or a
        disconnected network.
        """
        procs = list(processes)
        index = {p: i for i, p in enumerate(procs)}
        if len(index) != len(procs):
            raise TopologyError("a process is listed twice")
        rows: List[List[int]] = [[] for _ in procs]
        for p, q in edges:
            try:
                i, j = index[p], index[q]
            except KeyError:
                raise TopologyError(
                    f"edge ({p!r}, {q!r}) names an unknown process"
                ) from None
            rows[i].append(j)
            rows[j].append(i)
        return cls._from_index_rows(rows, procs)

    @classmethod
    def _from_index_rows(
        cls,
        rows: Sequence[Sequence[int]],
        processes: Optional[Sequence[ProcessId]] = None,
        connected: Optional[bool] = None,
    ) -> "Network":
        """The network whose process ``processes[i]`` sees
        ``processes[j]`` for each ``j`` of ``rows[i]``, port by port
        (``processes`` defaults to ``0 .. n-1``).

        ``rows`` must come from appending each edge ``(i, j)`` of a
        sequence to ``rows[i]`` and ``rows[j]``, as :meth:`from_edges`
        and the ``sparse`` generator build them, so they are symmetric
        by construction; every other property a networkx graph and
        :meth:`__init__` guarantee is checked here.  A generator that
        has already searched the components passes its verdict as
        ``connected``; otherwise one search decides it.
        """
        n = len(rows)
        if n == 0:
            raise TopologyError("network must have at least one process")
        if any(map(contains, rows, range(n))):
            raise TopologyError("self-loops are not allowed")
        if any(len(set(row)) != len(row) for row in rows):
            raise TopologyError("a pair of processes is joined twice")
        if connected is None:
            connected = n == 1 or _connected(rows)
        if not connected:
            raise TopologyError("network must be connected")
        if processes is None:
            ports = dict(zip(range(n), map(tuple, rows)))
        else:
            pid = processes.__getitem__
            ports = {p: tuple(map(pid, row)) for p, row in zip(processes, rows)}
        net = cls.__new__(cls)
        net._ports = ports
        net._adopt(ports, None)
        net._port_arrays = _index_arrays(rows)
        return net

    @classmethod
    def _from_port_arrays(cls, offsets, flat, *,
                          connected: bool) -> "Network":
        """The network on processes ``0 .. n-1`` whose process ``i`` sees
        ``flat[offsets[i]:offsets[i+1]]``, port by port, from NumPy int64
        arrays (``len(offsets) == n + 1``).

        The checks :meth:`_from_index_rows` makes run over the arrays,
        plus one that rows built edge by edge pass by construction: each
        port has its reverse.  ``n``, ``m``, ``Δ``, :attr:`processes` and
        :meth:`process_index` come from the arrays, which are kept as the
        stdlib arrays :meth:`port_arrays` returns; the per-process
        neighbor tuples are built on first scalar use.  The caller has
        searched the components and passes its verdict as ``connected``.
        """
        from .columnar import check_port_arrays

        n = len(offsets) - 1
        max_degree = check_port_arrays(offsets, flat)
        if not connected:
            raise TopologyError("network must be connected")
        net = cls.__new__(cls)
        net._adopt(range(n), None)
        net._m = len(flat) // 2
        net._max_degree = max_degree
        net._port_arrays = (_array_q(offsets), _array_q(flat))
        return net

    @cached_property
    def _ports(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        """The neighbor tuples of a network built from port arrays, made
        on first use (every other network sets them at construction)."""
        offsets, flat = self._port_arrays
        entries = iter(flat.tolist())
        return dict(zip(self._pids, [
            tuple(islice(entries, degree))
            for degree in map(sub, offsets[1:], offsets)
        ]))

    def _nx(self) -> nx.Graph:
        """The networkx graph of this network, built on first use when
        the network came from an edge sequence.

        Nodes come in process order and each adjacency in port order,
        which on such a network is edge-sequence order.  The sequence
        itself is not kept, and re-adding the edges in any per-process
        order can reorder some adjacency, so the adjacency is written
        the way ``Graph.add_edge`` writes it: one data dict per edge,
        shared by both directions.
        """
        graph = self._graph
        if graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(self._ports)
            adj = graph._adj
            for p, row in self._ports.items():
                nbrs = adj[p]
                for q in row:
                    data = adj[q].get(p)
                    nbrs[q] = {} if data is None else data
            self._graph = graph
        return graph

    # ------------------------------------------------------------------
    # Paper notation
    # ------------------------------------------------------------------
    @cached_property
    def processes(self) -> Tuple[ProcessId, ...]:
        """Π — all processes, in a stable order (one tuple, built once)."""
        return tuple(self._pids)

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self._pids)

    @property
    def m(self) -> int:
        """Number of edges (computed lazily from the port tables,
        cached).  Each edge appears in both endpoints' port lists and
        construction rejects self-loops, so it is half their total."""
        if self._m is None:
            self._m = sum(map(len, self._ports.values())) // 2
        return self._m

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """Γ.p — neighbors of ``p`` in local-index order (port 1 first)."""
        return self._ports[p]

    def degree(self, p: ProcessId) -> int:
        """δ.p — the degree of ``p``."""
        return len(self._ports[p])

    @property
    def max_degree(self) -> int:
        """Δ — the degree of the network (computed lazily, cached)."""
        if self._max_degree is None:
            self._max_degree = max(map(len, self._ports.values()))
        return self._max_degree

    @property
    def diameter(self) -> int:
        """D — the diameter (computed lazily, cached).  networkx's
        bounding eccentricity search gives the exact value with far
        fewer breadth-first searches than one per process."""
        if self._diameter is None:
            if self.n == 1:
                self._diameter = 0
            else:
                self._diameter = nx.diameter(self._nx(), usebounds=True)
        return self._diameter

    # ------------------------------------------------------------------
    # Port numbering
    # ------------------------------------------------------------------
    def neighbor_at(self, p: ProcessId, port: int) -> ProcessId:
        """The neighbor of ``p`` behind local index ``port`` (1-based)."""
        order = self._ports[p]
        if not 1 <= port <= len(order):
            raise TopologyError(
                f"process {p!r} has no port {port} (degree {len(order)})"
            )
        return order[port - 1]

    def port_to(self, p: ProcessId, q: ProcessId) -> int:
        """The local index under which ``p`` sees its neighbor ``q``."""
        table = self._port_of.get(p)
        if table is None:
            order = self._ports.get(p)
            if order is None:
                raise TopologyError(f"{q!r} is not a neighbor of {p!r}")
            table = self._port_of[p] = {r: i + 1 for i, r in enumerate(order)}
        try:
            return table[q]
        except KeyError:
            raise TopologyError(f"{q!r} is not a neighbor of {p!r}") from None

    def process_index(self) -> Dict[ProcessId, int]:
        """``p -> i``, the position of each process in :attr:`processes`
        (built once, cached).  Configurations drawn on this network,
        the engines' canonical order and the column store all share
        this one map, so callers must not mutate it."""
        if self._index is None:
            self._index = dict(zip(self._pids, range(self.n)))
        return self._index

    def port_arrays(self) -> Tuple[array, array]:
        """``(offsets, flat)`` — the port tables in index space.

        Both are stdlib ``array('q')``: the ports of the ``i``-th process
        (in :attr:`processes` order) are ``flat[offsets[i]:offsets[i+1]]``,
        each the index of the neighbor behind it.  A network built from an
        edge sequence has them from its construction; one built from a
        graph maps its tables on first use.  Either way they are cached,
        and the columnar engine wraps them without copying.
        """
        if self._port_arrays is None:
            index = self.process_index().__getitem__
            self._port_arrays = _index_arrays(
                [tuple(map(index, row)) for row in self._ports.values()]
            )
        return self._port_arrays

    def port_ends(self, column: Sequence) -> Tuple[Iterable, Iterable]:
        """Two aligned iterators over every port: the value ``column``
        (indexed like :attr:`processes`) holds for the port's owner, and
        the value it holds for the neighbor behind the port.  Each edge
        appears twice, once from each end; no networkx graph is built."""
        offsets, flat = self.port_arrays()
        owners = chain.from_iterable(
            map(repeat, column, map(sub, offsets[1:], offsets)))
        return owners, map(column.__getitem__, flat)

    def with_ports(self, ports: Mapping[ProcessId, Sequence[ProcessId]]) -> "Network":
        """A copy of this network with (some) port maps replaced."""
        merged = {p: list(order) for p, order in self._ports.items()}
        for p, order in ports.items():
            merged[p] = list(order)
        return Network(self._nx(), merged)

    # ------------------------------------------------------------------
    # Safe mutation (functional: every mutator returns a new Network)
    # ------------------------------------------------------------------
    def _mutated(self, mutate, ports: Dict[ProcessId, List[ProcessId]]) -> "Network":
        """Build a mutated copy: apply ``mutate`` to a graph copy and
        construct a new :class:`Network` with the given port lists (the
        constructor re-validates connectivity, simplicity, non-emptiness)."""
        graph = self._nx().copy()
        mutate(graph)
        return Network(graph, ports, copy=False)

    def with_edge_added(self, p: ProcessId, q: ProcessId) -> "Network":
        """A copy with edge ``{p, q}`` added.

        Port numbering stays stable for every untouched process; each
        endpoint sees its new neighbor behind its highest port (the
        least disruptive assignment for round-robin pointers).
        """
        if p == q:
            raise TopologyError("self-loops are not allowed")
        if p not in self or q not in self:
            raise TopologyError(f"{p!r} or {q!r} is not a process")
        if self.are_neighbors(p, q):
            raise TopologyError(f"{p!r} and {q!r} are already neighbors")
        ports = {r: list(order) for r, order in self._ports.items()}
        ports[p].append(q)
        ports[q].append(p)
        return self._mutated(lambda g: g.add_edge(p, q), ports)

    def with_edge_removed(self, p: ProcessId, q: ProcessId) -> "Network":
        """A copy with edge ``{p, q}`` removed (ports compact upward).

        Raises :class:`TopologyError` when the edge does not exist or
        its removal would disconnect the network (use
        :func:`non_bridge_edges` to sample safely).
        """
        if not self.are_neighbors(p, q):
            raise TopologyError(f"{p!r} and {q!r} are not neighbors")
        ports = {r: list(order) for r, order in self._ports.items()}
        ports[p].remove(q)
        ports[q].remove(p)
        return self._mutated(lambda g: g.remove_edge(p, q), ports)

    def with_node_added(
        self, p: ProcessId, neighbors: Sequence[ProcessId]
    ) -> "Network":
        """A copy with a joining process ``p`` wired to ``neighbors``.

        The newcomer needs at least one neighbor (the network must stay
        connected); existing processes see it behind their highest port.
        """
        if p in self:
            raise TopologyError(f"{p!r} is already a process")
        neighbors = list(neighbors)
        if not neighbors:
            raise TopologyError("a joining process needs >= 1 neighbor")
        if len(set(neighbors)) != len(neighbors):
            raise TopologyError("duplicate neighbors for the joining process")
        for q in neighbors:
            if q not in self:
                raise TopologyError(f"{q!r} is not a process")
        ports = {r: list(order) for r, order in self._ports.items()}
        for q in neighbors:
            ports[q].append(p)
        ports[p] = list(neighbors)
        return self._mutated(
            lambda g: g.add_edges_from((p, q) for q in neighbors), ports
        )

    def with_node_removed(self, p: ProcessId) -> "Network":
        """A copy with process ``p`` (and its edges) removed.

        Raises :class:`TopologyError` when ``p`` does not exist, is the
        last process, or is a cut vertex (use :func:`removable_nodes`
        to sample safely).
        """
        if p not in self:
            raise TopologyError(f"{p!r} is not a process")
        if self.n == 1:
            raise TopologyError("cannot remove the last process")
        ports = {
            r: [q for q in order if q != p]
            for r, order in self._ports.items()
            if r != p
        }
        return self._mutated(lambda g: g.remove_node(p), ports)

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def edges(self) -> List[Tuple[ProcessId, ProcessId]]:
        """All edges as (p, q) tuples."""
        return list(self._nx().edges)

    def are_neighbors(self, p: ProcessId, q: ProcessId) -> bool:
        return self._nx().has_edge(p, q)

    @property
    def nx_graph(self) -> nx.Graph:
        """A copy of the underlying :mod:`networkx` graph."""
        return self._nx().copy()

    def subgraph_view(self) -> nx.Graph:
        """Read-only view of the underlying graph (no copy)."""
        return self._nx()

    def __contains__(self, p: ProcessId) -> bool:
        # An unhashable value is no process (as a networkx graph answers).
        try:
            return p in self.process_index()
        except TypeError:
            return False

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m}, Δ={self.max_degree})"


def relabel_ports_randomly(network: Network, rng) -> Network:
    """Shuffle every process's port numbering uniformly at random.

    In anonymous networks the port numbering is not under the protocol's
    control; randomizing it exercises protocols against arbitrary
    labellings (and lets tests search for adversarial ones).
    """
    ports = {}
    for p in network.processes:
        order = list(network.neighbors(p))
        rng.shuffle(order)
        ports[p] = order
    return network.with_ports(ports)


def non_bridge_edges(network: Network) -> List[Tuple[ProcessId, ProcessId]]:
    """Edges whose removal keeps the network connected (non-bridges).

    The safe candidate pool for edge-removal churn events, in the
    deterministic edge-iteration order of the underlying graph.
    """
    bridges = set(nx.bridges(network.subgraph_view()))
    return [
        (p, q)
        for p, q in network.edges()
        if (p, q) not in bridges and (q, p) not in bridges
    ]


def removable_nodes(network: Network, min_n: int = 3) -> List[ProcessId]:
    """Processes whose departure keeps the network connected.

    Excludes cut vertices, and returns nothing once the network has
    shrunk to ``min_n`` processes (the default 3 keeps every remaining
    process a neighbor-having one, as the paper's protocols require).
    """
    if network.n <= min_n:
        return []
    cuts = set(nx.articulation_points(network.subgraph_view()))
    return [p for p in network.processes if p not in cuts]


def missing_edges(
    network: Network, limit: int = 0
) -> List[Tuple[ProcessId, ProcessId]]:
    """Non-adjacent process pairs — the edge-add churn fallback when
    rejection sampling finds nothing (near-complete graphs).  ``limit``
    caps the enumeration (0 = all pairs); pairs come out in
    deterministic process order.
    """
    out: List[Tuple[ProcessId, ProcessId]] = []
    procs = network.processes
    for i, p in enumerate(procs):
        for q in procs[i + 1:]:
            if not network.are_neighbors(p, q):
                out.append((p, q))
                if limit and len(out) >= limit:
                    return out
    return out


def network_from_edges(
    edges: Iterable[Tuple[ProcessId, ProcessId]],
    ports: Optional[Mapping[ProcessId, Sequence[ProcessId]]] = None,
) -> Network:
    """Build a :class:`Network` from an edge list."""
    g = nx.Graph()
    g.add_edges_from(edges)
    return Network(g, ports, copy=False)
