"""Port-numbered network topologies.

The paper's model assumes each process ``p`` distinguishes its neighbors
via *local indices* numbered ``1 .. δ.p`` (Section 2).  The local index
assignment (the "port numbering") is adversarial in anonymous networks —
several impossibility arguments hinge on choosing it maliciously — so the
topology object carries an explicit, per-process port map rather than
relying on any canonical neighbor ordering.

A :class:`Network` holds one representation: its processes, in order,
and its port tables in index space (:meth:`Network.port_arrays`), which
``n``, ``m`` and ``Δ`` are read from.  Every way in — a networkx graph,
an edge sequence, the ``sparse`` samplers' port lists or arrays,
:meth:`Network.with_ports` and the ``with_*`` mutators — passes one
check.  Everything else is derived on first use: the neighbor tuples
``Γ.p`` (:meth:`Network.neighbors`), the inverse port maps, the
process index when the construction built none, and a :mod:`networkx`
graph, which only the graph algorithms ask for — ``D``
(:attr:`Network.diameter`), the DSATUR coloring, bridges and cut
vertices.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import contains, sub
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

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


def _reorder(rows: List[List[int]], index: Mapping[ProcessId, int],
             ports: Mapping[ProcessId, Sequence[ProcessId]]) -> None:
    """Put each port list of ``ports`` in place of its process's index
    row, checked to list the same neighbors."""
    for p, order in ports.items():
        i = index.get(p)
        if i is None:
            raise TopologyError(f"{p!r} is not a process")
        try:
            row = list(map(index.__getitem__, order))
        except (KeyError, TypeError):
            row = None
        if row is None or sorted(row) != sorted(rows[i]):
            raise TopologyError(
                f"port list of {p!r} does not enumerate its neighbors"
            )
        rows[i] = row


class Network:
    """An undirected connected network with explicit port numbering.

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph`.  Must be connected, simple
        (a multigraph is refused), with at least one node and no
        self-loops.  It is read, not kept.
    ports:
        Optional mapping ``p -> [q1, q2, ...]`` listing p's neighbors in
        local-index order (index ``i`` of the list is port ``i+1``).
        A process it omits numbers its ports in the graph's adjacency
        order.

    :meth:`from_edges` builds a network from an edge sequence instead.
    """

    def __init__(
        self,
        graph: nx.Graph,
        ports: Optional[Mapping[ProcessId, Sequence[ProcessId]]] = None,
    ):
        if graph.is_directed():  # its adjacency holds one-way arcs
            raise TopologyError("network must be undirected")
        if graph.is_multigraph():  # its adjacency hides parallel edges
            raise TopologyError("network must be a simple graph, not a "
                                "multigraph")
        procs = tuple(graph)
        index = dict(zip(procs, range(len(procs))))
        rows = [list(map(index.__getitem__, graph._adj[p])) for p in procs]
        if ports is not None:
            _reorder(rows, index, ports)
        self._hold(rows, procs, index)

    def _hold(self, rows: Sequence[Sequence[int]],
              processes: Sequence[ProcessId],
              index: Optional[Dict[ProcessId, int]],
              connected: Optional[bool] = None) -> None:
        """Hold index rows as the port tables (``processes[i]`` sees
        ``processes[j]`` for each ``j`` of ``rows[i]``, port by port)
        after the one check: at least one process, no self-loop, no pair
        joined twice, connected.  Rows are symmetric by construction.  A
        builder that has searched the components passes ``connected``."""
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
        self._adopt(processes, index, _index_arrays(rows),
                    max(map(len, rows)))

    def _adopt(self, processes: Sequence[ProcessId],
               index: Optional[Dict[ProcessId, int]],
               arrays: Tuple[array, array], max_degree: int) -> None:
        self._pids = processes  # a tuple, or range(n)
        self._index = index  # None until first asked, if not built
        self._port_arrays = arrays
        self._max_degree = max_degree
        #: ``p -> {q: port}``, each built on first use (:meth:`port_to`)
        self._port_of: Dict[ProcessId, Dict[ProcessId, int]] = {}
        self._graph: Optional[nx.Graph] = None  # see :meth:`_nx`
        self._diameter: Optional[int] = None

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
        procs = tuple(processes)
        index = dict(zip(procs, range(len(procs))))
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
        return cls._from_index_rows(rows, procs, index)

    @classmethod
    def _from_index_rows(
        cls,
        rows: Sequence[Sequence[int]],
        processes: Optional[Sequence[ProcessId]] = None,
        index: Optional[Dict[ProcessId, int]] = None,
        connected: Optional[bool] = None,
    ) -> "Network":
        """The network of index rows (see :meth:`_hold`) over
        ``processes`` (``0 .. n-1`` by default), whose ``p -> i`` map is
        ``index`` when the caller has one."""
        net = cls.__new__(cls)
        net._hold(rows, range(len(rows)) if processes is None else processes,
                  index, connected)
        return net

    @classmethod
    def _from_port_arrays(cls, offsets, flat, *,
                          connected: bool) -> "Network":
        """The network on processes ``0 .. n-1`` whose process ``i`` sees
        ``flat[offsets[i]:offsets[i+1]]``, port by port, from NumPy int64
        arrays (``len(offsets) == n + 1``).

        The checks of :meth:`_hold` run vectorized
        (:func:`~repro.graphs.columnar.check_port_arrays`), plus a
        reverse for every port; the caller passes its component search's
        verdict as ``connected``.
        """
        from .columnar import check_port_arrays

        max_degree = check_port_arrays(offsets, flat)
        if not connected:
            raise TopologyError("network must be connected")
        net = cls.__new__(cls)
        net._adopt(range(len(offsets) - 1), None,
                   (_array_q(offsets), _array_q(flat)), max_degree)
        return net

    @cached_property
    def _ports(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        """The neighbor tuples ``p -> (q1, q2, ...)``, decoded from the
        port tables on first scalar use."""
        offsets, flat = self._port_arrays
        pids = self._pids
        entries = iter(flat.tolist()) if isinstance(pids, range) \
            else map(pids.__getitem__, flat)
        return dict(zip(pids, [
            tuple(islice(entries, degree))
            for degree in map(sub, offsets[1:], offsets)
        ]))

    def _rows(self) -> List[List[int]]:
        """A fresh copy of the port tables as index rows."""
        offsets, flat = self._port_arrays
        entries = flat.tolist()
        return [entries[a:b] for a, b in zip(offsets, offsets[1:])]

    def _nx(self) -> nx.Graph:
        """The networkx graph of this network, built on first use:
        nodes in process order, each adjacency in port order, one data
        dict per edge shared by both directions (as ``add_edge``)."""
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
        """Number of edges: each appears in both endpoints' port lists
        and construction rejects self-loops, so half the ports."""
        return len(self._port_arrays[1]) // 2

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """Γ.p — neighbors of ``p`` in local-index order (port 1 first)."""
        return self._ports[p]

    def degree(self, p: ProcessId) -> int:
        """δ.p — the degree of ``p``."""
        return len(self._ports[p])

    @property
    def max_degree(self) -> int:
        """Δ — the degree of the network."""
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

    def _port_table(self, p: ProcessId) -> Dict[ProcessId, int]:
        """``q -> port`` over ``p``'s neighbors (built on first use,
        cached); empty when ``p`` is no process."""
        table = self._port_of.get(p)
        if table is None:
            order = self._ports.get(p)
            if order is None:
                return {}
            table = self._port_of[p] = {r: i + 1 for i, r in enumerate(order)}
        return table

    def port_to(self, p: ProcessId, q: ProcessId) -> int:
        """The local index under which ``p`` sees its neighbor ``q``."""
        port = self._port_table(p).get(q)
        if port is None:
            raise TopologyError(f"{q!r} is not a neighbor of {p!r}")
        return port

    def process_index(self) -> Dict[ProcessId, int]:
        """``p -> i``, the position of each process in :attr:`processes`
        (the construction's map, or built once on first use).
        Configurations drawn on this network, the engines' canonical
        order and the column store all share this one map, so callers
        must not mutate it."""
        if self._index is None:
            self._index = dict(zip(self._pids, range(self.n)))
        return self._index

    def port_arrays(self) -> Tuple[array, array]:
        """``(offsets, flat)`` — the port tables in index space.

        Both are stdlib ``array('q')``: the ports of the ``i``-th process
        (in :attr:`processes` order) are ``flat[offsets[i]:offsets[i+1]]``,
        each the index of the neighbor behind it.  Every network holds
        them from its construction, and the columnar engine wraps them
        without copying.
        """
        return self._port_arrays

    def port_ends(self, column: Sequence) -> Tuple[Iterable, Iterable]:
        """Two aligned iterators over every port: the value ``column``
        (indexed like :attr:`processes`) holds for the port's owner, and
        the value it holds for the neighbor behind the port.  Each edge
        appears twice, once from each end; no networkx graph is built."""
        offsets, flat = self._port_arrays
        owners = chain.from_iterable(
            map(repeat, column, map(sub, offsets[1:], offsets)))
        return owners, map(column.__getitem__, flat)

    def with_ports(self, ports: Mapping[ProcessId, Sequence[ProcessId]]) -> "Network":
        """A copy of this network with (some) port maps replaced, each
        checked to list the neighbors it replaces."""
        rows = self._rows()
        index = self.process_index()
        _reorder(rows, index, ports)
        return self._from_index_rows(rows, self._pids, index, connected=True)

    # ------------------------------------------------------------------
    # Safe mutation (functional: every mutator returns a new Network,
    # editing a copy of the port tables)
    # ------------------------------------------------------------------
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
        index = self.process_index()
        i, j = index[p], index[q]
        rows = self._rows()
        rows[i].append(j)
        rows[j].append(i)
        return self._from_index_rows(rows, self._pids, index, connected=True)

    def with_edge_removed(self, p: ProcessId, q: ProcessId) -> "Network":
        """A copy with edge ``{p, q}`` removed (ports compact upward).

        Raises :class:`TopologyError` when the edge does not exist or
        its removal would disconnect the network (use
        :func:`non_bridge_edges` to sample safely).
        """
        if not self.are_neighbors(p, q):
            raise TopologyError(f"{p!r} and {q!r} are not neighbors")
        index = self.process_index()
        i, j = index[p], index[q]
        rows = self._rows()
        rows[i].remove(j)
        rows[j].remove(i)
        return self._from_index_rows(rows, self._pids, index)

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
        index = self.process_index()
        n = self.n
        row = [index[q] for q in neighbors]
        rows = self._rows()
        for j in row:
            rows[j].append(n)
        rows.append(row)
        return self._from_index_rows(rows, (*self._pids, p), {**index, p: n},
                                     connected=True)

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
        k = self.process_index()[p]
        rows = self._rows()
        del rows[k]
        # every process after p moves up one place
        rows = [[j - (j > k) for j in row if j != k] for row in rows]
        procs = self.processes
        return self._from_index_rows(rows, procs[:k] + procs[k + 1:])

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def edges(self) -> List[Tuple[ProcessId, ProcessId]]:
        """All edges as (p, q) tuples, each listed once: from its
        endpoint that comes first in process order, in that endpoint's
        port order — networkx's edge view of this network's graph."""
        procs = self.processes
        return [(procs[i], procs[j])
                for i, j in zip(*self.port_ends(range(self.n))) if i < j]

    def are_neighbors(self, p: ProcessId, q: ProcessId) -> bool:
        """Whether ``p`` and ``q`` are joined (False when ``p`` is no
        process)."""
        return q in self._port_table(p)

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

    The safe candidate pool for edge-removal churn events, in
    :meth:`Network.edges` order.
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
