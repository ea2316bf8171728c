"""Port-numbered network topologies.

The paper's model assumes each process ``p`` distinguishes its neighbors
via *local indices* numbered ``1 .. δ.p`` (Section 2).  The local index
assignment (the "port numbering") is adversarial in anonymous networks —
several impossibility arguments hinge on choosing it maliciously — so the
topology object carries an explicit, per-process port map rather than
relying on any canonical neighbor ordering.

:class:`Network` wraps a :mod:`networkx` graph and exposes the paper's
notation: ``Γ.p`` (:meth:`Network.neighbors`), ``δ.p``
(:meth:`Network.degree`), ``Δ`` (:attr:`Network.max_degree`), ``D``
(:attr:`Network.diameter`), ``n`` and ``m``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..core.exceptions import TopologyError

ProcessId = Hashable


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

        self._graph = graph.copy() if copy else graph
        self._ports: Dict[ProcessId, Tuple[ProcessId, ...]] = {}
        #: ``p -> {q: port}`` inverse tables, built lazily by
        #: :meth:`port_to` — only scenario churn and debug tooling ask
        #: for them, so the eager build was pure overhead at scale.
        self._port_of: Dict[ProcessId, Dict[ProcessId, int]] = {}

        for p in self._graph.nodes:
            if ports is not None and p in ports:
                order = tuple(ports[p])
                if sorted(map(repr, order)) != sorted(
                    map(repr, self._graph.neighbors(p))
                ):
                    raise TopologyError(
                        f"port list of {p!r} does not enumerate its neighbors"
                    )
            else:
                order = tuple(self._graph.neighbors(p))
            self._ports[p] = order

        # Derived once on first use: a Network never changes after
        # construction (every ``with_*`` mutator returns a new one).
        self._diameter: Optional[int] = None
        self._m: Optional[int] = None
        self._max_degree: Optional[int] = None

    # ------------------------------------------------------------------
    # Paper notation
    # ------------------------------------------------------------------
    @property
    def processes(self) -> List[ProcessId]:
        """Π — all processes, in a stable order."""
        return list(self._graph.nodes)

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._graph.number_of_nodes()

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
        """D — the diameter (computed lazily, cached)."""
        if self._diameter is None:
            if self.n == 1:
                self._diameter = 0
            else:
                self._diameter = nx.diameter(self._graph)
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

    def with_ports(self, ports: Mapping[ProcessId, Sequence[ProcessId]]) -> "Network":
        """A copy of this network with (some) port maps replaced."""
        merged = {p: list(self._ports[p]) for p in self._graph.nodes}
        for p, order in ports.items():
            merged[p] = list(order)
        return Network(self._graph, merged)

    # ------------------------------------------------------------------
    # Safe mutation (functional: every mutator returns a new Network)
    # ------------------------------------------------------------------
    def _mutated(self, mutate, ports: Dict[ProcessId, List[ProcessId]]) -> "Network":
        """Build a mutated copy: apply ``mutate`` to a graph copy and
        construct a new :class:`Network` with the given port lists (the
        constructor re-validates connectivity, simplicity, non-emptiness)."""
        graph = self._graph.copy()
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
        if p not in self._graph or q not in self._graph:
            raise TopologyError(f"{p!r} or {q!r} is not a process")
        if self._graph.has_edge(p, q):
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
        if not self._graph.has_edge(p, q):
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
        if p in self._graph:
            raise TopologyError(f"{p!r} is already a process")
        neighbors = list(neighbors)
        if not neighbors:
            raise TopologyError("a joining process needs >= 1 neighbor")
        if len(set(neighbors)) != len(neighbors):
            raise TopologyError("duplicate neighbors for the joining process")
        for q in neighbors:
            if q not in self._graph:
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
        if p not in self._graph:
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
        return list(self._graph.edges)

    def are_neighbors(self, p: ProcessId, q: ProcessId) -> bool:
        return self._graph.has_edge(p, q)

    @property
    def nx_graph(self) -> nx.Graph:
        """A copy of the underlying :mod:`networkx` graph."""
        return self._graph.copy()

    def subgraph_view(self) -> nx.Graph:
        """Read-only view of the underlying graph (no copy)."""
        return self._graph

    def __contains__(self, p: ProcessId) -> bool:
        return p in self._graph

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
