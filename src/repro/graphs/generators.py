"""Topology generators.

Standard families used by the tests, examples and benchmarks: chains,
rings, stars, cliques, grids, tori, trees, caterpillars, hypercubes and
random graphs.  All return :class:`~repro.graphs.topology.Network`
objects with process ids ``0..n-1`` (or coordinate tuples for grids).
"""

from __future__ import annotations

import math
import random
from itertools import chain as _chain
from numbers import Real
from typing import List, Optional

import networkx as nx

from ..core.exceptions import TopologyError
from .topology import Network


def _size(name: str, value, least: float) -> int:
    """``value`` after checking that it is an int (not a bool) of at
    least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TopologyError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise TopologyError(f"{name} must be at least {least}, got {value}")
    return value


def check_seed(seed: Optional[int]) -> Optional[int]:
    """``seed`` after checking that it is None or an int (not a bool)."""
    return None if seed is None else _size("seed", seed, -math.inf)


def chain(n: int) -> Network:
    """A path of ``n`` processes: ``0 — 1 — … — n-1``."""
    return Network(nx.path_graph(_size("n", n, 1)))


def ring(n: int) -> Network:
    """A cycle of ``n ≥ 3`` processes."""
    return Network(nx.cycle_graph(_size("n", n, 3)))


def star(leaves: int) -> Network:
    """A star: center ``0`` plus ``leaves`` pendant processes."""
    return Network(nx.star_graph(_size("leaves", leaves, 1)))


def clique(n: int) -> Network:
    """The complete graph on ``n ≥ 2`` processes (a Δ-clique forces the
    Δ+1 colors of protocol COLORING)."""
    return Network(nx.complete_graph(_size("n", n, 2)))


def grid(rows: int, cols: int) -> Network:
    """A rows×cols 2D mesh; process ids are (row, col) tuples."""
    return Network(nx.grid_2d_graph(_size("rows", rows, 1),
                                    _size("cols", cols, 1)))


def torus(rows: int, cols: int) -> Network:
    """A rows×cols 2D torus (4-regular when both dims ≥ 3)."""
    return Network(nx.grid_2d_graph(_size("rows", rows, 3),
                                    _size("cols", cols, 3), periodic=True))


def hypercube(dim: int) -> Network:
    """The ``dim``-dimensional hypercube (ids are ints 0..2^dim-1)."""
    g = nx.hypercube_graph(_size("dim", dim, 1))
    return Network(nx.convert_node_labels_to_integers(g, ordering="sorted"))


def binary_tree(height: int) -> Network:
    """A complete binary tree of the given height (height 0 = one node)."""
    if _size("height", height, 0) == 0:
        return chain(1)
    return Network(nx.balanced_tree(2, height))


def caterpillar(spine: int, legs_per_node: int) -> Network:
    """A caterpillar: a spine path with ``legs_per_node`` pendants each.

    Caterpillars stress the stability measures: spine processes see
    high degree while pendants are forced to watch their only neighbor.
    """
    g = nx.path_graph(_size("spine", spine, 1))
    legs = _size("legs_per_node", legs_per_node, 0)
    next_id = spine
    for v in range(spine):
        for _ in range(legs):
            g.add_edge(v, next_id)
            next_id += 1
    return Network(g)


def random_connected(
    n: int, p: float, seed: Optional[int] = None, max_tries: int = 200
) -> Network:
    """A connected Erdős–Rényi G(n, p) sample (resampled until connected)."""
    _size("n", n, 1)
    # NaN fails both comparisons; a bool is an int to Python
    if isinstance(p, bool) or not isinstance(p, Real) or not 0 <= p <= 1:
        raise TopologyError(f"p must be a real in [0, 1], got {p!r}")
    rng = random.Random(check_seed(seed))
    for _ in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
        if n == 1 or nx.is_connected(g):
            return Network(g)
    # Fall back: connect components along a random spanning chain.
    g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
    comps = [sorted(c) for c in nx.connected_components(g)]
    for a, b in zip(comps, comps[1:]):
        g.add_edge(a[0], b[0])
    return Network(g)


def random_regular(n: int, d: int, seed: Optional[int] = None) -> Network:
    """A random connected ``d``-regular graph on ``n`` processes."""
    if _size("d", d, 0) >= _size("n", n, 1):
        raise TopologyError(f"d must be below n, got d={d}, n={n}")
    if n * d % 2 != 0:
        raise TopologyError("n*d must be even for a d-regular graph")
    rng = random.Random(check_seed(seed))
    for _ in range(200):
        g = nx.random_regular_graph(d, n, seed=rng.randrange(2**31))
        if nx.is_connected(g):
            return Network(g)
    raise TopologyError(f"could not sample a connected {d}-regular graph on {n}")


def _gnp_ports(n: int, p: float, rng: random.Random) -> List[List[int]]:
    """Port lists of one G(n, p) sample, drawn in O(n + m) by skip
    sampling (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).

    The draws, the edges and their order are those of networkx's
    ``fast_gnp_random_graph(n, p, seed)`` with ``rng =
    random.Random(seed)``: each edge is appended to both endpoints as
    networkx adds it, so ``ports[v]`` is ``v``'s adjacency in that graph.
    ``p >= 1`` gives the complete graph without a draw, as networkx does.
    A ``p`` so small that ``1.0 - p == 1.0`` leaves ``log(1 - p)`` at 0,
    where networkx divides by zero: every skip lands past the last pair,
    so the sample is empty, again without a draw.
    """
    if p >= 1:
        return [list(_chain(range(v), range(v + 1, n))) for v in range(n)]
    ports: List[List[int]] = [[] for _ in range(n)]
    log, draw = math.log, rng.random
    lp = log(1.0 - p)
    if lp == 0.0:
        return ports
    v, w = 1, -1
    while v < n:
        w = w + 1 + int(log(1.0 - draw()) / lp)
        while w >= v and v < n:
            w = w - v
            v = v + 1
        if v < n:
            ports[v].append(w)
            ports[w].append(v)
    return ports


def _component_lists(ports: List[List[int]]) -> List[List[int]]:
    """The connected components in networkx's ``connected_components``
    order — by lowest member — each as ``list(component)`` lists it.

    networkx fills each component's set in breadth-first order from its
    lowest member; the set is rebuilt here with the same insertions, so
    it iterates (and the list comes out) in the same order.
    """
    marked = bytearray(len(ports))
    comps = []
    for v in range(len(ports)):
        if marked[v]:
            continue
        comp = {v}
        order = [v]
        for x in order:  # grows while it is walked: a FIFO queue
            for y in ports[x]:
                if y not in comp:
                    comp.add(y)
                    order.append(y)
        for x in order:
            marked[x] = 1
        comps.append(list(comp))
    return comps


def sparse_edge_probability(n: int, avg_degree: float) -> float:
    """The G(n, p) edge probability of a ``sparse`` network,
    ``min(1, avg_degree / (n - 1))``, after checking both parameters."""
    _size("n", n, 2)
    # A bool is an int to Python, and NaN passes the positivity check
    # below (then ``min(1.0, nan)`` asks for the complete graph).
    if (isinstance(avg_degree, bool) or not isinstance(avg_degree, Real)
            or not math.isfinite(avg_degree)):
        raise TopologyError(
            f"avg_degree must be a finite number, got {avg_degree!r}"
        )
    if avg_degree <= 0:
        raise TopologyError("avg_degree must be positive")
    return min(1.0, avg_degree / max(n - 1, 1))


def sparse_random(
    n: int, avg_degree: float = 3.0, seed: Optional[int] = None
) -> Network:
    """A connected sparse random graph on ``n`` processes in O(n + m).

    The 10k-node scale tier needs random topologies that build in linear
    time; :func:`random_connected` resamples dense G(n, p) draws and is
    quadratic in ``n``.  This generator takes one G(n, p = avg_degree/n)
    sample via the fast (sparse) algorithm and then stitches the
    connected components together along a random chain, adding at most
    ``#components - 1`` edges — negligible against ``m ≈ n·avg_degree/2``
    and guaranteeing connectivity without resampling.

    It builds port lists, not a graph: the network equals the one
    networkx's ``fast_gnp_random_graph`` and ``connected_components``
    give for the same seed — processes, ports, edges — and builds its
    networkx graph only when a graph algorithm asks for one.  Its NumPy
    twin, :func:`repro.graphs.columnar.sparse_random`, builds the same
    network as port arrays for the columnar engines; this one is the
    oracle, and the only one a scalar trial runs.
    """
    p = sparse_edge_probability(n, avg_degree)
    rng = random.Random(check_seed(seed))
    ports = _gnp_ports(n, p, random.Random(rng.randrange(2**31)))
    comps = _component_lists(ports)
    rng.shuffle(comps)
    for a, b in zip(comps, comps[1:]):
        u, v = rng.choice(a), rng.choice(b)
        ports[u].append(v)
        ports[v].append(u)
    # k components joined by k - 1 stitch edges along a chain: the
    # component search above is the connectivity verdict.
    return Network._from_index_rows(ports, connected=True)


def random_tree(n: int, seed: Optional[int] = None) -> Network:
    """A uniformly random labelled tree on ``n`` processes."""
    check_seed(seed)
    if _size("n", n, 1) == 1:
        return chain(1)
    if hasattr(nx, "random_labeled_tree"):
        g = nx.random_labeled_tree(n, seed=seed)
    else:  # networkx < 3.2
        g = nx.random_tree(n, seed=seed)
    return Network(g)
