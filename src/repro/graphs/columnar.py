"""Topologies as NumPy port arrays, for the columnar engines.

A trial on a columnar engine (``batch-resident``, ``batch-debug``) reads
its network through :meth:`Network.port_arrays
<repro.graphs.topology.Network.port_arrays>` and a few scalars, never
through per-process neighbor tuples.  :func:`sparse_random` here builds
the network :func:`repro.graphs.generators.sparse_random` builds — the
same processes, every port in the same place — straight into those
arrays, with the skip sampling, the port tables and the component
search vectorized.  The NumPy-free generator stays the oracle, and
scalar trials keep using it, so they never import NumPy.

The draws come from the same :class:`random.Random` streams the oracle
reads (see :func:`uniforms`), not from ``numpy.random``, which this
module never imports.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import TopologyError
from ..core.rngstreams import randbelow_run, word_try
from .generators import check_seed, sparse_edge_probability
from .topology import Network


def uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The next ``k`` values of ``rng.random()``, in order.

    CPython's ``random()`` takes the generator's next two 32-bit outputs
    ``a`` and ``b`` and returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
    ``getrandbits(64 * k)`` returns the next ``2k`` outputs, the first in
    the lowest 32 bits.  The arithmetic is exact in float64, so each
    value is the one ``random()`` returns, and ``rng`` is left where
    ``k`` calls of ``random()`` leave it.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) \
        * (1.0 / 9007199254740992.0)


def gnp_skips(draws: np.ndarray, lp: float, limit: int) -> np.ndarray:
    """``min(int(math.log(1.0 - r) / lp), limit)`` for each draw ``r``.

    NumPy's ``log`` may sit an ulp away from ``math.log``, which moves
    the quotient by a few ulps and can carry it across an integer; every
    quotient within a billionth (relative) of an integer is redone with
    ``math.log``.  Quotients are clipped at ``limit`` before the int64
    cast, so a skip past the last pair stays finite.
    """
    q = np.log(1.0 - draws) / lp
    skips = np.floor(np.minimum(q, limit)).astype(np.int64)
    near = np.flatnonzero((q < limit + 2) & (
        np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(q, 1.0)))
    if near.size:
        log = math.log
        skips[near] = [min(int(log(1.0 - r) / lp), limit)
                       for r in draws[near].tolist()]
    return skips


def _gnp_pairs(n: int, p: float, rng: random.Random) -> np.ndarray:
    """The pairs of one G(n, p) sample (``0 < p < 1``) in generation
    order, as positions in the order ``(1, 0), (2, 0), (2, 1), (3, 0),
    …`` (pair ``(v, w)``, ``w < v``, at ``v(v-1)/2 + w``).

    The draws and pairs are those of
    :func:`repro.graphs.generators._gnp_ports`: each draw adds ``1 +``
    its skip to the position, and the first position past the last pair
    ends the sample.  The draws come in chunks sized to the expected
    sample, and the chunk's cumulative sum stays inside int64.
    """
    total = n * (n - 1) // 2
    lp = math.log(1.0 - p)
    if lp == 0.0:  # 1.0 - p == 1.0: every skip lands past the last pair
        return np.empty(0, dtype=np.int64)
    expect = p * total
    chunk = min(int(expect + 4.0 * math.sqrt(expect)) + 64,
                max(1, 2**62 // (total + 1)))
    parts: List[np.ndarray] = []
    last = -1
    while last < total:
        pos = np.cumsum(gnp_skips(uniforms(rng, chunk), lp, total) + 1)
        pos += last
        end = int(np.searchsorted(pos, total))
        parts.append(pos[:end])
        last = int(pos[-1])
    return np.concatenate(parts)


def _pair_endpoints(pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(v, w)`` of the pairs at positions ``pos`` (``w < v``)."""
    v = np.floor((1.0 + np.sqrt(8.0 * pos + 1.0)) * 0.5).astype(np.int64)
    v -= v * (v - 1) // 2 > pos  # the float root can land one row off
    v += v * (v + 1) // 2 <= pos
    return v, pos - v * (v - 1) // 2


def gnp_port_arrays(n: int, p: float, rng: random.Random
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, flat, minima)``: the port arrays of the G(n, p) sample
    :func:`repro.graphs.generators._gnp_ports` draws from ``rng``, and
    each process's lowest component member (:func:`_component_minima`).

    The oracle appends each pair ``(v, w)`` to both endpoints in
    generation order, which lists every process's neighbors in ascending
    order (first those below it, row by row, then those above it), so
    one sort of the pairs keyed ``process * n + neighbor`` builds the
    tables.  ``p >= 1`` gives the complete graph without a draw.
    """
    if p >= 1:
        everyone = np.broadcast_to(np.arange(n, dtype=np.int64), (n, n))
        flat = everyone[~np.eye(n, dtype=bool)]
        offsets = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int64)
        return offsets, flat, np.zeros(n, dtype=np.int64)
    v, w = _pair_endpoints(_gnp_pairs(n, p, rng))
    keys = np.sort(np.concatenate((v * n + w, w * n + v)))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])
    return offsets, keys % n, _component_minima(n, v, w)


def _port_entries(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where the ports of ``rows`` sit in ``flat``, row by row, each
    row's ports in port order."""
    deg = offsets[rows + 1] - offsets[rows]
    shift = offsets[rows] - np.cumsum(deg) + deg  # first port - its rank
    return np.arange(deg.sum(), dtype=np.int64) + np.repeat(shift, deg)


def check_port_arrays(offsets: np.ndarray, flat: np.ndarray) -> int:
    """Raise :class:`TopologyError` unless ``(offsets, flat)`` are the
    port tables of a simple undirected network on ``0 .. n-1`` with at
    least one process; returns its degree Δ.

    One sort of the ports, each keyed by its unordered pair and then its
    direction, finds a pair joined twice (two equal keys) and a port
    with no reverse (a key that does not pair up with its twin).
    """
    n = len(offsets) - 1
    if n < 1:
        raise TopologyError("network must have at least one process")
    deg = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(flat) or (deg < 0).any():
        raise TopologyError("port offsets do not index the port table")
    if len(flat) and (flat.min() < 0 or flat.max() >= n):
        raise TopologyError("a port names an unknown process")
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    if (src == flat).any():
        raise TopologyError("self-loops are not allowed")
    low, high = np.minimum(src, flat), np.maximum(src, flat)
    keys = np.sort((low * n + high) * 2 + (src > flat))
    if (keys[1:] == keys[:-1]).any():
        raise TopologyError("a pair of processes is joined twice")
    if len(keys) % 2 or (keys[0::2] % 2).any() \
            or (keys[1::2] != keys[0::2] + 1).any():
        raise TopologyError("a port has no reverse port")
    return int(deg.max())


def _component_minima(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each process's lowest component member, for the network on
    ``0 .. n-1`` with edges ``(u[i], v[i])``, by min-label hooking.

    Every label is a member of its process's component no larger than
    the process.  Each round hooks, for every edge whose endpoints'
    labels differ, the larger label onto the smaller, then follows
    labels to their own labels until they settle.  An edge whose labels
    agree keeps them equal, so each round drops it.  When no edge is
    left, a component has one label, and only its lowest member can
    be it.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return label
        u, v, lu, lv = u[split], v[split], lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def component_lists(offsets: np.ndarray, flat: np.ndarray,
                    minima: np.ndarray) -> List[List[int]]:
    """The components as :func:`generators._component_lists` gives them:
    by lowest member (``minima`` is :func:`_component_minima`'s answer),
    each as ``list(component)`` lists the set that networkx fills in
    breadth-first order from that member.

    One level-synchronous search runs from all the minima at once.  Each
    level lists the unseen neighbors of the last one, process by process
    and port by port, each where it first occurs — the order in which a
    FIFO search from each minimum reaches them.  Components share no
    process, so a stable sort by component gathers each one's order,
    and a set filled in that order is the set networkx fills, which
    iterates in the same order.
    """
    n = len(offsets) - 1
    roots = np.flatnonzero(minima == np.arange(n))
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    levels = [roots]
    frontier = roots
    unset = np.iinfo(np.int64).max
    first = np.full(n, unset, dtype=np.int64)
    while True:
        reached = flat[_port_entries(offsets, frontier)]
        reached = reached[~seen[reached]]
        if not reached.size:
            break
        at = np.arange(len(reached))
        np.minimum.at(first, reached, at)
        frontier = reached[first[reached] == at]
        first[frontier] = unset
        seen[frontier] = True
        levels.append(frontier)
    order = np.concatenate(levels)
    members = order[np.argsort(minima[order], kind="stable")].tolist()
    cuts = [0, *np.cumsum(np.bincount(minima)[roots]).tolist()]
    return [[members[a]] if b - a == 1 else list(set(members[a:b]))
            for a, b in zip(cuts, cuts[1:])]


def _stitched(offsets: np.ndarray, flat: np.ndarray, u: Sequence[int],
              v: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The port arrays with stitch edge ``(u[i], v[i])`` appended to
    both endpoints' ports, edge by edge."""
    n = len(offsets) - 1
    src = np.empty(2 * len(u), dtype=np.int64)
    src[0::2], src[1::2] = u, v
    dst = src.reshape(-1, 2)[:, ::-1].ravel()
    by_src = np.argsort(src, kind="stable")
    src, dst = src[by_src], dst[by_src]
    deg = np.diff(offsets)
    extra = np.bincount(src, minlength=n)
    new = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg + extra, out=new[1:])
    out = np.empty(len(flat) + len(src), dtype=np.int64)
    out[np.arange(len(flat)) + np.repeat(new[:-1] - offsets[:-1], deg)] = flat
    rank = np.arange(len(src)) - np.searchsorted(src, src)
    out[new[src] + deg[src] + rank] = dst
    return new, out


def sparse_random(n: int, avg_degree: float = 3.0,
                  seed: Optional[int] = None) -> Network:
    """:func:`repro.graphs.generators.sparse_random`'s network, built as
    port arrays.

    The same seeds and draws give the same G(n, p) pairs (:func:`_gnp_pairs`),
    whose ports are each process's neighbors in ascending order — the
    order the oracle appends them in.  The same component lists meet
    the draws of the oracle's ``rng.shuffle`` and ``rng.choice`` calls,
    taken as two exact bulk runs (:func:`randbelow_run`): the
    Fisher–Yates sizes ``k … 2``, whose swaps apply in order, then the
    sizes of the lists each stitch edge chooses from.  The stitch edges
    follow each process's sampled ports.
    """
    p = sparse_edge_probability(n, avg_degree)
    rng = random.Random(check_seed(seed))
    offsets, flat, minima = gnp_port_arrays(
        n, p, random.Random(rng.randrange(2**31)))
    comps = component_lists(offsets, flat, minima)
    # rng.shuffle(comps): the Fisher–Yates sizes k … 2, swapped in order
    tops = range(len(comps) - 1, 0, -1)
    swaps = randbelow_run(rng, [word_try(i + 1) for i in tops])
    for i, j in zip(tops, swaps):
        comps[i], comps[j] = comps[j], comps[i]
    # then rng.choice(a), rng.choice(b) for each link (a, b) of the chain
    sides = [None] * (2 * len(tops))
    sides[0::2], sides[1::2] = comps[:-1], comps[1:]
    sizes = list(map(len, sides))
    tries = {size: word_try(size) for size in set(sizes)}
    picks = randbelow_run(rng, list(map(tries.__getitem__, sizes)))
    if picks:
        ends = list(map(list.__getitem__, sides, picks))
        offsets, flat = _stitched(offsets, flat, ends[0::2], ends[1::2])
    # k components joined by k - 1 stitch edges along a chain
    return Network._from_port_arrays(offsets, flat, connected=True)
