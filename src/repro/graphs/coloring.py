"""Proper vertex colorings as the local-identifier substrate.

Protocols MIS and MATCHING assume a *locally identified* network: each
process holds a communication constant color ``C.p`` that differs from
every neighbor's, ordered by ``≺``.  Any proper vertex coloring provides
these constants (Theorem 4 then derives a dag orientation from them).

This module supplies several classical constructions — first fit in
process order, Welsh-Powell (largest degree first, also the default
``greedy`` coloring) and DSATUR — plus verification helpers.  The
COLORING protocol itself can also serve as the substrate; see
:mod:`repro.protocols.composite`.
"""

from __future__ import annotations

from abc import abstractmethod
from operator import ne, sub
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import networkx as nx

from ..core.exceptions import TopologyError
from ..core.protocol import Protocol
from ..core.variables import SpecMap, VariableSpec
from .topology import Network

ProcessId = Hashable
Coloring = Dict[ProcessId, int]


def is_proper_coloring(network: Network, colors: Coloring) -> bool:
    """True iff adjacent processes always carry distinct colors (read
    off the port tables, port by port)."""
    pids = network.processes
    if set(colors) != set(pids):
        return False
    column = list(map(colors.__getitem__, pids))
    return all(map(ne, *network.port_ends(column)))


def assert_local_identifiers(network: Network, colors: Coloring) -> None:
    """Raise unless ``colors`` is a valid local-identifier assignment."""
    if not is_proper_coloring(network, colors):
        raise TopologyError("colors are not a proper (local-identifier) coloring")


class ColorConstant:
    """Protocol mixin: each process's communication constant ``C`` is
    its color in the protocol's local-identifier coloring
    (``self.colors``), served per process and as a whole column."""

    colors: Coloring

    def constant_values(self, network: Network, p: ProcessId) -> Dict[str, int]:
        return {"C": self.colors[p]}

    def constant_column(self, network: Network, name: str,
                        processes) -> List[int]:
        if name != "C":
            raise KeyError(name)
        return list(map(self.colors.__getitem__, processes))


class DegreeSpecs(Protocol):
    """Protocol base for spec tuples that depend on the degree only.

    A subclass supplies :meth:`specs_for_degree`; each distinct degree
    gets one tuple, built once and shared by every process of that
    degree, so :meth:`specs_of` costs one build per distinct degree and
    ``spec_plans`` and the column store, which group processes by tuple
    identity, resolve once per degree.
    """

    @abstractmethod
    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        """The spec tuple of a process with ``degree`` >= 1 neighbors."""

    def _degree_specs(self, degree: int) -> Tuple[VariableSpec, ...]:
        memo = vars(self).setdefault("_specs_by_degree", {})
        specs = memo.get(degree)
        if specs is None:
            if degree < 1:
                raise TopologyError(
                    f"{self.name} requires every process to have a neighbor"
                )
            specs = memo[degree] = self.specs_for_degree(degree)
        return specs

    def variables(self, network: Network,
                  p: ProcessId) -> Tuple[VariableSpec, ...]:
        return self._degree_specs(network.degree(p))

    def specs_of(self, network: Network) -> SpecMap:
        """The spec map, read off the degree sequence (the port-array
        offsets): one tuple per distinct degree.  It carries its plans
        (``spec_plans``' answer), one per distinct tuple in first-seen
        order, so nothing walks the map again to find them."""
        offsets = network.port_arrays()[0]
        degrees = list(map(sub, offsets[1:], offsets))
        by_degree = {d: self._degree_specs(d) for d in dict.fromkeys(degrees)}
        first = {id(specs): specs for specs in by_degree.values()}
        position = {key: k for k, key in enumerate(first)}
        plan_of = {d: position[id(specs)] for d, specs in by_degree.items()}
        plans = (list(first.values()),
                 list(map(plan_of.__getitem__, degrees)))
        return SpecMap(zip(network.processes,
                           map(by_degree.__getitem__, degrees)), plans)


def color_count(colors: Coloring) -> int:
    """#C — the number of distinct colors used (Notation 1)."""
    return len(set(colors.values()))


def _normalize(raw: Dict[ProcessId, int]) -> Coloring:
    """Shift colorings to the paper's 1-based convention."""
    return {p: c + 1 for p, c in raw.items()}


def _first_fit(network: Network, order: Iterable[int]) -> Coloring:
    """First fit along ``order``, positions in :attr:`Network.processes`:
    each process takes the smallest color no colored neighbor holds,
    read off the port tables.  Keyed by pid, in ``order``."""
    offsets, flat = network.port_arrays()
    order = list(order)
    color = [0] * network.n  # 0: not colored yet
    for i in order:
        taken = set(map(color.__getitem__, flat[offsets[i]:offsets[i + 1]]))
        c = 1
        while c in taken:
            c += 1
        color[i] = c
    pids = network.processes
    return {pids[i]: color[i] for i in order}


def sequential_coloring(network: Network, order: Optional[Iterable[ProcessId]] = None) -> Coloring:
    """First-fit along an explicit order (defaults to process order)."""
    if order is None:
        return _first_fit(network, range(network.n))
    return _first_fit(network, map(network.process_index().__getitem__, order))


def dsatur_coloring(network: Network) -> Coloring:
    """DSATUR — usually fewer colors than plain greedy."""
    raw = nx.greedy_color(network.subgraph_view(), strategy="saturation_largest_first")
    return _normalize(raw)


def welsh_powell_coloring(network: Network) -> Coloring:
    """Welsh-Powell: first-fit in non-increasing degree order, ties in
    process order; ≤ Δ+1 colors.  networkx's ``largest_first`` greedy
    coloring, dict order included."""
    offsets = network.port_arrays()[0]
    degrees = list(map(sub, offsets[1:], offsets))
    return _first_fit(network, sorted(range(network.n),
                                      key=degrees.__getitem__, reverse=True))


#: the protocols' default local-identifier coloring ("greedy")
greedy_coloring = welsh_powell_coloring


def random_proper_coloring(network: Network, rng) -> Coloring:
    """First-fit along a random order — random but proper (for tests)."""
    order = list(network.processes)
    rng.shuffle(order)
    return sequential_coloring(network, order)
