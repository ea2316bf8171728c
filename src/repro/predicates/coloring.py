"""The vertex coloring predicate (paper §5.1).

True iff for every process p and every neighbor q, ``color.p ≠ color.q``.
For protocol COLORING the color output is the communication variable
``C``; the helpers below also report the conflict structure used by
Lemma 2's potential-function argument.
"""

from __future__ import annotations

from operator import ne
from typing import Hashable, List, Tuple

from ..core.state import Configuration
from ..graphs.topology import Network

ProcessId = Hashable


def coloring_predicate(
    network: Network, config: Configuration, var: str = "C"
) -> bool:
    """The vertex coloring predicate over communication variable ``var``
    (read off the port tables, so no networkx graph is built)."""
    column = [config.get(p, var) for p in network.processes]
    return all(map(ne, *network.port_ends(column)))


def conflicting_edges(
    network: Network, config: Configuration, var: str = "C"
) -> List[Tuple[ProcessId, ProcessId]]:
    """Edges whose endpoints share a color."""
    return [
        (p, q)
        for p, q in network.edges()
        if config.get(p, var) == config.get(q, var)
    ]


def conflict_count(
    network: Network, config: Configuration, var: str = "C"
) -> int:
    """Lemma 2's potential ``Conflit(γ)``: number of processes with at
    least one same-colored neighbor."""
    in_conflict = set()
    for p, q in conflicting_edges(network, config, var):
        in_conflict.add(p)
        in_conflict.add(q)
    return len(in_conflict)


def colors_used(network: Network, config: Configuration, var: str = "C") -> int:
    """Number of distinct colors in the configuration."""
    return len({config.get(p, var) for p in network.processes})
