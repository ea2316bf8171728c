"""The maximal independent set predicate (paper §5.2).

Legitimate configurations of protocol MIS satisfy both:

1. independence — every Dominator has only dominated neighbors;
2. maximality — every dominated process has a Dominator neighbor.
"""

from __future__ import annotations

from operator import and_
from typing import Hashable, List, Set

from ..core.state import Configuration
from ..graphs.topology import Network

ProcessId = Hashable

DOMINATOR = "Dominator"
DOMINATED = "dominated"


def dominators(
    network: Network, config: Configuration, var: str = "S"
) -> Set[ProcessId]:
    """The set {p : S.p = Dominator} (the claimed independent set)."""
    return {p for p in network.processes if config.get(p, var) == DOMINATOR}


def is_independent_set(network: Network, members: Set[ProcessId]) -> bool:
    """No two members are neighbors (read off the port tables)."""
    column = [p in members for p in network.processes]
    return not any(map(and_, *network.port_ends(column)))


def is_maximal_independent_set(network: Network, members: Set[ProcessId]) -> bool:
    """Independent and not extendable by any process."""
    if not is_independent_set(network, members):
        return False
    for p in network.processes:
        if p not in members and not any(q in members for q in network.neighbors(p)):
            return False
    return True


def mis_predicate(network: Network, config: Configuration, var: str = "S") -> bool:
    """The MIS predicate of §5.2 over the S communication variable."""
    return is_maximal_independent_set(network, dominators(network, config, var))


def independence_violations(
    network: Network, config: Configuration, var: str = "S"
) -> List:
    """Edges joining two Dominators (condition 1 failures)."""
    doms = dominators(network, config, var)
    return [(p, q) for p, q in network.edges() if p in doms and q in doms]


def maximality_violations(
    network: Network, config: Configuration, var: str = "S"
) -> List[ProcessId]:
    """Dominated processes with no Dominator neighbor (condition 2 failures)."""
    doms = dominators(network, config, var)
    return [
        p
        for p in network.processes
        if p not in doms and not any(q in doms for q in network.neighbors(p))
    ]
