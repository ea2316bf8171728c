"""The maximal matching predicate (paper §5.3).

Protocol MATCHING marks the edge {p, q} as matched when
``PRmarried(p) ∧ PR.p = q`` — i.e. the two PR pointers designate each
other.  The predicate is true when the marked edge set is a maximal
matching of the network.
"""

from __future__ import annotations

from operator import or_
from typing import Hashable, List, Set, Tuple

from ..core.state import Configuration
from ..graphs.topology import Network

ProcessId = Hashable
Edge = Tuple[ProcessId, ProcessId]


def pr_target(network: Network, config: Configuration, p: ProcessId):
    """The neighbor PR.p points at (PR values are ports; 0 = free)."""
    port = config.get(p, "PR")
    if port == 0:
        return None
    return network.neighbor_at(p, port)


def is_married(network: Network, config: Configuration, p: ProcessId) -> bool:
    """PRmarried without the cur restriction: p and PR.p point at each
    other (the configuration-level notion of a matched process)."""
    q = pr_target(network, config, p)
    if q is None:
        return False
    return pr_target(network, config, q) == p


def matched_edges(network: Network, config: Configuration) -> List[Edge]:
    """Edges {p,q} whose endpoints' PR pointers designate each other."""
    edges = []
    for p, q in network.edges():
        if (
            pr_target(network, config, p) == q
            and pr_target(network, config, q) == p
        ):
            edges.append((p, q))
    return edges


def is_matching(network: Network, edges: List[Edge]) -> bool:
    """No two edges share an endpoint."""
    seen: Set[ProcessId] = set()
    for p, q in edges:
        if p in seen or q in seen:
            return False
        seen.add(p)
        seen.add(q)
    return True


def is_maximal_matching(network: Network, edges: List[Edge]) -> bool:
    """A matching not extendable by any edge of the network."""
    if not is_matching(network, edges):
        return False
    covered: Set[ProcessId] = set()
    for p, q in edges:
        covered.add(p)
        covered.add(q)
    column = [p in covered for p in network.processes]
    return all(map(or_, *network.port_ends(column)))


def matching_predicate(network: Network, config: Configuration) -> bool:
    """The maximal matching predicate over the PR pointers, read off the
    port tables: every edge has a married endpoint (:func:`is_married`).
    Each process has one pointer, so the married pairs always form a
    matching; only maximality needs checking."""
    married = [is_married(network, config, p) for p in network.processes]
    return all(map(or_, *network.port_ends(married)))


def married_processes(network: Network, config: Configuration) -> Set[ProcessId]:
    """Processes incident to a matched edge."""
    covered: Set[ProcessId] = set()
    for p, q in matched_edges(network, config):
        covered.add(p)
        covered.add(q)
    return covered
