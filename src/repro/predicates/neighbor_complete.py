"""Neighbor-completeness (Definition 10) checking.

A silent self-stabilizing protocol is *neighbor-complete* for predicate
P when every process p has a communication state αp supported by some
silent configuration such that, for each neighbor q, there is a
silent-supported communication state αq with (αp, αq) jointly
inconsistent — every configuration exhibiting the pair violates P.
Theorem 1 and 2's impossibility results apply exactly to such protocols,
and the paper notes COLORING, MIS and MATCHING all qualify.

Two checkers are provided:

* :func:`enumerate_silent_configurations` — exhaustive enumeration of
  all configurations of a *small* network, filtered through the sound
  silence checker.  Exact, exponential; meant for gadget-sized graphs.
* :func:`find_neighbor_completeness_witness` — samples silent
  configurations by running the protocol to silence from random
  corrupted starts, then searches the collected communication states
  for a Definition-10 witness.  ``pair_violates`` supplies the
  problem-specific "every configuration with this pair violates P"
  fact (a local argument for all three problems in the paper).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..core.protocol import Protocol
from ..core.silence import is_silent
from ..core.simulator import Simulator
from ..core.state import Configuration
from ..graphs.topology import Network
from ..verification.exhaustive import enumerate_configurations

ProcessId = Hashable
CommState = Tuple[Tuple[str, object], ...]

# (network, p, αp, q, αq) -> True when the pair alone falsifies P
PairViolation = Callable[[Network, ProcessId, CommState, ProcessId, CommState], bool]


def enumerate_silent_configurations(
    protocol: Protocol,
    network: Network,
    limit: Optional[int] = None,
) -> Iterator[Configuration]:
    """All silent configurations of a small network, by brute force.

    Filters :func:`~repro.verification.exhaustive.enumerate_configurations`
    (the cross product of every variable domain, constants pinned to
    their declared values) through the silence checker, in that order,
    and stops after ``limit`` configurations.  A space of more than
    500,000 configurations raises
    :class:`~repro.core.exceptions.ConvergenceError` on the first
    ``next()``, before any configuration is checked.
    """
    specs_of = protocol.specs_of(network)
    silent = (
        config for config in enumerate_configurations(protocol, network)
        if is_silent(protocol, network, config, specs_of=specs_of)
    )
    return itertools.islice(silent, limit)


@dataclass
class NeighborCompletenessWitness:
    """A Definition-10 witness: per process, the α states found."""

    alpha: Dict[ProcessId, CommState]
    #: per process, per neighbor, the conflicting neighbor state
    conflicts: Dict[ProcessId, Dict[ProcessId, CommState]]

    @property
    def complete(self) -> bool:
        return all(self.conflicts[p] for p in self.alpha) and bool(self.alpha)


def collect_silent_comm_states(
    protocol: Protocol,
    network: Network,
    samples: int = 20,
    seed: int = 0,
    max_rounds: int = 5_000,
) -> Dict[ProcessId, Set[CommState]]:
    """Communication states observed in sampled silent configurations."""
    specs_of = protocol.specs_of(network)
    observed: Dict[ProcessId, Set[CommState]] = {p: set() for p in network.processes}
    for i in range(samples):
        sim = Simulator(protocol, network, seed=seed + i)
        sim.run_until_silent(max_rounds=max_rounds)
        for p in network.processes:
            observed[p].add(sim.config.comm_state_of(p, specs_of[p]))
    return observed


def find_neighbor_completeness_witness(
    protocol: Protocol,
    network: Network,
    pair_violates: PairViolation,
    samples: int = 20,
    seed: int = 0,
    max_rounds: int = 5_000,
) -> Optional[NeighborCompletenessWitness]:
    """Search sampled silent configurations for a Definition-10 witness.

    Returns a witness covering *every* process (each p has an αp and a
    conflicting silent αq for each neighbor), or None if the samples did
    not expose one.  A returned witness is sound: every α state really
    occurs in a silent configuration, and ``pair_violates`` certifies
    the joint violation.
    """
    observed = collect_silent_comm_states(
        protocol, network, samples=samples, seed=seed, max_rounds=max_rounds
    )
    alpha: Dict[ProcessId, CommState] = {}
    conflicts: Dict[ProcessId, Dict[ProcessId, CommState]] = {}
    for p in network.processes:
        found = None
        for alpha_p in observed[p]:
            per_neighbor: Dict[ProcessId, CommState] = {}
            for q in network.neighbors(p):
                match = next(
                    (
                        alpha_q
                        for alpha_q in observed[q]
                        if pair_violates(network, p, alpha_p, q, alpha_q)
                    ),
                    None,
                )
                if match is None:
                    break
                per_neighbor[q] = match
            else:
                found = (alpha_p, per_neighbor)
                break
        if found is None:
            return None
        alpha[p], conflicts[p] = found
    return NeighborCompletenessWitness(alpha, conflicts)


# ----------------------------------------------------------------------
# Problem-specific pair violations (local arguments from the paper)
# ----------------------------------------------------------------------
def coloring_pair_violates(
    network: Network, p: ProcessId, alpha_p: CommState, q: ProcessId, alpha_q: CommState
) -> bool:
    """Two neighbors with equal colors violate vertex coloring outright."""
    cp = dict(alpha_p)["C"]
    cq = dict(alpha_q)["C"]
    return cp == cq


def mis_pair_violates(
    network: Network, p: ProcessId, alpha_p: CommState, q: ProcessId, alpha_q: CommState
) -> bool:
    """Two neighboring Dominators violate independence outright."""
    return dict(alpha_p)["S"] == "Dominator" and dict(alpha_q)["S"] == "Dominator"


def matching_pair_violates(
    network: Network, p: ProcessId, alpha_p: CommState, q: ProcessId, alpha_q: CommState
) -> bool:
    """Two neighboring *free* processes (PR = 0) violate maximality: the
    edge {p, q} could extend any matching, whatever the rest does."""
    sp = dict(alpha_p)
    sq = dict(alpha_q)
    return sp["PR"] == 0 and sq["PR"] == 0
