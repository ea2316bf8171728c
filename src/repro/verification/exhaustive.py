"""Exhaustive small-model verification.

Simulation samples behaviours; for *small* networks we can do better and
check self-stabilization claims over the **entire configuration space**:

* :func:`verify_closure` — Lemma-1-style closure: from every legitimate
  configuration, every single-process step stays legitimate.
* :func:`verify_convergence_round_robin` — from **every** configuration,
  the round-robin fair schedule reaches a silent configuration (and
  reports the exact worst-case step count).  For deterministic
  protocols this explores one trajectory per start; for randomized
  protocols every random draw is branched nondeterministically and the
  check requires that *some* branch reaches silence from every
  configuration while silent configurations have no escaping branch —
  the reachability core of probabilistic stabilization ("converges with
  probability 1" needs, additionally, that the adversary cannot starve
  the good branches; see the paper's Lemma 2 for that argument).
* :func:`exact_worst_case_rounds` — the exact worst-case convergence
  rounds over all initial configurations, the tightness probe for the
  Lemma 4 / Lemma 9 bounds.

Costs are exponential in network size; guard with ``max_configs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..core.actions import first_enabled
from ..core.context import StepContext
from ..core.exceptions import ConvergenceError
from ..core.protocol import Protocol
from ..core.silence import is_silent
from ..core.state import Configuration
from ..graphs.topology import Network

ProcessId = Hashable
CanonicalState = Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]


def _canonical(config: Configuration, processes) -> CanonicalState:
    return tuple(
        (repr(p), tuple(sorted(config.state_of(p).items()))) for p in processes
    )


def enumerate_configurations(
    protocol: Protocol, network: Network, max_configs: int = 500_000
) -> Iterator[Configuration]:
    """Every configuration of the protocol (constants pinned)."""
    specs_of = protocol.specs_of(network)
    processes = network.processes
    choices = []
    total = 1
    for p in processes:
        consts = protocol.constant_values(network, p)
        states = []
        names = [s.name for s in specs_of[p]]
        domains = [
            [consts[s.name]] if s.kind == "const" else list(s.domain)
            for s in specs_of[p]
        ]
        for combo in itertools.product(*domains):
            states.append(dict(zip(names, combo)))
        choices.append(states)
        total *= len(states)
        if total > max_configs:
            raise ConvergenceError(
                f"configuration space exceeds max_configs={max_configs}"
            )
    for assignment in itertools.product(*choices):
        yield Configuration(dict(zip(processes, assignment)))


class _Stepper:
    """Single-process successor computation with randomness branching."""

    def __init__(self, protocol: Protocol, network: Network):
        self.protocol = protocol
        self.network = network
        self.specs_of = protocol.specs_of(network)
        self.actions = protocol.actions()

    def successors(self, config: Configuration, p: ProcessId) -> List[Configuration]:
        """All γ' reachable when exactly ``p`` executes one step.

        Deterministic actions yield one successor; a random draw
        branches over every value of the drawn domain.  A disabled
        process yields the unchanged configuration.
        """
        ctx = StepContext(p, self.network, config, self.specs_of,
                          rng=_ForcedRng())
        action = first_enabled(self.actions, ctx)
        if action is None:
            return [config.copy()]

        # Try deterministic execution first; any error but a draw
        # request is the effect's own and propagates.
        try:
            action.effect(ctx)
        except _DrawRequested:
            # Randomized effect: branch over the drawn domain by
            # re-executing with each forced value.
            return self._branch_effect(config, p, action)
        successor = config.copy()
        for name, value in ctx.writes.items():
            successor.set(p, name, value)
        return [successor]

    def _branch_effect(self, config, p, action) -> List[Configuration]:
        branches = []
        spec_domains = self._drawable_domains(p)
        for domain in spec_domains:
            for value in domain:
                ctx = StepContext(
                    p, self.network, config, self.specs_of,
                    rng=_ForcedRng(value),
                )
                if first_enabled(self.actions, ctx) is not action:
                    continue
                try:
                    action.effect(ctx)
                except _OutOfRange:
                    continue
                successor = config.copy()
                for name, val in ctx.writes.items():
                    successor.set(p, name, val)
                branches.append(successor)
            if branches:
                return branches
        raise ConvergenceError("could not branch a randomized effect")

    def _drawable_domains(self, p):
        # The protocols here draw only from their own comm domains.
        return [
            spec.domain for spec in self.specs_of[p] if spec.kind == "comm"
        ]


class _DrawRequested(Exception):
    """An effect run under the probe rng asked for a random draw."""


class _OutOfRange(Exception):
    """The forced value lies outside the range the effect draws from."""


class _ForcedRng:
    """rng stub returning a predetermined value for one draw; without a
    value it is a probe, on which any draw raises :class:`_DrawRequested`.

    Only the :class:`IntRange` sampling path is supported — the package's
    randomized draws are all palette draws over integer ranges.  A
    protocol drawing from a :class:`FiniteSet` would need the
    ``randrange`` path; raising keeps that case loud instead of wrong.
    """

    def __init__(self, value=None):
        self._value = value

    def randrange(self, n):
        raise NotImplementedError(
            "branching over FiniteSet draws is not implemented"
        )

    def randint(self, lo, hi):
        if self._value is None:
            raise _DrawRequested
        if not (lo <= self._value <= hi):
            raise _OutOfRange
        return self._value


@dataclass
class ClosureReport:
    """Outcome of exhaustive closure verification."""

    legitimate_configs: int
    violations: List[Tuple[CanonicalState, str]]

    @property
    def holds(self) -> bool:
        return not self.violations


def verify_closure(
    protocol: Protocol, network: Network, max_configs: int = 200_000
) -> ClosureReport:
    """Check the predicate is closed under every single-process step."""
    stepper = _Stepper(protocol, network)
    processes = network.processes
    count = 0
    violations: List[Tuple[CanonicalState, str]] = []
    for config in enumerate_configurations(protocol, network, max_configs):
        if not protocol.is_legitimate(network, config):
            continue
        count += 1
        for p in processes:
            for successor in stepper.successors(config, p):
                if not protocol.is_legitimate(network, successor):
                    violations.append((_canonical(config, processes), repr(p)))
    return ClosureReport(legitimate_configs=count, violations=violations)


@dataclass
class ConvergenceReport:
    """Outcome of exhaustive convergence verification."""

    configs_checked: int
    worst_steps: int
    all_converged: bool
    #: a non-converging start (canonical form), if any
    counterexample: Optional[CanonicalState] = None


def verify_convergence_round_robin(
    protocol: Protocol,
    network: Network,
    max_configs: int = 100_000,
    state_budget: int = 250_000,
) -> ConvergenceReport:
    """From every configuration, silence is reached under round-robin.

    Deterministic protocols have a single trajectory per start, so this
    is an exact "converges from everywhere" proof with the exact
    worst-case step count.  Randomized protocols branch at every random
    draw; a bounded BFS over (configuration, schedule position) states
    then certifies that silence is *reachable* from every start — the
    reachability core of "stabilizes with probability 1" (the fair-coin
    argument of the paper's Lemma 2 upgrades reachability to
    probability 1).  ``worst_steps`` reports the shortest-path depth of
    the worst start.
    """
    from collections import deque

    stepper = _Stepper(protocol, network)
    processes = network.processes
    n = len(processes)
    worst = 0
    checked = 0
    for start in enumerate_configurations(protocol, network, max_configs):
        checked += 1
        if is_silent(protocol, network, start, specs_of=stepper.specs_of):
            continue
        queue = deque([(start, 0, 0)])  # (config, schedule position, depth)
        visited: Set[Tuple[CanonicalState, int]] = {
            (_canonical(start, processes), 0)
        }
        reached: Optional[int] = None
        while queue:
            config, pos, depth = queue.popleft()
            p = processes[pos]
            for successor in stepper.successors(config, p):
                if is_silent(protocol, network, successor,
                             specs_of=stepper.specs_of):
                    reached = depth + 1
                    break
                key = (_canonical(successor, processes), (pos + 1) % n)
                if key in visited:
                    continue
                visited.add(key)
                if len(visited) > state_budget:
                    raise ConvergenceError(
                        "state budget exhausted during convergence check"
                    )
                queue.append((successor, (pos + 1) % n, depth + 1))
            if reached is not None:
                break
        if reached is None:
            return ConvergenceReport(
                configs_checked=checked,
                worst_steps=worst,
                all_converged=False,
                counterexample=_canonical(start, processes),
            )
        worst = max(worst, reached)
    return ConvergenceReport(
        configs_checked=checked, worst_steps=worst, all_converged=True
    )


def exact_worst_case_rounds(
    protocol: Protocol, network: Network, max_configs: int = 100_000
) -> int:
    """Exact worst-case rounds to silence under the round-robin daemon.

    One round-robin sweep over n processes = one round, so worst-case
    rounds = ⌈worst steps / n⌉.
    """
    report = verify_convergence_round_robin(protocol, network, max_configs)
    if not report.all_converged:
        raise ConvergenceError("protocol does not converge from every start")
    n = network.n
    return -(-report.worst_steps // n)
