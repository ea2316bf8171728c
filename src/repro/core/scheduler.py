"""Schedulers (daemons).

The paper assumes a *distributed fair* scheduler: in each step any
non-empty subset of processes may be selected, and every process is
selected infinitely often.  This module provides a family of schedulers
that all satisfy distribution, with fairness achieved either surely
(synchronous, round-robin, bounded enforcement) or with probability 1
(random subsets).  The adversarial variants let tests and benchmarks
probe worst-case behaviour while staying inside the fairness contract.

Two selection pools exist, declared per scheduler via
:attr:`Scheduler.draws_from`:

* ``"all"`` (the default) — the daemon may select *any* process; a
  selected-but-disabled process executes nothing (the paper's footnote
  semantics).  This is the historical behaviour of every daemon here.
* ``"enabled"`` — the daemon draws directly from the enabled set
  maintained by the simulator's
  :class:`~repro.core.engine.EnabledSetEngine`, never wasting a
  selection on a disabled process — the daemon of the classical
  self-stabilization literature.  The simulator falls back to the full
  process list when nothing is enabled (the configuration is then
  terminal, so those activations are harmless no-ops that let rounds
  close and silence be detected).

The synchronous/central/random-subset/round-robin/locally-central
daemons accept ``enabled_only=True`` to opt into the second pool;
``enabled_only`` synchronous is exactly the *maximal* (greedy) daemon.
The bounded-fair and fixed-sequence daemons keep per-process scripts or
starvation books over the full process set and stay pool-"all" only.
"""

from __future__ import annotations

import inspect
import random
from abc import ABC, abstractmethod
from typing import Hashable, List, Optional, Sequence, Set

ProcessId = Hashable


class Scheduler(ABC):
    """Chooses which processes act in each step.

    Subclass contract: :meth:`select` receives the selection pool (all
    processes, or only the enabled ones when :attr:`draws_from` is
    ``"enabled"``) in canonical network order plus the run's rng, and
    must return a non-empty subset — the paper's step activates a
    *set*, so no process may appear twice.  The simulator hands the
    selection to the engine as is.  Stateful schedulers additionally
    override :meth:`reset` so a reused instance cannot leak pacing
    state between runs.
    """

    name: str = "scheduler"

    #: Which pool the simulator offers to :meth:`select`: ``"all"``
    #: processes (footnote semantics) or only the ``"enabled"`` ones
    #: (engine-maintained; see the module docstring).
    draws_from: str = "all"

    @abstractmethod
    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        """A non-empty subset of ``processes`` to activate this step."""

    def reset(self) -> None:
        """Forget any internal pacing state (called when a run restarts)."""

    def rebind_network(self, network) -> None:
        """Adopt a mutated network (topology churn).

        Most daemons are network-oblivious (they only see the selection
        pool), so the default is a no-op; network-aware daemons (the
        locally central one) override this.  Schedulers with explicit
        per-process scripts (fixed-sequence) are incompatible with
        churn that removes their scripted processes.
        """


class SynchronousScheduler(Scheduler):
    """Every process in the pool acts in every step.

    Over the full pool this is the synchronous daemon (one step per
    round); with ``enabled_only=True`` it activates exactly the enabled
    processes — the *maximal* (greedy) daemon.
    """

    name = "synchronous"

    def __init__(self, enabled_only: bool = False):
        if enabled_only:
            self.draws_from = "enabled"

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        return list(processes)


class CentralScheduler(Scheduler):
    """Exactly one uniformly random pool member acts per step.

    The classical central daemon; fair with probability 1.  With
    ``enabled_only=True`` the draw is uniform over the *enabled*
    processes, matching the central daemon of the literature (and never
    spending a step on a disabled no-op).
    """

    name = "central"

    def __init__(self, enabled_only: bool = False):
        if enabled_only:
            self.draws_from = "enabled"

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        return [processes[rng.randrange(len(processes))]]


class RandomSubsetScheduler(Scheduler):
    """Each pool member is independently included with probability ``p_act``.

    Empty draws are resampled so every step activates someone.  Fair with
    probability 1 and a good model of uncoordinated asynchrony.
    """

    name = "random-subset"

    def __init__(self, p_act: float = 0.5, enabled_only: bool = False):
        if not 0.0 < p_act <= 1.0:
            raise ValueError("p_act must be in (0, 1]")
        self.p_act = p_act
        if enabled_only:
            self.draws_from = "enabled"

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        while True:
            chosen = [p for p in processes if rng.random() < self.p_act]
            if chosen:
                return chosen


class RoundRobinScheduler(Scheduler):
    """Pool members act one at a time in cyclic order.

    Deterministic and fair; over the full pool one round costs exactly
    ``n`` steps.  With ``enabled_only=True`` the cursor walks the
    (shrinking/shifting) enabled pool instead.
    """

    name = "round-robin"

    def __init__(self, enabled_only: bool = False) -> None:
        self._next = 0
        if enabled_only:
            self.draws_from = "enabled"

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        p = processes[self._next % len(processes)]
        self._next += 1
        return [p]

    def reset(self) -> None:
        self._next = 0


class BoundedFairScheduler(Scheduler):
    """Adversarially skewed but *boundedly fair* scheduler.

    Activates a random subset biased toward a (re-drawn) favoured pool,
    but guarantees no process starves longer than ``bound`` steps — the
    strongest adversary compatible with the paper's fairness assumption
    that is still finitely checkable.
    """

    name = "bounded-fair"

    def __init__(self, bound: int = 24, burst: int = 3):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.bound = bound
        self.burst = burst
        self._starved_for: dict = {}

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        for p in processes:
            self._starved_for.setdefault(p, 0)
        overdue = [p for p in processes if self._starved_for[p] >= self.bound]
        if overdue:
            chosen = overdue
        else:
            k = min(len(processes), 1 + rng.randrange(self.burst))
            chosen = list(rng.sample(list(processes), k))
        chosen_set = set(chosen)
        for p in processes:
            self._starved_for[p] = 0 if p in chosen_set else self._starved_for[p] + 1
        return chosen

    def reset(self) -> None:
        self._starved_for.clear()


class FixedSequenceScheduler(Scheduler):
    """Replays an explicit list of activation sets (for targeted tests).

    After the scripted prefix is exhausted it falls back to synchronous
    steps so fairness still holds on the infinite suffix.  A scripted
    step is a set: naming a process twice raises :class:`ValueError`.
    """

    name = "fixed-sequence"

    def __init__(self, sequence: Sequence[Sequence[ProcessId]]):
        self._sequence = [list(s) for s in sequence]
        for i, step in enumerate(self._sequence):
            seen = set()
            for p in step:
                if p in seen:
                    raise ValueError(
                        f"fixed-sequence step {i} activates {p!r} twice; "
                        "a step's selection is a set"
                    )
                seen.add(p)
        self._i = 0

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        if self._i < len(self._sequence):
            chosen = self._sequence[self._i]
            self._i += 1
            if chosen:
                return list(chosen)
        return list(processes)

    def reset(self) -> None:
        self._i = 0



class LocallyCentralScheduler(Scheduler):
    """No two *neighbors* act in the same step (the locally central
    daemon).  Draws a random subset and greedily drops conflicts, so
    each step activates an independent set; fair with probability 1.

    Requires the network at construction because independence is a
    topological notion the base scheduler interface cannot see.
    """

    name = "locally-central"

    def __init__(self, network, p_act: float = 0.5, enabled_only: bool = False):
        if not 0.0 < p_act <= 1.0:
            raise ValueError("p_act must be in (0, 1]")
        self.network = network
        self.p_act = p_act
        if enabled_only:
            self.draws_from = "enabled"

    def select(self, processes: Sequence[ProcessId], rng: random.Random) -> List[ProcessId]:
        while True:
            candidates = [p for p in processes if rng.random() < self.p_act]
            rng.shuffle(candidates)
            chosen: List[ProcessId] = []
            taken: Set[ProcessId] = set()
            for p in candidates:
                if p in taken:
                    continue
                chosen.append(p)
                taken.add(p)
                taken.update(self.network.neighbors(p))
            if chosen:
                return chosen

    def rebind_network(self, network) -> None:
        """Independence is topological: track the mutated network."""
        self.network = network

DEFAULT_SCHEDULERS = (
    SynchronousScheduler,
    CentralScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    BoundedFairScheduler,
    FixedSequenceScheduler,
    LocallyCentralScheduler,
)


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Build a scheduler of this module by its name.

    Covers every scheduler in this module.  ``fixed-sequence`` needs a
    ``sequence=`` kwarg and ``locally-central`` a ``network=`` kwarg.
    Specs, the CLI and campaigns go through the :mod:`repro.api`
    scheduler registry instead, whose builders take the network first.
    """
    table = {cls.name: cls for cls in DEFAULT_SCHEDULERS}
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(table)}"
        ) from None
    try:
        inspect.signature(cls).bind(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for scheduler {name!r}: {exc}") from None
    return cls(**kwargs)
