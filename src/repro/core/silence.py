"""Sound detection of silent configurations.

Definition 3 calls a protocol *silent* when every computation converges
to a configuration after which communication variables are fixed.
Detecting that a given configuration is such a fixed point cannot rely
on "nothing changed for a while": internal round-robin pointers keep
moving forever, and an action that writes a communication variable may
be enabled only under a pointer value that shows up much later.

The checker here is exact for the protocols in this package (and any
protocol whose internal variables have finite declared domains and are
updated deterministically):

Given a configuration γ, assume the communication part of γ never
changes.  Then each process's future is an isolated walk over its own
internal-variable space — guards read only its own state and the frozen
neighbor communication states, and the highest-priority enabled action
is unique.  We simulate that walk from the process's *actual* internal
state.  If no reachable internal state fires an action that (a) writes a
communication variable to a different value, or (b) writes a
communication variable using randomness, the assumption is
self-consistent and γ is silent.  Otherwise the offending write is a
concrete witness that γ is not a communication fixed point.

Randomness in an *internal* write would make the walk branch; the
checker conservatively reports "not silent" in that case (none of the
paper's protocols do this — COLORING's randomness targets the
communication variable ``C`` and is caught by rule (b)).

Cost and side effects:

* **Read-only on γ.**  A walk never copies the configuration and never
  writes a row.  The walked internal values live in an overlay: they
  are pre-seeded into the context's buffered writes, which
  :meth:`StepContext.get <repro.core.context.StepContext.get>` reads
  before the row.  Row observers (a columnar engine's sync hook,
  ``repro serve`` readers) never see a transient value.
* **Pooled contexts.**  Each walk takes its process's context from a
  :class:`~repro.core.context.StepContextPool` and resets it per
  iteration, so no context is built per pointer value.  A simulator
  passes its own execution pool and spec map; other callers get one
  fresh pool per check.  Pooled contexts read raw rows, so a caller
  passing a pool over column-resident state decodes pending column
  writes first.
* **One probe generator per check.**  Guards never draw (the engines
  evaluate them without an rng), and a walk whose effect draws always
  returns a witness, which ends the check.  So a walk that draws
  always starts from a fresh ``random.Random(0)``, and a witness never
  depends on which processes were walked before it.
* **Linear in n at bounded degree.**  A check walks each process at
  most once over its finite internal space — δ.p pointer values for the
  paper's protocols — so it costs O(n·Δ) guard evaluations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Optional

from .actions import first_enabled
from .context import StepContextPool
from .protocol import Protocol
from .state import Configuration

ProcessId = Hashable


@dataclass(frozen=True)
class QuiescenceWitness:
    """Why a configuration is not silent: a reachable comm write."""

    process: ProcessId
    rule: str
    variable: str
    old_value: object
    new_value: object
    randomized: bool

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        how = "randomly" if self.randomized else f"to {self.new_value!r}"
        return (
            f"process {self.process!r} can rewrite {self.variable} "
            f"(currently {self.old_value!r}) {how} via rule {self.rule!r}"
        )


def process_quiescence_witness(
    protocol: Protocol,
    network,
    config: Configuration,
    p: ProcessId,
    specs_of=None,
    *,
    pool: Optional[StepContextPool] = None,
    actions=None,
    probe_rng: Optional[random.Random] = None,
) -> Optional[QuiescenceWitness]:
    """Witness that ``p`` can still change its communication state, or None.

    ``pool`` (a :class:`StepContextPool` over ``config``), ``actions``
    and ``probe_rng`` let a whole-network check share one of each across
    its walks; each defaults to a fresh one.
    """
    if specs_of is None:
        specs_of = protocol.specs_of(network)
    if pool is None:
        pool = StepContextPool(network, config, specs_of)
    if actions is None:
        actions = protocol.actions()
    if probe_rng is None:
        probe_rng = random.Random(0)
    internal = [s.name for s in specs_of[p] if s.kind == "internal"]

    ctx = pool.acquire(p, probe_rng)
    state = tuple([ctx.get(name) for name in internal])
    seen = set()
    while state not in seen:
        seen.add(state)
        ctx.reset(probe_rng)
        writes = ctx.writes
        # The overlay: p's walked internal values, read before its row.
        writes.update(zip(internal, state))
        action = first_enabled(actions, ctx)
        if action is None:
            return None  # disabled forever at this internal state
        action.effect(ctx)
        comm_writes = ctx.comm_writes()
        for name, new_value in comm_writes.items():
            old_value = config.get(p, name)
            if ctx.used_randomness:
                return QuiescenceWitness(p, action.name, name, old_value, new_value, True)
            if new_value != old_value:
                return QuiescenceWitness(p, action.name, name, old_value, new_value, False)
        if ctx.used_randomness and not comm_writes:
            # Randomized internal update: the walk would branch; refuse
            # to certify silence rather than guess.
            return QuiescenceWitness(
                p, action.name, "<internal>", None, None, True
            )
        state = tuple([writes[name] for name in internal])
    return None


def silence_witness(
    protocol: Protocol,
    network,
    config: Configuration,
    *,
    specs_of=None,
    pool: Optional[StepContextPool] = None,
) -> Optional[QuiescenceWitness]:
    """First witness that ``config`` is not silent, or None if it is.

    A run that holds its spec map and a context pool over ``config``
    passes them (after decoding any pending column writes into the
    rows); otherwise one of each is built for this check.
    """
    if specs_of is None:
        specs_of = protocol.specs_of(network)
    if pool is None:
        pool = StepContextPool(network, config, specs_of)
    actions = protocol.actions()
    probe_rng = random.Random(0)
    for p in network.processes:
        witness = process_quiescence_witness(
            protocol, network, config, p, specs_of,
            pool=pool, actions=actions, probe_rng=probe_rng,
        )
        if witness is not None:
            return witness
    return None


def is_silent(
    protocol: Protocol,
    network,
    config: Configuration,
    *,
    specs_of=None,
    pool: Optional[StepContextPool] = None,
) -> bool:
    """True iff the communication variables of ``config`` are fixed forever."""
    return silence_witness(
        protocol, network, config, specs_of=specs_of, pool=pool
    ) is None
