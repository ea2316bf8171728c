"""The scenario event DSL: triggers × effects.

A scenario is a script of timed events over a live run.  Each event
pairs a **trigger** (when to fire) with an **effect** (what to do):

* triggers — :func:`at_step`, :func:`at_round`, :func:`every_rounds`,
  :func:`after_silence`, :func:`with_probability`;
* effects — state corruption (:class:`CorruptFraction`,
  :class:`CorruptProcesses`), adversarial resets
  (:class:`AdversarialReset`), node/edge churn (:class:`Churn`),
  mid-run daemon swaps (:class:`SwapScheduler`), and the
  runtime-only :class:`Callback` escape hatch.

Both sides are frozen, JSON-round-trippable descriptors: triggers keep
their mutable firing state in runtime-owned dicts
(:meth:`Trigger.initial_state`), so one :class:`~repro.scenarios.Scenario`
object can be bound to many simulators; effects draw every random
choice from the run's dedicated ``scenario`` RNG stream, so two runs of
the same seed apply byte-identical events regardless of engine, state
backend, or executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Tuple,
)

from ..faults.injection import (
    FaultReport,
    adversarial_reset,
    corrupt_fraction,
    corrupt_processes,
)
from ..graphs.topology import missing_edges, non_bridge_edges, removable_nodes

ProcessId = Hashable

#: churn operations understood by :class:`Churn`
CHURN_OPERATIONS = ("add-edge", "remove-edge", "add-node", "remove-node")


def check_int(owner: str, name: str, value: Any,
              optional: bool = False) -> None:
    """Raise :class:`ValueError` naming ``owner.name`` unless ``value`` is
    an int (not a bool), or None when ``optional``."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{owner}.{name} must be an int, got {value!r}")


# ----------------------------------------------------------------------
# Trigger side
# ----------------------------------------------------------------------
class TriggerContext:
    """What a trigger may inspect at one step boundary.

    Carries the simulator, the scenario RNG, whether the previous step
    closed a round (step boundary 0 counts as a round boundary), and
    the silence check.
    """

    __slots__ = ("sim", "rng", "closed_round")

    def __init__(self, sim, rng, closed_round: bool):
        self.sim = sim
        self.rng = rng
        self.closed_round = closed_round

    def silent(self) -> bool:
        """Whether the configuration is silent (``Simulator.is_silent``
        caches one verdict per boundary across triggers, the run loop
        and the recovery tracker)."""
        return self.sim.is_silent()


class Trigger:
    """When an event fires.  Frozen descriptor; state lives with the
    runtime (:meth:`initial_state`), so scenarios are reusable."""

    #: serialization tag
    kind: str = "trigger"
    #: True for fire-once triggers (the drain loop waits on these)
    one_shot: bool = False

    def initial_state(self) -> Dict[str, Any]:
        """A fresh mutable firing-state dict for one bound runtime."""
        return {}

    def due(self, state: Dict[str, Any], ctx: TriggerContext) -> bool:
        """Whether to fire at this boundary (may advance ``state``)."""
        raise NotImplementedError

    def exhausted(self, state: Dict[str, Any]) -> bool:
        """Whether this trigger can never fire again."""
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Kind-tagged JSON-clean form (inverse of :func:`trigger_from_dict`)."""
        out = {"kind": self.kind}
        out.update(self._params())
        return out

    def _params(self) -> Dict[str, Any]:
        return {}


_TRIGGERS: Dict[str, type] = {}


def _trigger(cls):
    _TRIGGERS[cls.kind] = cls
    return cls


@_trigger
@dataclass(frozen=True)
class AtStep(Trigger):
    """Fire once, at the boundary before step ``step`` executes."""

    step: int
    kind = "at-step"
    one_shot = True

    def __post_init__(self):
        check_int("AtStep", "step", self.step)

    def initial_state(self):
        """State: has this one-shot fired yet."""
        return {"fired": False}

    def due(self, state, ctx):
        """Fire at the first boundary with ``step_index >= step``."""
        if state["fired"] or ctx.sim.step_index < self.step:
            return False
        state["fired"] = True
        return True

    def exhausted(self, state):
        """One-shot: exhausted once fired."""
        return state["fired"]

    def _params(self):
        return {"step": self.step}


@_trigger
@dataclass(frozen=True)
class AtRound(Trigger):
    """Fire once, at the first boundary with ``round`` rounds complete."""

    round: int
    kind = "at-round"
    one_shot = True

    def __post_init__(self):
        check_int("AtRound", "round", self.round)

    def initial_state(self):
        """State: has this one-shot fired yet."""
        return {"fired": False}

    def due(self, state, ctx):
        """Fire at the first boundary past the target round count."""
        if state["fired"]:
            return False
        if ctx.sim.round_tracker.completed_rounds < self.round:
            return False
        state["fired"] = True
        return True

    def exhausted(self, state):
        """One-shot: exhausted once fired."""
        return state["fired"]

    def _params(self):
        return {"round": self.round}


@_trigger
@dataclass(frozen=True)
class EveryRounds(Trigger):
    """Fire every ``period`` completed rounds (first at ``start``,
    defaulting to ``period``)."""

    period: int
    start: Optional[int] = None
    kind = "every-rounds"

    def __post_init__(self):
        check_int("EveryRounds", "period", self.period)
        check_int("EveryRounds", "start", self.start, optional=True)
        if self.period < 1:
            raise ValueError("period must be >= 1")

    def initial_state(self):
        """State: the next round count to fire at."""
        return {"next": self.start if self.start is not None else self.period}

    def due(self, state, ctx):
        """Fire once per crossed period boundary (skipped periods fold
        into one firing)."""
        completed = ctx.sim.round_tracker.completed_rounds
        if completed < state["next"]:
            return False
        nxt = state["next"] + self.period
        while nxt <= completed:
            nxt += self.period
        state["next"] = nxt
        return True

    def _params(self):
        return {"period": self.period, "start": self.start}


@_trigger
@dataclass(frozen=True)
class AfterSilence(Trigger):
    """Fire once, at the first round boundary where γ is silent.

    The check runs only at round boundaries (like
    ``run_until_silent``); the boundary before the first step counts.
    """

    kind = "after-silence"
    one_shot = True

    def initial_state(self):
        """State: has this one-shot fired yet."""
        return {"fired": False}

    def due(self, state, ctx):
        """Fire at the first silent round boundary."""
        if state["fired"]:
            return False
        if not (ctx.closed_round or ctx.sim.step_index == 0):
            return False
        if not ctx.silent():
            return False
        state["fired"] = True
        return True

    def exhausted(self, state):
        """One-shot: exhausted once fired."""
        return state["fired"]


@_trigger
@dataclass(frozen=True)
class WithProbability(Trigger):
    """Fire with probability ``p`` at every boundary of the given kind
    (``per="round"`` draws at round boundaries, ``per="step"`` at every
    step).  Draws come from the scenario stream, so the coin flips are
    reproducible and never touch the scheduler's sequence."""

    p: float
    per: str = "round"
    kind = "with-probability"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be within [0, 1]")
        if self.per not in ("round", "step"):
            raise ValueError('per must be "round" or "step"')

    def due(self, state, ctx):
        """Draw the coin at each matching boundary."""
        if self.per == "round" and not (
            ctx.closed_round or ctx.sim.step_index == 0
        ):
            return False
        return ctx.rng.random() < self.p

    def _params(self):
        return {"p": self.p, "per": self.per}


def trigger_from_dict(data: Mapping[str, Any]) -> Trigger:
    """Rebuild a trigger from its kind-tagged dict."""
    params = {k: v for k, v in data.items() if k != "kind"}
    try:
        cls = _TRIGGERS[data["kind"]]
    except KeyError:
        raise ValueError(
            f"unknown trigger kind {data.get('kind')!r}; "
            f"known: {sorted(_TRIGGERS)}"
        ) from None
    return cls(**params)


# -- DSL shorthands ----------------------------------------------------
def at_step(step: int) -> AtStep:
    """Fire once at the boundary before step ``step``."""
    return AtStep(step)


def at_round(round: int) -> AtRound:
    """Fire once when ``round`` rounds have completed."""
    return AtRound(round)


def every_rounds(period: int, start: Optional[int] = None) -> EveryRounds:
    """Fire every ``period`` rounds (first at ``start``)."""
    return EveryRounds(period, start)


def after_silence() -> AfterSilence:
    """Fire once, at the first silent round boundary."""
    return AfterSilence()


def with_probability(p: float, per: str = "round") -> WithProbability:
    """Fire with probability ``p`` per round (or per step)."""
    return WithProbability(p, per)


# ----------------------------------------------------------------------
# Effect side
# ----------------------------------------------------------------------
class Effect:
    """What an event does to the run when its trigger fires.

    ``apply`` returns a short human-readable description of what
    actually happened, or ``None`` when the effect was a no-op (no
    legal churn candidate, empty victim set) — skipped applications are
    not logged.  All randomness comes from the passed scenario stream.
    """

    kind: str = "effect"

    def apply(self, sim, rng) -> Optional[str]:
        """Apply the effect; ``None`` means nothing happened."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Kind-tagged JSON-clean form (inverse of :func:`effect_from_dict`)."""
        out = {"kind": self.kind}
        out.update(self._params())
        return out

    def _params(self) -> Dict[str, Any]:
        return {}


_EFFECTS: Dict[str, type] = {}


def _effect(cls):
    _EFFECTS[cls.kind] = cls
    return cls


@_effect
@dataclass(frozen=True)
class CorruptFraction(Effect):
    """Corrupt a uniform random ``fraction`` of the network (kinds as
    in :func:`repro.faults.corrupt_fraction`)."""

    fraction: float
    kinds: Tuple[str, ...] = ("comm", "internal")
    kind = "corrupt-fraction"

    def __post_init__(self):
        fraction = self.fraction
        if (isinstance(fraction, bool) or not isinstance(fraction, Real)
                or not 0 <= fraction <= 1):  # NaN fails both comparisons
            raise ValueError("CorruptFraction.fraction must be a real "
                             f"number in [0, 1], got {fraction!r}")

    def apply(self, sim, rng):
        """Inject via :func:`repro.faults.corrupt_fraction`."""
        report = corrupt_fraction(sim, self.fraction, rng, tuple(self.kinds))
        if not report:
            return None
        return (f"corrupted {len(report)} processes "
                f"(kinds: {', '.join(report.kinds)})")

    def _params(self):
        return {"fraction": self.fraction, "kinds": list(self.kinds)}


@_effect
@dataclass(frozen=True)
class CorruptProcesses(Effect):
    """Corrupt an explicit victim list (pids must be JSON-encodable;
    list-valued pids are matched back to tuple pids after a round trip)."""

    victims: Tuple[Any, ...]
    kinds: Tuple[str, ...] = ("comm", "internal")
    kind = "corrupt-processes"

    def apply(self, sim, rng):
        """Inject via :func:`repro.faults.corrupt_processes`."""
        known = set(sim.network.processes)
        victims = []
        for v in self.victims:
            if v not in known and isinstance(v, list) and tuple(v) in known:
                v = tuple(v)  # JSON round-trip turned a tuple pid into a list
            if v in known:
                victims.append(v)
        report = corrupt_processes(sim, victims, rng, tuple(self.kinds))
        if not report:
            return None
        return f"corrupted {len(report)} targeted processes"

    def _params(self):
        return {"victims": list(self.victims), "kinds": list(self.kinds)}


@_effect
@dataclass(frozen=True)
class AdversarialReset(Effect):
    """Force one fixed state onto every process (or an explicit victim
    list) — the worst symmetric transient fault."""

    state: Mapping[str, Any]
    victims: Optional[Tuple[Any, ...]] = None
    kind = "adversarial-reset"

    def apply(self, sim, rng):
        """Inject via :func:`repro.faults.adversarial_reset`."""
        victims = list(self.victims) if self.victims is not None else None
        report = adversarial_reset(sim, dict(self.state), victims)
        if not report:
            return None
        return f"reset {len(report)} processes to {dict(self.state)!r}"

    def _params(self):
        return {
            "state": dict(self.state),
            "victims": list(self.victims) if self.victims is not None else None,
        }


@_effect
@dataclass(frozen=True)
class Churn(Effect):
    """One random, connectivity-safe topology mutation.

    ``operation`` picks the mutation; targets are sampled from the
    scenario stream among *safe* candidates (non-bridge edges,
    non-cut-vertex nodes, non-adjacent pairs).  When no safe candidate
    exists the event is a skipped no-op.  The mutation goes through
    :meth:`Simulator.rebind_network
    <repro.core.simulator.Simulator.rebind_network>`, which rebuilds
    the protocol, migrates states, and rebinds engines/pools/rounds;
    the affected processes are logged as a ``churn`` fault report.
    """

    operation: str
    #: degree of a joining node (add-node)
    degree: int = 2
    #: never shrink below this many processes (remove-node)
    min_n: int = 3
    kind = "churn"

    def __post_init__(self):
        if self.operation not in CHURN_OPERATIONS:
            raise ValueError(
                f"unknown churn operation {self.operation!r}; "
                f"known: {CHURN_OPERATIONS}"
            )
        check_int("Churn", "degree", self.degree)
        check_int("Churn", "min_n", self.min_n)

    def apply(self, sim, rng):
        """Sample a safe mutation, rebind the simulator, log the fault."""
        network = sim.network
        op = self.operation
        if op == "remove-edge":
            candidates = non_bridge_edges(network)
            if not candidates:
                return None
            p, q = candidates[rng.randrange(len(candidates))]
            new_net = network.with_edge_removed(p, q)
            affected, desc = (p, q), f"removed edge {p!r}—{q!r}"
        elif op == "add-edge":
            procs = list(network.processes)
            pair = None
            if len(procs) >= 2:
                for _ in range(64):  # sampling beats O(n²) enumeration
                    a, b = rng.sample(procs, 2)
                    if not network.are_neighbors(a, b):
                        pair = (a, b)
                        break
                if pair is None:
                    # Near-complete graph: rejection sampling keeps
                    # hitting existing edges — fall back to a bounded
                    # enumeration of the actual candidate pool.
                    candidates = missing_edges(network, limit=256)
                    if candidates:
                        pair = candidates[rng.randrange(len(candidates))]
            if pair is None:
                return None
            p, q = pair
            new_net = network.with_edge_added(p, q)
            affected, desc = (p, q), f"added edge {p!r}—{q!r}"
        elif op == "add-node":
            procs = list(network.processes)
            pid = f"join{sim.step_index}"
            while pid in network:
                pid += "x"
            neighbors = rng.sample(procs, min(max(1, self.degree), len(procs)))
            new_net = network.with_node_added(pid, neighbors)
            affected = (pid, *neighbors)
            desc = f"node {pid!r} joined with degree {len(neighbors)}"
        else:  # remove-node
            candidates = removable_nodes(network, min_n=self.min_n)
            if not candidates:
                return None
            p = candidates[rng.randrange(len(candidates))]
            affected = (p, *network.neighbors(p))
            new_net = network.with_node_removed(p)
            desc = f"node {p!r} departed"
        sim.rebind_network(new_net, rng)
        sim.note_fault(FaultReport(
            kind="churn",
            victims=tuple(affected),
            kinds=("topology",),
            vars_written={},
            step=sim.step_index,
        ))
        return desc

    def _params(self):
        return {
            "operation": self.operation,
            "degree": self.degree,
            "min_n": self.min_n,
        }


@_effect
@dataclass(frozen=True)
class SwapScheduler(Effect):
    """Replace the daemon mid-run with a registry-built one."""

    scheduler: str
    params: Mapping[str, Any] = field(default_factory=dict)
    kind = "swap-scheduler"

    def apply(self, sim, rng):
        """Build the named daemon for the current network and install it."""
        from ..api.registry import scheduler_registry  # late: avoids cycles

        sim.swap_scheduler(
            scheduler_registry.build(self.scheduler, sim.network,
                                     **dict(self.params))
        )
        return f"swapped scheduler to {self.scheduler!r}"

    def _params(self):
        return {"scheduler": self.scheduler, "params": dict(self.params)}


@dataclass(frozen=True)
class Callback(Effect):
    """Runtime-only escape hatch: apply an arbitrary ``fn(sim, rng)``.

    Powers the back-compat :func:`repro.faults.measure_recovery`
    wrapper (its fault argument is a callable).  Not serializable —
    scenarios containing one cannot go through a spec.
    """

    fn: Callable
    kind = "callback"

    def apply(self, sim, rng):
        """Invoke the wrapped callable."""
        self.fn(sim, rng)
        return "callback applied"

    def to_dict(self):
        """Callbacks are runtime-only; serialization raises."""
        raise TypeError("Callback effects are not serializable")


def effect_from_dict(data: Mapping[str, Any]) -> Effect:
    """Rebuild an effect from its kind-tagged dict."""
    params = {k: v for k, v in data.items() if k != "kind"}
    try:
        cls = _EFFECTS[data["kind"]]
    except KeyError:
        raise ValueError(
            f"unknown effect kind {data.get('kind')!r}; "
            f"known: {sorted(_EFFECTS)}"
        ) from None
    # JSON round trips lists; normalize sequence params back to tuples.
    for name in ("kinds", "victims"):
        if isinstance(params.get(name), list):
            params[name] = tuple(params[name])
    return cls(**params)
