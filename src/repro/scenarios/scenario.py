"""Scenarios: serializable, seed-reproducible scripts of timed events.

A :class:`Scenario` pairs a tuple of :class:`ScenarioEvent`\\ s (trigger
× effect, see :mod:`repro.scenarios.events`) with run policy — an
optional round horizon and which recovery/availability measures to
track.  It is pure data: JSON-round-trippable, reusable across
simulators, and constructible by name through the
:data:`~repro.scenarios.scenario_registry`, which is what threads it
through :class:`~repro.api.ExperimentSpec`, campaigns and the CLI.

Binding a scenario to a :class:`~repro.core.simulator.Simulator`
produces a :class:`ScenarioRuntime` — the live object the step loop's
hook points call.  The runtime draws every random choice from the
run's dedicated ``scenario`` RNG stream (so attaching a scenario never
perturbs the scheduler's or protocol's draws), fires due events at
step boundaries, and streams the scenario measures — faults injected,
recovery rounds, steps-to-resilence, post-fault read-bit overhead,
availability — into the run's tiered
:class:`~repro.core.metrics.MetricsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .events import (Effect, Trigger, TriggerContext, check_int,
                     effect_from_dict, trigger_from_dict)


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted event: fire ``effect`` whenever ``trigger`` is due."""

    trigger: Trigger
    effect: Effect
    #: optional display label (defaults to "trigger->effect")
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean form (kind-tagged trigger and effect dicts)."""
        return {
            "trigger": self.trigger.to_dict(),
            "effect": self.effect.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            trigger=trigger_from_dict(data["trigger"]),
            effect=effect_from_dict(data["effect"]),
            label=data.get("label", ""),
        )

    def describe(self) -> str:
        """The label, or a generated "trigger->effect" tag."""
        return self.label or f"{self.trigger.kind}->{self.effect.kind}"


@dataclass(frozen=True)
class Scenario:
    """A declarative fault/churn/adversary script plus run policy."""

    name: str
    events: Tuple[ScenarioEvent, ...] = ()
    #: run for exactly this many rounds instead of to silence (required
    #: policy for scenarios whose periodic triggers never exhaust)
    horizon_rounds: Optional[int] = None
    #: sample per-step legitimacy into the availability measures
    #: (costs one predicate evaluation per step)
    track_availability: bool = False
    #: time fault → re-silence cycles (one silence check per round
    #: boundary while recovering)
    track_recovery: bool = True

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        check_int("Scenario", "horizon_rounds", self.horizon_rounds,
                  optional=True)
        if self.horizon_rounds is not None and self.horizon_rounds < 0:
            raise ValueError("Scenario.horizon_rounds must not be "
                             f"negative, got {self.horizon_rounds!r}")

    # ------------------------------------------------------------------
    def bind(self, sim) -> "ScenarioRuntime":
        """The hook the simulator calls: build this run's live runtime."""
        return ScenarioRuntime(self, sim)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "events": [e.to_dict() for e in self.events],
            "horizon_rounds": self.horizon_rounds,
            "track_availability": self.track_availability,
            "track_recovery": self.track_recovery,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            events=tuple(
                ScenarioEvent.from_dict(e) for e in data.get("events", ())
            ),
            horizon_rounds=data.get("horizon_rounds"),
            track_availability=data.get("track_availability", False),
            track_recovery=data.get("track_recovery", True),
        )

    def to_json(self) -> str:
        """Canonical JSON text."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse :meth:`to_json` output back."""
        import json

        return cls.from_dict(json.loads(text))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class AppliedEvent:
    """Audit record of one fired scenario event."""

    step: int
    round: int
    label: str
    description: str


class ScenarioRuntime:
    """The live side of one (scenario, simulator) binding.

    The simulator calls :meth:`before_step` at every step boundary
    (events fire here, through the indexed state views, with engine
    invalidation / topology rebinding handled by the effects) and
    :meth:`after_step` after the step's accounting (recovery and
    availability sampling live here).  All scenario measures stream
    into the simulator's :class:`~repro.core.metrics.MetricsCollector`
    under the ``full``/``aggregate`` tiers and are skipped under
    ``off``.
    """

    def __init__(self, scenario: Scenario, sim):
        self.scenario = scenario
        self.rng = sim.rngs.scenario
        self._events = list(scenario.events)
        self._states = [e.trigger.initial_state() for e in self._events]
        #: audit log of fired events
        self.applied: List[AppliedEvent] = []
        #: per-boundary silence verdict shared through
        #: ``Simulator.is_silent``: ((step_index, fault_count), verdict)
        self.silence_cache = None
        self._last_closed = True  # the pre-run boundary counts as one
        # silence-based recovery tracking: (rounds, steps, bits) at fault
        self._recovering: Optional[Tuple[int, int, float]] = None
        #: per-cycle silence recoveries as (rounds, steps, bits)
        self.silence_recoveries: List[Tuple[int, int, float]] = []
        # availability tracking (legitimacy-based, as the historical
        # availability_experiment measured it)
        self.observed_steps = 0
        self.legitimate_steps = 0
        self.legit_recoveries: List[int] = []
        self._legit_recovering_since: Optional[int] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def horizon_rounds(self) -> Optional[int]:
        """The scenario's round horizon (None = run to silence)."""
        return self.scenario.horizon_rounds

    @property
    def exhausted(self) -> bool:
        """Whether no event can ever fire again."""
        return all(
            e.trigger.exhausted(s)
            for e, s in zip(self._events, self._states)
        )

    @property
    def pending_oneshots(self) -> bool:
        """Whether some fire-once trigger has not fired yet (the
        run-to-silence drain loop waits on exactly these)."""
        return any(
            e.trigger.one_shot and not e.trigger.exhausted(s)
            for e, s in zip(self._events, self._states)
        )

    @property
    def availability(self) -> float:
        """Fraction of sampled steps spent legitimate (1.0 untracked)."""
        if self.observed_steps == 0:
            return 1.0
        return self.legitimate_steps / self.observed_steps

    # ------------------------------------------------------------------
    # Hook points (called by Simulator.step)
    # ------------------------------------------------------------------
    def before_step(self, sim) -> None:
        """Fire every due event at this step boundary."""
        if not self._events:
            return
        ctx = TriggerContext(sim, self.rng, self._last_closed)
        for event, state in zip(self._events, self._states):
            if not event.trigger.due(state, ctx):
                continue
            description = event.effect.apply(sim, self.rng)
            if description is None:
                continue  # no-op (e.g. no safe churn candidate)
            # Injection/churn effects shift the fault-count key on their
            # own; a Callback may have mutated anything, so drop the
            # shared verdict unconditionally.
            self.silence_cache = None
            self.applied.append(AppliedEvent(
                step=sim.step_index,
                round=sim.round_tracker.completed_rounds,
                label=event.describe(),
                description=description,
            ))
            self._note_disturbance(sim)

    def after_step(self, sim, closed_round: bool) -> None:
        """Sample availability and close recovery cycles."""
        self._last_closed = closed_round
        if self.scenario.track_availability:
            legitimate = sim.is_legitimate()
            self.observed_steps += 1
            if legitimate:
                self.legitimate_steps += 1
                if self._legit_recovering_since is not None:
                    self.legit_recoveries.append(
                        sim.round_tracker.completed_rounds
                        - self._legit_recovering_since
                    )
                    self._legit_recovering_since = None
            if sim.metrics_tier != "off":
                sim.metrics.record_availability_step(legitimate)
        if self._recovering is not None and closed_round:
            if sim.is_silent():
                r0, s0, b0 = self._recovering
                cycle = (
                    sim.round_tracker.completed_rounds - r0,
                    sim.step_index - s0,
                    sim.metrics.total_bits - b0,
                )
                self.silence_recoveries.append(cycle)
                if sim.metrics_tier != "off":
                    sim.metrics.record_recovery(*cycle)
                self._recovering = None

    # ------------------------------------------------------------------
    def _note_disturbance(self, sim) -> None:
        """Arm the recovery/availability trackers after an applied event."""
        if self.scenario.track_recovery and self._recovering is None:
            if not sim.is_silent():
                self._recovering = (
                    sim.round_tracker.completed_rounds,
                    sim.step_index,
                    sim.metrics.total_bits,
                )
        if (
            self.scenario.track_availability
            and self._legit_recovering_since is None
            and not sim.is_legitimate()
        ):
            self._legit_recovering_since = (
                sim.round_tracker.completed_rounds
            )

    def __repr__(self) -> str:
        return (f"ScenarioRuntime({self.scenario.name!r}, "
                f"applied={len(self.applied)})")
