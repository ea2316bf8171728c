"""Canned scenarios and the scenario registry.

Scenarios join protocols/topologies/schedulers/engines as a named,
parameterised experiment axis: ``scenario_registry`` maps a name plus
JSON-clean parameters to a :class:`~repro.scenarios.Scenario`, which is
exactly what :class:`~repro.api.ExperimentSpec` stores in its
``scenario``/``scenario_params`` fields.  Downstream code extends the
axis with the decorator::

    from repro.scenarios import register_scenario, Scenario

    @register_scenario("my-chaos")
    def _build(period_rounds=5):
        return Scenario("my-chaos", events=(...))

The built-ins cover the paper-adjacent experiment shapes: a single
post-stabilization fault (recovery measurement), periodic faults
(availability measurement), the worst-case symmetric reset, node/edge
churn over a dynamic topology, a mid-run daemon swap, and the fully
generic ``script`` scenario whose ``events`` parameter is the raw
JSON event DSL.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api.registry import Registry
from .events import (
    CHURN_OPERATIONS,
    AdversarialReset,
    AtRound,
    AtStep,
    Churn,
    CorruptFraction,
    EveryRounds,
    AfterSilence,
    SwapScheduler,
    check_int,
)
from .scenario import Scenario, ScenarioEvent

#: name -> builder table for scenarios (the fifth experiment axis)
scenario_registry = Registry("scenario")
register_scenario = scenario_registry.register


@register_scenario("noop")
def _noop() -> Scenario:
    """No events at all — the byte-identity regression baseline."""
    return Scenario("noop", events=(), track_recovery=False)


@register_scenario("single-fault")
def _single_fault(
    fraction: float = 0.3,
    kinds: Sequence[str] = ("comm", "internal"),
    at_round: Optional[int] = None,
) -> Scenario:
    """One transient fault: after stabilization (default) or at a fixed
    round.  The recovery measures (rounds, steps-to-resilence,
    post-fault read bits) land in the metrics collector."""
    trigger = AfterSilence() if at_round is None else AtRound(at_round)
    return Scenario(
        "single-fault",
        events=(ScenarioEvent(trigger, CorruptFraction(fraction, tuple(kinds))),),
    )


@register_scenario("periodic-faults")
def _periodic_faults(
    period_rounds: int = 20,
    fraction: float = 0.2,
    kinds: Sequence[str] = ("comm", "internal"),
    total_rounds: int = 200,
) -> Scenario:
    """A fault every ``period_rounds`` for ``total_rounds`` rounds, with
    per-step availability tracking — the availability experiment.
    Silence-based recovery cycles are timed too (they feed the
    ``mean_recovery_rounds`` / ``post_fault_bits`` trial measures)."""
    return Scenario(
        "periodic-faults",
        events=(ScenarioEvent(
            EveryRounds(period_rounds),
            CorruptFraction(fraction, tuple(kinds)),
        ),),
        horizon_rounds=total_rounds,
        track_availability=True,
        track_recovery=True,
    )


@register_scenario("adversarial-reset")
def _adversarial_reset(
    state: Mapping[str, Any],
    after_silence: bool = True,
    at_step: int = 0,
) -> Scenario:
    """Force one fixed state everywhere — after stabilization (default)
    or at a fixed step boundary."""
    trigger = AfterSilence() if after_silence else AtStep(at_step)
    return Scenario(
        "adversarial-reset",
        events=(ScenarioEvent(trigger, AdversarialReset(dict(state))),),
    )


@register_scenario("churn")
def _churn(
    period_rounds: int = 10,
    operations: Sequence[str] = CHURN_OPERATIONS,
    fraction: float = 0.0,
    degree: int = 2,
    min_n: int = 3,
    total_rounds: Optional[int] = None,
) -> Scenario:
    """Dynamic-topology churn: every ``period_rounds`` one safe mutation
    fires, cycling through ``operations`` round-robin (staggered starts
    so at most one mutation hits a boundary); ``fraction > 0`` adds a
    corruption event every ``period_rounds`` as well.  Recovery cycles
    are timed; pass ``total_rounds`` for a fixed horizon (otherwise the
    run ends at the first silence once all pending events fired)."""
    # True * 4 is the int 4: the triggers below cannot see a bool
    check_int("churn", "period_rounds", period_rounds)
    operations = list(operations)
    if not operations:
        raise ValueError("churn needs at least one operation")
    cycle = period_rounds * len(operations)
    events: List[ScenarioEvent] = [
        ScenarioEvent(
            EveryRounds(cycle, start=period_rounds * (i + 1)),
            Churn(op, degree=degree, min_n=min_n),
        )
        for i, op in enumerate(operations)
    ]
    if fraction > 0:
        events.append(ScenarioEvent(
            EveryRounds(period_rounds), CorruptFraction(fraction)
        ))
    return Scenario(
        "churn",
        events=tuple(events),
        horizon_rounds=total_rounds,
    )


@register_scenario("scheduler-swap")
def _scheduler_swap(
    scheduler: str,
    params: Optional[Mapping[str, Any]] = None,
    at_round: int = 10,
) -> Scenario:
    """Swap the daemon mid-run once ``at_round`` rounds completed."""
    return Scenario(
        "scheduler-swap",
        events=(ScenarioEvent(
            AtRound(at_round), SwapScheduler(scheduler, dict(params or {})),
        ),),
        track_recovery=False,
    )


@register_scenario("script")
def _script(
    events: Sequence[Mapping[str, Any]],
    horizon_rounds: Optional[int] = None,
    track_availability: bool = False,
    track_recovery: bool = True,
    scenario_name: str = "script",
) -> Scenario:
    """The generic scenario: ``events`` is the raw JSON event DSL
    (kind-tagged trigger/effect dicts, see
    :mod:`repro.scenarios.events`), so a whole scenario can live inside
    an :class:`~repro.api.ExperimentSpec`'s ``scenario_params``.
    (``scenario_name`` rather than ``name``: the registry's ``build``
    reserves that word for the registry key.)"""
    return Scenario(
        scenario_name,
        events=tuple(ScenarioEvent.from_dict(e) for e in events),
        horizon_rounds=horizon_rounds,
        track_availability=track_availability,
        track_recovery=track_recovery,
    )


def build_scenario(name: str, params: Optional[Dict[str, Any]] = None) -> Scenario:
    """Construct a registered scenario (the spec layer's entry point)."""
    return scenario_registry.build(name, **(params or {}))
