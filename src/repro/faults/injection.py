"""Transient fault injection.

Self-stabilization's fault model is brutal and simple: a transient
fault writes *arbitrary values* into the variables of affected
processes (communication constants excluded — they model read-only
hardware like a burned-in color).  This module provides composable
fault shapes over a live :class:`~repro.core.simulator.Simulator`:

* :func:`corrupt_processes` — arbitrary values at chosen victims;
* :func:`corrupt_fraction` — a random fraction of the network;
* :func:`corrupt_comm_only` / :func:`corrupt_internal_only` — split
  corruption along the paper's variable-kind distinction (useful for
  testing that internal-pointer corruption alone cannot break a silent
  configuration's *communication* fixed point);
* :func:`adversarial_reset` — set every process to one fixed state
  (e.g. "everyone thinks it is a Dominator"), the worst symmetric case.

Every injector returns a :class:`FaultReport` describing exactly what
was applied — the victims actually written, the variable kinds hit,
and the variables written per victim — and logs it on the simulator
(:attr:`Simulator.fault_log
<repro.core.simulator.Simulator.fault_log>`), where the trace recorder
picks it up as an audit record.  Writes go through the configuration's
indexed state views and always end in ``Simulator.invalidate_enabled``
for the touched processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.exceptions import DomainError
from ..core.simulator import Simulator

ProcessId = Hashable


@dataclass(frozen=True)
class FaultReport:
    """What one fault injection actually did.

    ``victims`` lists only the processes that had at least one variable
    written (a targeted process with no writable variable of the
    requested kinds is *not* a victim); ``kinds`` is the union of
    variable kinds actually written, and ``vars_written`` maps each
    victim to the variable names that changed hands.  The report
    behaves like a sized iterable of victims, so legacy callers that
    did ``len(corrupt_fraction(...))`` keep working.
    """

    #: injector kind ("corrupt" | "reset")
    kind: str
    #: processes actually written, in application order
    victims: Tuple[ProcessId, ...]
    #: variable kinds actually written ("comm" / "internal")
    kinds: Tuple[str, ...]
    #: victim -> names of the variables written
    vars_written: Mapping[ProcessId, Tuple[str, ...]] = field(
        default_factory=dict
    )
    #: ``Simulator.step_index`` at injection time (the step boundary
    #: the fault preceded)
    step: int = 0

    def __len__(self) -> int:
        return len(self.victims)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self.victims)

    def __bool__(self) -> bool:
        return bool(self.victims)


def _writable_specs(sim: Simulator, p: ProcessId, kinds: Sequence[str]):
    return [s for s in sim.specs_of[p] if s.kind in kinds]


def _finish(
    sim: Simulator,
    kind: str,
    writes: Dict[ProcessId, Tuple[str, ...]],
    kinds_hit: set,
) -> FaultReport:
    """Build the report, log it on the simulator, invalidate the engine."""
    report = FaultReport(
        kind=kind,
        victims=tuple(writes),
        kinds=tuple(sorted(kinds_hit)),
        vars_written=dict(writes),
        step=sim.step_index,
    )
    if report.victims:
        sim.invalidate_enabled(list(report.victims))
        sim.note_fault(report)
    return report


def corrupt_processes(
    sim: Simulator,
    victims: Iterable[ProcessId],
    rng: random.Random,
    kinds: Sequence[str] = ("comm", "internal"),
) -> FaultReport:
    """Write arbitrary in-domain values into each victim's variables.

    Writes go through the configuration's per-process state view (one
    pid lookup per victim; the view writes straight into the victim's
    row, which pooled step contexts alias — no cache to refresh).
    Returns the :class:`FaultReport` of what was actually written.
    """
    writes: Dict[ProcessId, Tuple[str, ...]] = {}
    kinds_hit: set = set()
    for p in victims:
        state = sim.config.state_of(p)
        written = []
        for spec in _writable_specs(sim, p, kinds):
            state[spec.name] = spec.domain.sample(rng)
            written.append(spec.name)
            kinds_hit.add(spec.kind)
        if written:
            writes[p] = tuple(written)
    # The writes bypassed Simulator.step, so the enabled-set engine must
    # be told which processes (and observers thereof) to re-examine.
    return _finish(sim, "corrupt", writes, kinds_hit)


def corrupt_fraction(
    sim: Simulator,
    fraction: float,
    rng: random.Random,
    kinds: Sequence[str] = ("comm", "internal"),
) -> FaultReport:
    """Corrupt a uniformly random ⌈fraction·n⌉ subset of processes."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    processes = list(sim.network.processes)
    count = max(1, round(fraction * len(processes))) if fraction > 0 else 0
    victims = rng.sample(processes, min(count, len(processes)))
    return corrupt_processes(sim, victims, rng, kinds)


def corrupt_comm_only(sim: Simulator, victims, rng: random.Random) -> FaultReport:
    """Corrupt only neighbor-visible state (communication variables)."""
    return corrupt_processes(sim, victims, rng, kinds=("comm",))


def corrupt_internal_only(sim: Simulator, victims, rng: random.Random) -> FaultReport:
    """Corrupt only private state (round-robin pointers etc.)."""
    return corrupt_processes(sim, victims, rng, kinds=("internal",))


def adversarial_reset(
    sim: Simulator,
    state: Dict[str, Any],
    victims: Optional[Iterable[ProcessId]] = None,
) -> FaultReport:
    """Force one fixed state onto every victim (default: all processes).

    Values are clamped per process: a variable absent from ``state`` is
    left untouched, an out-of-range int is clamped into an integer
    range, and any other out-of-domain value (a bool for an integer
    range, ``1`` for a boolean) raises
    :class:`~repro.core.exceptions.DomainError` before anything is
    written.  Returns the :class:`FaultReport` of what was actually
    written.
    """
    chosen = list(victims) if victims is not None else list(sim.network.processes)
    planned = []
    for p in chosen:
        values = []
        for spec in _writable_specs(sim, p, ("comm", "internal")):
            if spec.name not in state:
                continue
            value = state[spec.name]
            if value not in spec.domain:
                # Per-process domains differ (cur ranges over 1..δ.p);
                # clamp pointer-like values rather than failing.
                if (hasattr(spec.domain, "lo") and isinstance(value, int)
                        and not isinstance(value, bool)):
                    value = max(spec.domain.lo, min(spec.domain.hi, value))
                else:
                    raise DomainError(
                        f"value {value!r} invalid for {spec.name}.{p!r}"
                    )
            values.append((spec, value))
        planned.append((p, values))
    writes: Dict[ProcessId, Tuple[str, ...]] = {}
    kinds_hit: set = set()
    for p, values in planned:
        if not values:
            continue
        target = sim.config.state_of(p)
        for spec, value in values:
            target[spec.name] = value
            kinds_hit.add(spec.kind)
        writes[p] = tuple(spec.name for spec, _value in values)
    return _finish(sim, "reset", writes, kinds_hit)
