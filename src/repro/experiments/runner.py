"""The trial result row.

One *trial* = one protocol on one network under one scheduler from one
corrupted start, run to silence with full metric collection.
:func:`repro.api.execute_trial` runs one and returns its
:class:`TrialResult`; :class:`repro.api.ExperimentSpec` and
:class:`repro.api.Campaign` describe trials and grids of them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping


@dataclass(frozen=True)
class TrialResult:
    """Headline numbers of one run-to-silence trial.

    The scenario measures (faults injected, availability fraction,
    mean recovery rounds, post-fault read-bit overhead) stay at their
    neutral defaults on scenario-free runs, and rows written by
    pre-scenario versions load back with those defaults.
    """

    protocol: str
    scheduler: str
    n: int
    m: int
    delta: int
    seed: int
    steps: int
    rounds: int
    k_efficiency: int
    max_bits_per_step: float
    total_bits: float
    legitimate: bool
    silent: bool
    faults_injected: int = 0
    availability: float = 1.0
    mean_recovery_rounds: float = 0.0
    post_fault_bits: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialResult":
        values = {}
        for f in dataclasses.fields(cls):
            if f.name in data:
                values[f.name] = data[f.name]
            elif f.default is dataclasses.MISSING:
                raise KeyError(f.name)
            # else: a pre-scenario row — keep the field's default
        return cls(**values)
