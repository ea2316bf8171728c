"""Communication metrics.

Implements the measurable side of the paper's Section 3:

* **k-efficiency** (Def. 4) — the largest number of distinct neighbors
  any process reads in any single step.
* **Communication complexity** (Def. 5) — the most bits a process reads
  from neighbors in a step.
* **R_p(C) and stability** (Defs. 7–9) — the accumulated set of
  neighbors a process reads over a (suffix of a) computation; a protocol
  observed with ``R_p ≤ k`` for x processes over a suffix is evidence of
  ♦-(x, k)-stability.

The *metrics tier* (:data:`METRICS_TIERS`, the ``metrics=`` knob on
:class:`~repro.core.simulator.Simulator` and
:class:`~repro.api.ExperimentSpec`) decides two things only: whether
the measures fold, and what ``Simulator.step`` returns.

* ``"full"`` and ``"aggregate"`` fold every step the same way, straight
  off the step's pooled contexts (:meth:`MetricsCollector.record_lean`)
  or columns, so every measure reported by
  :meth:`MetricsCollector.summary` and the suffix machinery is the same
  on both.  ``step()`` returns a :class:`StepRecord` under ``"full"``
  (traces need it) and a :class:`LeanStepRecord` under ``"aggregate"``.
* ``"off"`` — the collector is never touched; only
  ``Simulator.step_index`` and the round tracker advance.

Memory contract: the collector is ``O(n + Σ|read sets|)`` —
aggregates and per-process read sets, independent of run length; it
keeps no step record.  The per-process dicts (``activations``,
``read_sets``) are built on first read: an engine that keeps those
counts in its own arrays registers a drain
(:meth:`MetricsCollector.defer_per_process`) that folds them in
whenever either dict is read, so a run that only reads the scalar
measures never builds them.  The collector can be "re-armed"
(``start_suffix``) at the silence point so the suffix read-sets measure
the stabilized phase exactly as the paper's ♦-notions require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set

ProcessId = Hashable

#: Metrics tiers accepted by ``Simulator(metrics=...)`` and
#: ``ExperimentSpec(metrics=...)``.
METRICS_TIERS = ("full", "aggregate", "off")


@dataclass(frozen=True)
class StepRecord:
    """What happened in one step, as far as communication is concerned."""

    index: int
    activated: FrozenSet[ProcessId]
    #: rule name fired per activated process (None = was disabled)
    executed: Dict[ProcessId, Optional[str]]
    #: distinct neighbor ports read per activated process
    ports_read: Dict[ProcessId, FrozenSet[int]]
    #: bits of neighbor information read per activated process
    bits_read: Dict[ProcessId, float]
    closed_round: bool


@dataclass(frozen=True)
class LeanStepRecord:
    """Skeletal step result returned under the non-``full`` tiers.

    Carries just enough for the run loops (``closed_round`` drives
    ``run_until_silent``); the step's reads have been folded into the
    collector (``aggregate``) or dropped (``off``) without building a
    :class:`StepRecord`.
    """

    index: int
    activated_count: int
    closed_round: bool


class MetricsCollector:
    """Aggregates steps into the paper's communication measures.

    ``processes`` is the network's process list (aggregates are keyed
    per process).
    """

    def __init__(self, processes: List[ProcessId]):
        self._processes = list(processes)
        self.steps = 0
        self.rounds = 0
        #: worst per-step neighbor-read count seen so far (observed k-efficiency)
        self.max_reads_in_step = 0
        #: worst per-step bits read by a single process (Def. 5, observed)
        self.max_bits_in_step = 0.0
        self.total_bits = 0.0
        self.total_reads = 0
        # The per-process dicts behind ``activations`` / ``read_sets``,
        # built on first read, and the drain of an engine that defers
        # its per-process folds (see ``defer_per_process``).
        self._activations: Optional[Dict[ProcessId, int]] = None
        self._read_sets: Optional[Dict[ProcessId, Set[int]]] = None
        self._drain = None
        #: accumulated neighbor-read sets since :meth:`start_suffix`
        self.suffix_read_sets: Optional[Dict[ProcessId, Set[int]]] = None
        self.suffix_start_step: Optional[int] = None
        # -- scenario measures (fed by fault injection / ScenarioRuntime;
        #    all stay zero on scenario-free runs, and the ``off`` tier
        #    never feeds them) ------------------------------------------
        #: number of fault/churn events applied to the run
        self.faults_injected = 0
        #: total processes hit across all fault events
        self.fault_victims = 0
        #: rounds from each fault to the return of silence
        self.recovery_rounds: List[int] = []
        #: steps from each fault to the return of silence
        self.recovery_steps: List[int] = []
        #: neighbor-read bits spent between faults and re-silence
        self.post_fault_bits = 0.0
        #: per-step legitimacy samples (availability tracking only)
        self.availability_steps = 0
        self.legitimate_steps = 0

    # ------------------------------------------------------------------
    # Per-process aggregates
    # ------------------------------------------------------------------
    @property
    def activations(self) -> Dict[ProcessId, int]:
        """Activation counts per process."""
        return self._per_process()[0]

    @property
    def read_sets(self) -> Dict[ProcessId, Set[int]]:
        """Accumulated neighbor-read sets per process over the whole run."""
        return self._per_process()[1]

    def defer_per_process(self, drain) -> None:
        """Register ``drain(activations, read_sets)``, which folds the
        per-process counts an engine keeps outside the collector into
        the two dicts; it runs before either is read."""
        self._drain = drain

    def _per_process(self):
        if self._activations is None:
            self._activations = dict.fromkeys(self._processes, 0)
            self._read_sets = {p: set() for p in self._processes}
        if self._drain is not None:
            self._drain(self._activations, self._read_sets)
        return self._activations, self._read_sets

    # ------------------------------------------------------------------
    def record(self, record: StepRecord) -> None:
        """Fold one given :class:`StepRecord` into the aggregates, as
        :meth:`record_lean` folds the step it was built from."""
        self.steps += 1
        if record.closed_round:
            self.rounds += 1
        activations, read_sets = self._per_process()
        for p in record.activated:
            activations[p] += 1
        for p, ports in record.ports_read.items():
            count = len(ports)
            if count > self.max_reads_in_step:
                self.max_reads_in_step = count
            self.total_reads += count
            read_sets[p].update(ports)
            if self.suffix_read_sets is not None:
                self.suffix_read_sets[p].update(ports)
        for p, bits in record.bits_read.items():
            if bits > self.max_bits_in_step:
                self.max_bits_in_step = bits
            self.total_bits += bits

    def record_lean(self, executions, closed_round: bool) -> None:
        """Fold one scalar step straight off its step contexts.

        ``executions`` is the engine's ``(pid, ctx, action)`` list for
        the step, one entry per selected process (a selection is a
        set); the fold reads each context's ``ports_read`` /
        ``bits_read`` in place and produces aggregates identical to
        feeding :meth:`record` the equivalent :class:`StepRecord` —
        the metrics-tier property tests pin that equivalence — without
        ever building the record's frozensets and dicts.
        """
        self.steps += 1
        if closed_round:
            self.rounds += 1
        activations, read_sets = self._per_process()
        suffix = self.suffix_read_sets
        max_reads = self.max_reads_in_step
        max_bits = self.max_bits_in_step
        total_reads = self.total_reads
        total_bits = self.total_bits
        for p, ctx, _action in executions:
            activations[p] += 1
            ports = ctx.ports_read
            count = len(ports)
            if count:
                if count > max_reads:
                    max_reads = count
                total_reads += count
                read_sets[p].update(ports)
                if suffix is not None:
                    suffix[p].update(ports)
            bits = ctx.bits_read
            if bits > max_bits:
                max_bits = bits
            total_bits += bits
        self.max_reads_in_step = max_reads
        self.max_bits_in_step = max_bits
        self.total_reads = total_reads
        self.total_bits = total_bits

    # ------------------------------------------------------------------
    # Scenario measures (faults, recovery, availability)
    # ------------------------------------------------------------------
    def record_fault(self, victims: int) -> None:
        """Count one applied fault/churn event hitting ``victims``
        processes (streamed by :meth:`Simulator.note_fault
        <repro.core.simulator.Simulator.note_fault>` and the scenario
        runtime under the ``full`` and ``aggregate`` tiers)."""
        self.faults_injected += 1
        self.fault_victims += victims

    def record_recovery(self, rounds: int, steps: int, bits: float) -> None:
        """Record one fault → re-silence cycle: the recovery rounds,
        the steps to re-silence, and the neighbor-read bits spent in
        between (the post-fault read-bit overhead)."""
        self.recovery_rounds.append(rounds)
        self.recovery_steps.append(steps)
        self.post_fault_bits += bits

    def record_availability_step(self, legitimate: bool) -> None:
        """Fold one per-step legitimacy sample (availability tracking)."""
        self.availability_steps += 1
        if legitimate:
            self.legitimate_steps += 1

    @property
    def availability(self) -> float:
        """Fraction of sampled steps spent legitimate (1.0 untracked)."""
        if self.availability_steps == 0:
            return 1.0
        return self.legitimate_steps / self.availability_steps

    @property
    def mean_recovery_rounds(self) -> float:
        """Mean rounds from fault to re-silence (0.0 when no recovery
        was measured)."""
        if not self.recovery_rounds:
            return 0.0
        return sum(self.recovery_rounds) / len(self.recovery_rounds)

    # ------------------------------------------------------------------
    # Topology churn
    # ------------------------------------------------------------------
    def rebind_processes(self, processes: List[ProcessId]) -> None:
        """Extend the per-process aggregates after topology churn.

        Joined processes get zeroed entries; departed processes keep
        theirs (their activity happened and stays counted).  The
        stability queries (:meth:`suffix_stable_processes`) answer for
        the *current* process set.
        """
        activations, read_sets = self._per_process()
        for p in processes:
            if p not in activations:
                activations[p] = 0
                read_sets[p] = set()
                if self.suffix_read_sets is not None:
                    self.suffix_read_sets[p] = set()
        self._processes = list(processes)

    # ------------------------------------------------------------------
    # Stability measurement
    # ------------------------------------------------------------------
    def start_suffix(self) -> None:
        """Begin accumulating the suffix read-sets (call at silence)."""
        self.suffix_read_sets = {p: set() for p in self._processes}
        self.suffix_start_step = self.steps

    def suffix_stable_processes(self, k: int = 1) -> List[ProcessId]:
        """Processes whose suffix read-set has size ≤ k.

        With the suffix armed at the silence point, the length of this
        list is the measured ``x`` of ♦-(x, k)-stability.
        """
        if self.suffix_read_sets is None:
            raise RuntimeError("start_suffix() was never called")
        return [
            p for p in self._processes if len(self.suffix_read_sets[p]) <= k
        ]

    def observed_k_efficiency(self) -> int:
        """The smallest k for which the run was k-efficient (Def. 4)."""
        return self.max_reads_in_step

    def observed_stability(self) -> int:
        """The smallest k for which the *whole run* was k-stable (Def. 7)."""
        return max((len(s) for s in self.read_sets.values()), default=0)

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers for tables and benchmarks."""
        return {
            "steps": self.steps,
            "rounds": self.rounds,
            "k_efficiency": self.max_reads_in_step,
            "max_bits_per_step": self.max_bits_in_step,
            "total_bits": self.total_bits,
            "total_reads": self.total_reads,
            "faults_injected": self.faults_injected,
            "fault_victims": self.fault_victims,
            "availability": self.availability,
            "mean_recovery_rounds": self.mean_recovery_rounds,
            "post_fault_bits": self.post_fault_bits,
        }

    def trial_measures(self) -> Dict[str, float]:
        """The collector's slice of a result row, ready-typed.

        The single definition of which measures a trial row carries
        from the collector: :func:`repro.api.execute_trial` splats this
        straight into ``TrialResult`` and the results warehouse
        (:mod:`repro.results`) flattens the same names into its trial
        columns, so the row schema cannot drift between the executor
        and the store.
        """
        return {
            "k_efficiency": int(self.max_reads_in_step),
            "max_bits_per_step": self.max_bits_in_step,
            "total_bits": self.total_bits,
            "faults_injected": int(self.faults_injected),
            "availability": float(self.availability),
            "mean_recovery_rounds": float(self.mean_recovery_rounds),
            "post_fault_bits": float(self.post_fault_bits),
        }
