"""The step simulator.

Implements the computation model of paper §2 faithfully:

* a *step* ``(γi, si, γi+1)`` activates a scheduler-chosen non-empty
  subset ``si`` of processes;
* every activated process evaluates its guards in priority order
  **against γi** and executes its highest-priority enabled action (a
  disabled process does nothing — the footnote case);
* all writes land simultaneously in ``γi+1``;
* rounds are counted with :class:`~repro.core.rounds.RoundTracker`;
* every neighbor read (guards included) is tracked for the
  communication-efficiency metrics;
* each step is executed by the run's
  :class:`~repro.core.engine.EnabledSetEngine`, which also maintains
  the set of enabled processes across steps (incremental dirty-set
  updates by default, with a full-scan fallback and a self-auditing
  debug mode) for :meth:`Simulator.enabled_processes` and the
  enabled-drawing daemons.

The simulator schedules and accounts; the engine executes.  The scalar
engines run a loop over one pooled
:class:`~repro.core.context.StepContext` per process, or over the
cascade compiled from the protocol's guard form
(:mod:`repro.core.guards`), and an active columnar engine runs whole
steps over columns; all produce the same ``γi+1`` bit for bit.  Every
measured tier folds the step's outcome into the collector the same
way; the metrics tier decides only whether measures fold and what
:meth:`Simulator.step` returns, never which path a run takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Union

from .engine import EnabledSetEngine, make_engine
from .exceptions import ConvergenceError
from ..obs.registry import TELEMETRY
from .metrics import METRICS_TIERS, LeanStepRecord, MetricsCollector, StepRecord
from .protocol import Protocol
from .rngstreams import RngStreams
from .rounds import RoundTracker
from .scheduler import Scheduler, SynchronousScheduler
from .silence import is_silent, silence_witness
from .state import Configuration

ProcessId = Hashable


def _check_count(count) -> None:
    """Refuse a step count or round budget that is not an int (bool
    excluded) or is negative, before any engine sees it; 0 runs
    nothing."""
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must not be negative, got {count!r}")


@dataclass
class StabilizationReport:
    """Outcome of a :meth:`Simulator.run_until_silent` run."""

    silent: bool
    legitimate: bool
    steps: int
    rounds: int
    #: step index at which the silence check first succeeded (None if never)
    silent_at_step: Optional[int]
    #: rounds completed when silence was detected (None if never)
    silent_at_round: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.silent and self.legitimate


class Simulator:
    """Executes one protocol on one network under one scheduler.

    Parameters
    ----------
    protocol, network:
        What to run and where.
    scheduler:
        Defaults to the synchronous scheduler (one step per round).
    seed:
        Seeds the run's named RNG streams
        (:class:`~repro.core.rngstreams.RngStreams`): the root stream
        drives the scheduler and any randomized actions exactly as the
        historical single run RNG did, while scenarios draw from an
        independent derived stream — runs replay exactly, and adding a
        scenario never changes the scheduler's draw sequence.
    config:
        Starting configuration; defaults to a fresh *arbitrary*
        (uniformly corrupted) configuration, the standard
        self-stabilization starting point.  A given configuration is
        copied: the run never mutates the caller's object.
    engine:
        Step execution and enabled-set maintenance: a name from
        :data:`~repro.core.engine.ENGINE_NAMES` (``"incremental"`` by
        default; ``"batch-resident"`` runs whole steps over columns) or
        a ready :class:`~repro.core.engine.EnabledSetEngine` instance.
        Every engine yields step-for-step identical executions; they
        differ only in how much work a step costs.
    metrics:
        Metrics tier (:data:`~repro.core.metrics.METRICS_TIERS`).
        ``"full"`` (default) and ``"aggregate"`` fold the same measures
        into the collector; :meth:`step` returns a full
        :class:`~repro.core.metrics.StepRecord` under ``"full"`` and a
        :class:`~repro.core.metrics.LeanStepRecord` otherwise.
        ``"off"`` skips the collector entirely.  Traces require
        ``"full"``.
    scenario:
        Optional scenario script (any object exposing ``bind(sim)``
        returning a runtime with ``before_step``/``after_step`` hooks —
        :class:`repro.scenarios.Scenario` in practice).  Events draw
        from the dedicated ``scenario`` RNG stream, so attaching one
        never perturbs the scheduler's or the protocol's draws; a run
        without a scenario pays one attribute check per step.
    protocol_factory:
        ``network -> Protocol`` rebuild hook required by topology-churn
        scenario events (:meth:`rebind_network`): after a node/edge
        mutation the protocol must be re-instantiated for the new
        network (degrees, palettes and local-identifier colorings are
        network-derived).  ``ExperimentSpec.build_simulator`` supplies
        the registry builder automatically.
    """

    def __init__(
        self,
        protocol: Protocol,
        network,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        config: Optional[Configuration] = None,
        engine: Union[str, EnabledSetEngine] = "incremental",
        metrics: str = "full",
        scenario=None,
        protocol_factory: Optional[Callable] = None,
    ):
        if metrics not in METRICS_TIERS:
            raise ValueError(
                f"unknown metrics tier {metrics!r}; known: {METRICS_TIERS}"
            )
        self.protocol = protocol
        self.network = network
        self.scheduler = scheduler or SynchronousScheduler()
        # A reused stateful scheduler (round-robin pointer, bounded-fair
        # starvation counters, scripted prefix) must not carry pacing
        # state from a previous simulator into this run.
        self.scheduler.reset()
        #: named RNG streams; the historical single run RNG survives as
        #: the root (scheduler + protocol draws, byte-compatible with
        #: pre-scenario runs), while scenarios draw from their own
        #: derived stream.
        self.rngs = RngStreams(seed)
        self.rng = self.rngs.root
        self.specs_of = protocol.specs_of(network)
        self.metrics_tier = metrics
        if config is None:
            config = protocol.arbitrary_configuration(
                network, self.rng, specs_of=self.specs_of)
        else:
            config = Configuration(config.as_dict())
        protocol.validate_configuration(network, config,
                                        specs_of=self.specs_of)
        self._config = config
        self._processes = network.processes
        self.round_tracker = RoundTracker(self._processes)
        self._metrics = MetricsCollector(self._processes)
        self.step_index = 0
        engine = make_engine(engine)
        #: the requested engine class: a replaced γ or network gets a
        #: fresh engine of this class (:meth:`_replace_engine`)
        self._engine_cls = type(engine)
        #: the engine that executes the run — the one ``bind`` returned,
        #: which for a columnar request without columns is scalar
        self.engine = engine.bind(protocol, network, config, self.specs_of)
        self._enabled_pool = self.scheduler.draws_from == "enabled"
        # Telemetry handles, fetched once: the step loop pays a single
        # ``enabled`` attribute check per step, and allocation-free
        # ``inc`` calls only while the registry is switched on.
        self._obs = TELEMETRY
        self._obs_steps = TELEMETRY.counter("sim.steps")
        self._obs_activations = TELEMETRY.counter("sim.activations")
        self._protocol_factory = protocol_factory
        #: audit log of out-of-band fault writes (``FaultReport``-like
        #: objects appended by :meth:`note_fault`; the trace recorder
        #: drains it into fault events)
        self.fault_log: List[object] = []
        #: live scenario runtime (None on scenario-free runs)
        self.scenario_runtime = None
        if scenario is not None:
            self.install_scenario(scenario)

    # ------------------------------------------------------------------
    # Metrics access
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector.

        A columnar engine folds per-process aggregate-tier counts into
        engine-side vectors; the collector drains them when its
        ``activations`` or ``read_sets`` are read, so every reader sees
        exact totals and a reader of the scalar measures (a trial row)
        never pays for the per-process dicts.
        """
        return self._metrics

    # ------------------------------------------------------------------
    # Configuration access
    # ------------------------------------------------------------------
    @property
    def config(self) -> Configuration:
        """The live configuration γ.

        Assigning a replacement configuration swaps the run's state
        wholesale: a private copy of the new configuration is taken and
        validated like a constructor argument (an out-of-domain value
        raises :class:`~repro.core.exceptions.DomainError` and keeps
        the old state; the caller's object is never mutated by the
        run), and the engine is released and replaced by a fresh one
        bound to the new state (the old one's pooled contexts cache
        rows of the old storage).  In-place mutation via
        :meth:`invalidate_enabled` remains the cheaper path for faults.
        """
        return self._config

    @config.setter
    def config(self, new_config) -> None:
        new_config = Configuration(new_config.as_dict())
        self.protocol.validate_configuration(self.network, new_config,
                                             specs_of=self.specs_of)
        self._config = new_config
        self._replace_engine()

    def _replace_engine(self) -> None:
        """Release the engine and bind a fresh one of the requested
        class to the current run objects (γ or the network was
        replaced wholesale)."""
        self.engine.release()
        self.engine = self._engine_cls().bind(
            self.protocol, self.network, self._config, self.specs_of)
        if self.scenario_runtime is not None:
            self.scenario_runtime.silence_cache = None

    # ------------------------------------------------------------------
    # Scenario / fault plumbing
    # ------------------------------------------------------------------
    def install_scenario(self, scenario) -> None:
        """Attach (or replace) the run's scenario script.

        ``scenario.bind(self)`` builds the live runtime whose
        ``before_step``/``after_step`` hooks the step loop calls; its
        events draw from the dedicated ``scenario`` RNG stream.
        """
        self.scenario_runtime = scenario.bind(self)

    def note_fault(self, report) -> None:
        """Log one out-of-band fault application for auditing.

        Called by the :mod:`repro.faults` injectors with their
        ``FaultReport``; the report lands on :attr:`fault_log` (which
        :class:`~repro.core.trace.TraceRecorder` drains into the trace)
        and its victim count streams into the metrics collector under
        the ``full`` and ``aggregate`` tiers.
        """
        self.fault_log.append(report)
        if self.metrics_tier != "off":
            self.metrics.record_fault(len(getattr(report, "victims", ())))

    def swap_scheduler(self, scheduler: Scheduler) -> None:
        """Replace the daemon mid-run (a scenario event).

        The incoming scheduler is reset (no pacing state may leak in)
        and the selection-pool wiring is re-derived from its
        ``draws_from`` declaration.
        """
        scheduler.reset()
        self.scheduler = scheduler
        self._enabled_pool = scheduler.draws_from == "enabled"

    def rebind_network(self, network, rng=None) -> None:
        """Adopt a mutated topology mid-run (scenario churn events).

        Rebuilds the protocol via ``protocol_factory`` (churn changes
        degrees, palettes, and local-identifier colorings, so the
        protocol instance is network-derived), then migrates the run:

        * surviving processes keep every variable value still inside
          its (possibly resized) domain; integer pointer-like values
          are clamped, anything else is resampled from the scenario
          stream — the model of a churn event is a transient fault at
          the affected processes;
        * joined processes start from arbitrary (corrupted) states;
        * communication constants are re-derived by the new protocol;
        * the round tracker, metrics keys and (network-aware) scheduler
          are rebound, and the engine is replaced by a fresh one bound
          to the new run objects.
        """
        if self._protocol_factory is None:
            raise ValueError(
                "topology mutation requires a protocol_factory= rebuild "
                "hook on the Simulator (ExperimentSpec.build_simulator "
                "supplies one; imperative callers must pass their own)"
            )
        rng = rng if rng is not None else self.rngs.scenario
        protocol = self._protocol_factory(network)
        specs_of = protocol.specs_of(network)
        old_states = self._config.as_dict()
        states = {}
        for p in network.processes:
            consts = protocol.constant_values(network, p)
            old = old_states.get(p)
            state = {}
            for spec in specs_of[p]:
                if spec.kind == "const":
                    state[spec.name] = consts[spec.name]
                    continue
                value = None
                if old is not None and spec.name in old:
                    prev = old[spec.name]
                    if prev in spec.domain:
                        value = prev
                    elif (isinstance(prev, int) and not isinstance(prev, bool)
                          and hasattr(spec.domain, "lo")):
                        value = max(spec.domain.lo,
                                    min(spec.domain.hi, prev))
                if value is None:
                    value = spec.domain.sample(rng)
                state[spec.name] = value
            states[p] = state
        config = Configuration(states)
        protocol.validate_configuration(network, config, specs_of=specs_of)

        self.protocol = protocol
        self.network = network
        self.specs_of = specs_of
        self._config = config
        self._processes = network.processes
        self.round_tracker.rebind(self._processes)
        self.metrics.rebind_processes(list(self._processes))
        self.scheduler.rebind_network(network)
        self._replace_engine()

    def report(self) -> StabilizationReport:
        """A report for the *current* configuration (silence checked
        now) — what a horizon-bounded scenario run returns."""
        return self._report(silent=None)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> Union[StepRecord, LeanStepRecord]:
        """Execute one step and return its record.

        The scheduler draws from all processes, or — for daemons with
        ``draws_from == "enabled"`` — from the engine-maintained enabled
        set (falling back to all processes when nothing is enabled, so
        a terminal configuration still closes rounds via no-op steps and
        silence is detected at the next round boundary).

        Returns a full :class:`~repro.core.metrics.StepRecord` under
        ``metrics="full"`` and a lean
        :class:`~repro.core.metrics.LeanStepRecord` otherwise.

        Scenario hook point: an installed scenario runtime sees the
        step boundary *before* the selection (events mutate γ, the
        topology, or the daemon, and the engine is invalidated before
        the pool is drawn) and again after the step's accounting.

        The engine executes the selection
        (:meth:`EnabledSetEngine.execute_step
        <repro.core.engine.EnabledSetEngine.execute_step>`); round
        accounting, metrics and the after-step hook are the
        simulator's.
        """
        runtime = self.scenario_runtime
        if runtime is not None:
            runtime.before_step(self)
        engine = self.engine
        if self._enabled_pool:
            pool = engine.enabled_list() or self._processes
        else:
            pool = self._processes
        selected = self.scheduler.select(pool, self.rngs.scheduler)
        if not selected:
            raise ConvergenceError("scheduler selected an empty set")
        outcome = engine.execute_step(
            selected, self.rngs.protocol if self.protocol.randomized else None
        )
        if self._enabled_pool:
            closed = self.round_tracker.record_step(
                selected, still_enabled=engine.enabled_view()
            )
        else:
            closed = self.round_tracker.record_step(selected)

        index = self.step_index
        self.step_index = index + 1
        if self._obs.enabled:
            self._obs_steps.inc()
            self._obs_activations.inc(len(selected))
        tier = self.metrics_tier
        if tier != "off":
            outcome.fold(self._metrics, closed)
        if tier == "full":
            record = outcome.record(index, closed)
        else:
            record = LeanStepRecord(index, len(selected), closed)
        if runtime is not None:
            runtime.after_step(self, closed)
        return record

    def _fused_resident(self):
        """The engine to hand a fused columnar run to, or None.

        The fused driver covers scenario-free runs under the plain
        synchronous daemon on an active columnar engine, at every
        metrics tier (it folds the same measures :meth:`step` does);
        anything else — scenario hooks, ``enabled_only`` and other
        daemons — keeps the per-step loop, which handles the columns via
        the materialization hook.  A caller that wants each step's
        record (a trace) drives :meth:`step` itself.
        """
        engine = self.engine
        if (
            engine.batch_active
            and self.scenario_runtime is None
            and type(self.scheduler) is SynchronousScheduler
            and not self._enabled_pool
        ):
            return engine
        return None

    def run_steps(self, count: int) -> None:
        """Execute exactly ``count`` steps."""
        _check_count(count)
        engine = self._fused_resident()
        if engine is not None and count > 0:
            engine.run_steps(self, max_steps=count)
            return
        for _ in range(count):
            self.step()

    def run_rounds(self, count: int) -> int:
        """Execute until ``count`` more rounds complete; returns steps used."""
        _check_count(count)
        if self._fused_resident() is not None:
            # Every plain synchronous step closes exactly one round.
            self.run_steps(count)
            return count
        target = self.round_tracker.completed_rounds + count
        steps = 0
        while self.round_tracker.completed_rounds < target:
            self.step()
            steps += 1
        return steps

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_legitimate(self) -> bool:
        """Whether the current γ satisfies the protocol's predicate.

        The one place a run decides legitimacy: the engine's own
        verdict (:meth:`EnabledSetEngine.legitimate
        <repro.core.engine.EnabledSetEngine.legitimate>` — a columnar
        reduction on kernels that have one, which decodes no row) when
        it gives one, else ``Protocol.is_legitimate`` over the rows.
        """
        verdict = self.engine.legitimate()
        if verdict is None:
            verdict = self.protocol.is_legitimate(self.network, self.config)
        return verdict

    def is_silent(self) -> bool:
        """Exact check that γ's communication part is fixed forever.

        Sound for any daemon: silence (Def. 3) quantifies over every
        fair scheduling of the future, not the one this simulator uses.

        The one place a run decides silence: the engine's own verdict
        (:meth:`EnabledSetEngine.silent
        <repro.core.engine.EnabledSetEngine.silent>` — a columnar check
        on kernels that have one) when it gives one, else the exact
        scalar walk over the rows.

        On scenario runs the verdict is cached per (step, fault-count)
        boundary — the run loop, the recovery tracker and pending
        ``after_silence`` triggers all ask at the same boundary, and
        the check is a full-network scan.  The cache is keyed on
        :attr:`step_index` and ``len(fault_log)``, so every sanctioned
        mutation path (steps, the fault injectors, churn rebinding)
        invalidates it; out-of-band writes that bypass the injectors
        must not be mixed with installed scenarios.
        """
        runtime = self.scenario_runtime
        if runtime is not None:
            key = (self.step_index, len(self.fault_log))
            cached = runtime.silence_cache
            if cached is not None and cached[0] == key:
                return cached[1]
        verdict = self.engine.silent()
        if verdict is None:
            verdict = is_silent(self.protocol, self.network, self.config,
                                **self._walk_args())
        if runtime is not None:
            runtime.silence_cache = (key, verdict)
        return verdict

    def silence_witness(self):
        """A reachable communication write proving γ is not silent
        (None when silent)."""
        return silence_witness(self.protocol, self.network, self.config,
                               **self._walk_args())

    def _walk_args(self) -> dict:
        """The run's spec map, the engine's execution pool and its own
        per-process walk (a compiled cascade's, or None) for a silence
        check.

        Pooled contexts read raw rows, so pending column writes are
        decoded first.  The walk only overlays buffered writes, which
        the next step's context reset clears.
        """
        engine = self.engine
        engine.materialize_rows()
        return {"specs_of": self.specs_of, "pool": engine.exec_pool,
                "walk": engine.walk}

    def enabled_processes(self) -> List[ProcessId]:
        """Processes with at least one enabled action in the current γ.

        Served by the enabled-set engine in canonical network order:
        O(dirty guards) per call under the incremental engine instead
        of one guard evaluation per process.  Code that mutates
        :attr:`config` directly (fault injection does) must call
        :meth:`invalidate_enabled` first or the view may be stale.
        """
        return list(self.engine.enabled_list())

    def invalidate_enabled(
        self, processes: Optional[List[ProcessId]] = None
    ) -> None:
        """Tell the engine some states changed behind the simulator's back.

        ``processes`` limits the invalidation to the touched processes
        and their neighbors, whose guards may read them; ``None``
        distrusts the whole network.
        A process the network does not hold raises ``ValueError``.  The
        fault-injection helpers in :mod:`repro.faults` call this for
        you.
        """
        if processes is not None:
            processes = list(processes)
            index = self.network.process_index()
            unknown = [p for p in processes if p not in index]
            if unknown:
                raise ValueError(
                    f"cannot invalidate {len(unknown)} unknown process(es): "
                    f"{unknown[:5]!r}"
                )
        self.engine.invalidate(processes)

    # ------------------------------------------------------------------
    # High-level runs
    # ------------------------------------------------------------------
    def run_until_silent(
        self,
        max_rounds: int = 10_000,
        check_legitimacy: bool = True,
    ) -> StabilizationReport:
        """Run until the configuration is provably silent.

        The (exact) silence check runs at every round boundary.  Raises
        :class:`ConvergenceError` if ``max_rounds`` elapse first — for
        the paper's protocols that indicates a bug, because all three
        are silent within known round bounds.
        """
        _check_count(max_rounds)
        if self.is_silent():
            return self._report(silent=True)
        engine = self._fused_resident()
        if engine is not None:
            # Every plain synchronous step closes exactly one round.
            _steps, silent = engine.run_steps(
                self, max_steps=max_rounds, stop_on_silence=True
            )
            if silent:
                return self._report(silent=True)
        else:
            start_round = self.round_tracker.completed_rounds
            while (self.round_tracker.completed_rounds - start_round
                   < max_rounds):
                record = self.step()
                if record.closed_round and self.is_silent():
                    return self._report(silent=True)
        raise ConvergenceError(
            f"{self.protocol.name} not silent after {max_rounds} rounds "
            f"on {self.network!r} (witness: {self.silence_witness()})"
        )

    def run_until_legitimate(self, max_rounds: int = 10_000) -> StabilizationReport:
        """Run until the legitimacy predicate holds (weaker than silence)."""
        _check_count(max_rounds)
        if self.is_legitimate():
            return self._report(silent=None)
        start_round = self.round_tracker.completed_rounds
        while self.round_tracker.completed_rounds - start_round < max_rounds:
            self.step()
            if self.is_legitimate():
                return self._report(silent=None)
        raise ConvergenceError(
            f"{self.protocol.name} not legitimate after {max_rounds} rounds"
        )

    def measure_suffix_stability(self, extra_rounds: int = 10) -> Dict[ProcessId, set]:
        """Arm suffix tracking and run ``extra_rounds`` more rounds.

        Returns each process's accumulated neighbor-read set over the
        suffix — the raw material of the ♦-(x, k)-stability measurement.
        Call after reaching silence.  Works under the ``full`` and
        ``aggregate`` tiers (both fold suffix read-sets); under
        ``metrics="off"`` nothing accumulates.
        """
        self.metrics.start_suffix()
        self.run_rounds(extra_rounds)
        assert self.metrics.suffix_read_sets is not None
        return {p: set(s) for p, s in self.metrics.suffix_read_sets.items()}

    # ------------------------------------------------------------------
    def _report(self, silent: Optional[bool]) -> StabilizationReport:
        actually_silent = self.is_silent() if silent is None else silent
        return StabilizationReport(
            silent=actually_silent,
            legitimate=self.is_legitimate(),
            steps=self.step_index,
            rounds=self.round_tracker.completed_rounds,
            silent_at_step=self.step_index if actually_silent else None,
            silent_at_round=(
                self.round_tracker.completed_rounds if actually_silent else None
            ),
        )
