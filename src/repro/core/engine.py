"""Enabled-set engines: who could act *right now*, maintained cheaply.

The simulator, the silence-adjacent analyses, and the enabled-drawing
daemons all need the same piece of derived state: the set of processes
with at least one enabled action in the current configuration γ.
Recomputing it from scratch costs one guard evaluation per process —
``O(n·Δ)`` per query — which caps throughput long before the hardware
does on large networks.

The engines here exploit the locality the execution model *enforces*:
a guard is a function of the process's own state and its neighbors'
communication variables only (:class:`~repro.core.context.StepContext`
raises :class:`~repro.core.exceptions.IllegalRead` on anything else).
Hence a step that activates the set ``s`` and changes the communication
variables of ``c ⊆ s`` can only change the enabled-status of

* the activated processes themselves (their own state moved), and
* the neighbors of the members of ``c``, the only processes whose
  guards can read those variables.

Three engines implement one contract (:class:`EnabledSetEngine`):

* :class:`ScanEngine` — the full-scan fallback: rescans every process
  on demand.  ``O(n·Δ)`` per post-step query, trivially correct.
* :class:`IncrementalEngine` — the default: accumulates a dirty-set per
  step and re-evaluates only dirty guards on demand.  ``O(Δ·|s|)``
  amortized per step.
* :class:`CrossCheckEngine` — debugging: runs the incremental update
  *and* a full scan on every query and raises
  :class:`~repro.core.exceptions.ModelError` on any disagreement.

All engines are *lazy*: :meth:`note_step` only records what moved, and
guard re-evaluation happens when :meth:`enabled_view` /
:meth:`enabled_list` is queried.  A run that never asks about
enabled-status pays almost nothing.

Every engine also executes the steps the simulator hands it
(:meth:`EnabledSetEngine.execute_step`): the scalar loop here, or the
columnar one of :mod:`repro.core.batchengine`.

A run's engine is chosen once, at :meth:`EnabledSetEngine.bind`, which
returns the engine that executes the run (a columnar engine that
cannot hold the run in columns hands it to a scalar engine), so
``sim.engine.name`` names the engine that actually runs.  An engine is
bound to one run and never rebound: when the simulator replaces γ or
the network, it calls :meth:`~EnabledSetEngine.release` on the engine
and binds a fresh one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import (AbstractSet, Dict, FrozenSet, Hashable, Iterable,
                    Optional, Set, Tuple)

from ..obs.registry import TELEMETRY
from .actions import first_enabled
from .context import StepContextPool
from .exceptions import ModelError
from .metrics import StepRecord

ProcessId = Hashable

#: Engine names accepted by :func:`make_engine` (and the registry /
#: CLI / :class:`~repro.api.ExperimentSpec` layers built on top of it).
#: ``batch-resident`` / ``batch-debug`` live in
#: :mod:`repro.core.batchengine` (columnar whole-step execution, and its
#: self-auditing form; each binds a scalar engine where no kernel
#: applies) and are resolved lazily to keep this module import-light.
ENGINE_NAMES = ("incremental", "scan", "debug", "batch-resident", "batch-debug")

#: the engines that run whole steps over NumPy columns
COLUMNAR_ENGINE_NAMES = ("batch-resident", "batch-debug")


class ScalarOutcome:
    """One scalar step's ``(pid, ctx, action)`` executions, in selection
    order (``action`` is None for a selected-but-disabled process)."""

    __slots__ = ("selected", "executions")

    def __init__(self, selected, executions):
        self.selected = selected
        self.executions = executions

    def record(self, index: int, closed: bool) -> StepRecord:
        """The step's full-tier :class:`~repro.core.metrics.StepRecord`."""
        executed, ports_read, bits_read = {}, {}, {}
        for p, ctx, action in self.executions:
            executed[p] = action.name if action else None
            ports_read[p] = frozenset(ctx.ports_read)
            bits_read[p] = ctx.bits_read
        return StepRecord(index, frozenset(self.selected), executed,
                          ports_read, bits_read, closed)

    def fold(self, collector, closed: bool) -> None:
        """Fold the step into ``collector`` (every measured tier)."""
        collector.record_lean(self.executions, closed)


class EnabledSetEngine(ABC):
    """Executes steps and maintains the set of enabled processes.

    Lifecycle contract:

    1. The simulator calls :meth:`bind` once with the live run objects
       and keeps the engine it returns; the engine snapshots nothing —
       it reads the (mutable) configuration on every guard evaluation.
       Replacing γ or the network wholesale replaces the engine:
       :meth:`release` on the old one, :meth:`bind` on a fresh one.
    2. Every step, the simulator hands the scheduler's selection to
       :meth:`execute_step`, which applies the step to the
       configuration and notes it itself: the activated set and the
       subset whose *communication* variables actually changed value
       reach :meth:`note_step`.  Noting must be cheap.
    3. Any time :meth:`enabled_view` / :meth:`enabled_list` is called,
       the engine answers for the configuration as of the last noted
       step (evaluating guards lazily as needed).
    4. Code that mutates the configuration behind the simulator's back
       (fault injection) must call :meth:`invalidate` with the touched
       processes, or with ``None`` to distrust everything.
    """

    #: registry/CLI identifier of the engine implementation
    name: str = "engine"

    #: whether whole steps run over columns, which the simulator's fused
    #: loop requires (never, on the scalar engines)
    batch_active: bool = False

    def bind(self, protocol, network, config, specs_of) -> "EnabledSetEngine":
        """Attach the engine to one run and return the engine that
        executes it (this one, on the scalar engines).

        An engine instance is a single-run object: rebinding it would
        leave every earlier holder silently querying the new run's
        state, so a second bind raises — pass an engine *name* (or a
        fresh instance) per simulator instead.  Subclasses extend it
        with their own derived state.
        """
        if getattr(self, "_bound", False):
            raise ValueError(
                f"{type(self).__name__} is already bound to a run; "
                "engines are single-run objects — pass an engine name "
                "or a fresh instance to each Simulator"
            )
        self._bound = True
        self.protocol = protocol
        self.network = network
        self.config = config
        self.specs_of = specs_of
        self._actions = protocol.actions()
        # Pooled contexts (reset per use) instead of one allocation per
        # guard check or activation.  Guard probes and step execution
        # keep separate pools, so a lazy flush triggered mid-step can
        # never clobber the read tracking of the step's contexts.
        self._probe_pool = StepContextPool(network, config, specs_of)
        #: the execution contexts of :meth:`execute_step`; silence walks
        #: borrow them between steps
        self.exec_pool = StepContextPool(network, config, specs_of)
        #: canonical position of each process — every engine presents
        #: the enabled pool in network-process order so that daemons
        #: drawing from it behave identically across engines (the
        #: network's own cached map).
        self._order: Dict[ProcessId, int] = network.process_index()
        return self

    def release(self) -> None:
        """Detach from the run before the simulator replaces this
        engine along with γ or the network (no-op: the scalar engines
        keep nothing outside the configuration's rows)."""

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def execute_step(self, selected, rng) -> ScalarOutcome:
        """Execute the step ``(γi, si, γi+1)`` for the selection ``si``:
        each selected process runs its first enabled action against γi
        in its pooled context, then all writes land in γi+1 together.
        ``rng`` serves randomized actions.  Notes the step."""
        executions = []
        append = executions.append
        actions = self._actions
        # Inlined StepContextPool.acquire / StepContext.reset: two
        # function calls per activation are measurable at 10k
        # activations per synchronous step.
        pool = self.exec_pool
        ctxs = pool._ctxs
        acquire = pool.acquire
        for p in selected:
            ctx = ctxs.get(p)
            if ctx is None:
                ctx = acquire(p, rng)
            else:
                ctx._rng = rng
                ctx._stamp += 1
                ctx.ports_read.clear()
                ctx.bits_read = 0.0
                ctx.writes.clear()
                ctx.used_randomness = False
            action = first_enabled(actions, ctx)
            if action is not None:
                action.effect(ctx)
            append((p, ctx, action))
        # Only processes whose communication variables took a new value
        # can flip a neighbor's enabled-status.
        comm_changed = [
            p for p, ctx, _action in executions if ctx.flush_writes()
        ]
        self.note_step(selected, comm_changed)
        return ScalarOutcome(selected, executions)

    def materialize_rows(self) -> None:
        """Decode state the engine keeps outside the configuration's
        rows, before scalar code reads them (no-op: scalar engines
        write the rows directly)."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abstractmethod
    def enabled_view(self) -> AbstractSet[ProcessId]:
        """The current enabled set, for hot-path membership tests.

        May alias engine-internal state to avoid a per-step copy;
        callers must treat it as read-only and must not hold it across
        steps.
        """

    @abstractmethod
    def enabled_list(self) -> Tuple[ProcessId, ...]:
        """The current enabled set in canonical network-process order."""

    def silent(self) -> Optional[bool]:
        """The engine's own silence verdict for the current γ, or None
        when it has none.  :meth:`Simulator.is_silent
        <repro.core.simulator.Simulator.is_silent>` falls back to the
        exact scalar checker on None; the scalar engines always answer
        None."""
        return None

    def legitimate(self) -> Optional[bool]:
        """The engine's own verdict on the protocol's legitimacy
        predicate for the current γ, or None when it has none.
        :meth:`Simulator.is_legitimate
        <repro.core.simulator.Simulator.is_legitimate>` falls back to
        ``Protocol.is_legitimate`` over the rows on None; the scalar
        engines always answer None."""
        return None

    # ------------------------------------------------------------------
    # Change notifications
    # ------------------------------------------------------------------
    def note_step(
        self,
        activated: Iterable[ProcessId],
        comm_changed: Iterable[ProcessId],
    ) -> None:
        """Record one applied step.

        ``activated`` is the scheduler's selection; ``comm_changed`` is
        the subset whose communication variables hold a new value in
        γi+1.  Must be O(|activated| + |comm_changed|·Δ) or better.
        By default the activated processes are invalidated: their rows
        are the ones the step wrote.
        """
        self.invalidate(activated)

    @abstractmethod
    def invalidate(self, processes: Optional[Iterable[ProcessId]] = None) -> None:
        """Distrust the cached status of ``processes`` (None = all).

        Required after any out-of-band configuration write — fault
        injection, adversarial resets, direct ``config.set`` calls.
        """

    # ------------------------------------------------------------------
    # Shared guard evaluation
    # ------------------------------------------------------------------
    def _is_enabled(self, p: ProcessId) -> bool:
        """One from-scratch guard evaluation for ``p`` against γ."""
        ctx = self._probe_pool.acquire(p, rng=None)
        return first_enabled(self._actions, ctx) is not None

    def _scan(self) -> Set[ProcessId]:
        """A full from-scratch scan of every process."""
        return {p for p in self.network.processes if self._is_enabled(p)}

    def _check_scan(self, enabled: AbstractSet[ProcessId]) -> None:
        """Raise :class:`~repro.core.exceptions.ModelError` unless the
        maintained ``enabled`` set equals a full scan (the audit of the
        ``debug`` and ``batch-debug`` engines)."""
        fresh = self._scan()
        if fresh != enabled:
            missing = sorted(map(repr, fresh - enabled))
            extra = sorted(map(repr, enabled - fresh))
            raise ModelError(
                f"{self.name} enabled-set diverged from full scan "
                f"(missing: {missing}, stale: {extra}); the configuration "
                "was mutated without invalidate()"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ScanEngine(EnabledSetEngine):
    """The full-scan fallback: every query rescans every guard.

    Correct by construction and allocation-free between queries; use it
    as the reference implementation, on tiny networks, or to bisect a
    suspected incremental-engine bug (see also :class:`CrossCheckEngine`
    which automates that comparison).
    """

    name = "scan"

    def bind(self, protocol, network, config, specs_of) -> "ScanEngine":
        super().bind(protocol, network, config, specs_of)
        self._stale = True
        self._set: FrozenSet[ProcessId] = frozenset()
        self._list: Tuple[ProcessId, ...] = ()
        return self

    def _refresh(self) -> None:
        if self._stale:
            enabled = self._scan()
            self._set = frozenset(enabled)
            self._list = tuple(
                p for p in self.network.processes if p in enabled
            )
            self._stale = False

    def enabled_view(self) -> FrozenSet[ProcessId]:
        self._refresh()
        return self._set

    def enabled_list(self) -> Tuple[ProcessId, ...]:
        self._refresh()
        return self._list

    def invalidate(self, processes=None) -> None:
        self._stale = True


class IncrementalEngine(EnabledSetEngine):
    """Dirty-set maintenance of the enabled set.

    On bind the engine distrusts the whole enabled set, so the first
    query performs one full scan.  After a step, exactly ``activated ∪
    neighbors(comm_changed)`` is marked dirty; a query re-evaluates
    only dirty guards.

    When the accumulated dirty-set covers the whole network (e.g. under
    the synchronous daemon, or after ``invalidate(None)``) the engine
    degrades gracefully to a single full scan at the next query and the
    per-step bookkeeping short-circuits to O(1).
    """

    name = "incremental"

    def bind(self, protocol, network, config, specs_of) -> "IncrementalEngine":
        super().bind(protocol, network, config, specs_of)
        self._n = network.n
        self._dirty: Set[ProcessId] = set()
        self._stale_all = True
        self._enabled: Set[ProcessId] = set()
        self._list: Optional[Tuple[ProcessId, ...]] = None
        return self

    # ------------------------------------------------------------------
    def note_step(self, activated, comm_changed) -> None:
        if self._stale_all:
            return
        dirty = self._dirty
        dirty.update(activated)
        neighbors = self.network.neighbors
        for q in comm_changed:
            dirty.update(neighbors(q))
        if len(dirty) >= self._n:
            self._stale_all = True
            dirty.clear()

    def invalidate(self, processes=None) -> None:
        if processes is None:
            self._stale_all = True
            self._dirty.clear()
        else:
            # Treat the out-of-band write like a step that both
            # activated the victims and changed their comm variables.
            touched = list(processes)
            self.note_step(touched, touched)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if self._stale_all:
            self._enabled = self._scan()
            self._stale_all = False
            self._dirty.clear()
            self._list = None
            if TELEMETRY.enabled:
                TELEMETRY.counter("engine.incremental.rescans").inc()
                TELEMETRY.gauge("engine.enabled_set").set(len(self._enabled))
            return
        if not self._dirty:
            return
        # Telemetry stays out of the early-return paths above; a flush
        # with work to do pays one enabled-check (plus clock reads only
        # while the registry is on).
        obs_on = TELEMETRY.enabled
        t0 = perf_counter() if obs_on else 0.0
        dirty_count = len(self._dirty)
        enabled = self._enabled
        changed = False
        for p in self._dirty:
            if self._is_enabled(p):
                if p not in enabled:
                    enabled.add(p)
                    changed = True
            elif p in enabled:
                enabled.discard(p)
                changed = True
        self._dirty.clear()
        if changed:
            self._list = None
        if obs_on:
            TELEMETRY.counter(
                "engine.incremental.reclassified").inc(dirty_count)
            TELEMETRY.histogram("engine.flush_s").observe(
                perf_counter() - t0)
            TELEMETRY.gauge("engine.enabled_set").set(len(enabled))

    def enabled_view(self) -> AbstractSet[ProcessId]:
        self._flush()
        return self._enabled

    def enabled_list(self) -> Tuple[ProcessId, ...]:
        self._flush()
        if self._list is None:
            self._list = tuple(
                sorted(self._enabled, key=self._order.__getitem__)
            )
        return self._list


class CrossCheckEngine(IncrementalEngine):
    """Incremental engine that audits itself against a full scan.

    Every flush additionally rescans all guards and raises
    :class:`~repro.core.exceptions.ModelError` if the incrementally
    maintained set disagrees — the debugging mode that catches a
    configuration written behind the engine's back.
    """

    name = "debug"

    def _flush(self) -> None:
        super()._flush()
        self._check_scan(self._enabled)


_ENGINES = {
    cls.name: cls for cls in (IncrementalEngine, ScanEngine, CrossCheckEngine)
}


def make_engine(engine: "str | EnabledSetEngine" = "incremental") -> EnabledSetEngine:
    """Engine factory: a name from :data:`ENGINE_NAMES` or an instance.

    Passing an already-constructed (unbound) engine through is allowed
    so callers can supply custom implementations.
    """
    if isinstance(engine, EnabledSetEngine):
        return engine
    if engine in ENGINE_NAMES and engine not in _ENGINES:
        # Deferred: batchengine imports this module for the ABC.
        from .batchengine import BatchCrossCheckEngine, BatchEngine

        _ENGINES[BatchEngine.name] = BatchEngine
        _ENGINES[BatchCrossCheckEngine.name] = BatchCrossCheckEngine
    try:
        cls = _ENGINES[engine]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine {engine!r}; known: {sorted(ENGINE_NAMES)}"
        ) from None
    return cls()
