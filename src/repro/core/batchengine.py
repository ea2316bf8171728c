"""The columnar engine: whole-column guard evaluation.

:class:`BatchEngine` (``engine="batch-resident"``) is an
:class:`~repro.core.engine.EnabledSetEngine` that additionally executes
*entire steps* over columnar state — the synchronous daemons
activate most of the network every step, so evaluating guards
one pooled context at a time leaves an order of magnitude on the
table.  Like every engine it executes the step the simulator hands it;
:meth:`BatchEngine.execute_step`

1. gathers the step's reads from a :class:`~repro.core.columns.ColumnStore`
   (γi — all gathers happen before any write),
2. classifies every selected process through the protocol's registered
   :class:`BatchKernel` (action code, port read, bits charged — the
   exact short-circuit semantics of the scalar guards),
3. writes the chosen actions into the columns, which *are* the live
   state: rows are decoded only at observation boundaries, through the
   sync hook the engine installs on the
   :class:`~repro.core.state.Configuration`, so traces, silence
   detection, predicates and fault injectors see identical state, and
4. returns a :class:`BatchOutcome` that folds the scalar engine's
   measures byte for byte and builds its ``full``-tier step record.

On eligible runs the fused :meth:`BatchEngine.run_steps` loop goes
further and executes whole plain-synchronous-daemon step sequences —
classification, writes, round tracking, metrics folds — at any metrics
tier, without returning to Python rows in between.  Silence and
legitimacy are each decided in one place, :meth:`Simulator.is_silent
<repro.core.simulator.Simulator.is_silent>` and
:meth:`Simulator.is_legitimate
<repro.core.simulator.Simulator.is_legitimate>`, which take the
kernel's columnar verdicts through :meth:`BatchEngine.silent` and
:meth:`BatchEngine.legitimate` when there are some.

Kernels are registered per *protocol class* with
:func:`register_batch_kernel` next to the scalar implementations
(:mod:`repro.protocols.coloring` / ``mis`` / ``matching``) and index
the store's NumPy columns directly.  The choice between columns and
scalar is made once, at :meth:`BatchEngine.bind`: a protocol without
a kernel, an interpreter without NumPy, or state the column store
cannot mirror (mixed layouts, exotic domains) binds a fresh
:attr:`BatchEngine.fallback_cls` engine and returns it, so the run is
executed — and ``sim.engine`` named — by that scalar engine, with
identical results, and ``engine="batch-resident"`` is always safe to
request.  A bound engine is never rebound: the simulator releases it
(:meth:`BatchEngine.release`) and binds a fresh one when γ or the
network is replaced.

:class:`BatchCrossCheckEngine` (``engine="batch-debug"``) is the audit
mode, the columnar analogue of
:class:`~repro.core.engine.CrossCheckEngine`: every columnar step,
per-step or fused, re-evaluates each selected process through the
scalar guard probes and raises
:class:`~repro.core.exceptions.ModelError` on any divergence in action
choice, ports read, or bits charged; every columnar silence verdict is
checked against the exact scalar checker and every columnar legitimacy
verdict against ``Protocol.is_legitimate``; and without a kernel it
binds :class:`~repro.core.engine.CrossCheckEngine` instead.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple, Type

from ..obs.registry import TELEMETRY
from .actions import first_enabled
from .columns import ColumnStore
from .engine import CrossCheckEngine, EnabledSetEngine, IncrementalEngine
from .exceptions import ModelError
from .metrics import StepRecord
from .silence import is_silent

#: fused-span length buckets (steps per ``run_steps`` invocation).
_SPAN_BUCKETS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)

ProcessId = Hashable

#: Vectorized kernels per protocol class (exact class match: a subclass
#: overriding guards must register its own kernel or its runs bind a
#: scalar engine).
BATCH_KERNELS: Dict[Type, Callable] = {}


def register_batch_kernel(protocol_cls: Type):
    """Class decorator registering a :class:`BatchKernel` for one
    protocol class, alongside its scalar guard implementation."""

    def decorate(kernel_cls):
        BATCH_KERNELS[protocol_cls] = kernel_cls
        return kernel_cls

    return decorate


class BatchKernel:
    """Vectorized guard/action evaluation for one protocol.

    Contract — for any ``int64`` index array over the store's canonical
    order, :meth:`classify` must return arrays holding, per process,
    exactly what the scalar priority cascade would have produced
    against the same γ:

    * ``codes`` — the index of the fired action in :attr:`rule_names`
      (``-1`` when every guard is false: selected-but-disabled);
    * ``ports`` — the single neighbor port read while cascading
      (``0`` when no neighbor was consulted), matching
      ``StepContext.ports_read`` for these 1-efficient protocols;
    * ``bits`` — the bits charged, accumulated register by register in
      the scalar cascade's read order (float addition order matters for
      byte-identical metrics);
    * ``aux`` — intermediate columns :meth:`plan_writes` reuses.

    :meth:`plan_writes` writes the classified step into the store.  Any
    randomness must draw from ``rng`` once per affected process in
    selection order — identical to the scalar effects' draw sequence.
    """

    #: action names in protocol priority order (code -> name)
    rule_names: Tuple[str, ...] = ()

    def __init__(self, protocol, store: ColumnStore):
        self.protocol = protocol
        self.store = store

    def classify(self, idx):
        """Vectorized ``first_enabled`` over the processes in ``idx``.

        Returns ``(codes, ports, bits, aux)``: per-process rule codes
        (indices into :attr:`rule_names`, ``-1`` = disabled), the port
        each process read (``0`` = none; the paper's protocols read at
        most one neighbor per guard evaluation), the exact bits charged
        for those reads (scalar read-charging order preserved), and an
        opaque ``aux`` value handed back to :meth:`plan_writes`.
        """
        raise NotImplementedError

    def plan_writes(self, idx, codes, aux, rng):
        """Write γi+1 of the classified processes in ``idx`` into the
        store: sparse ``store.write`` batches, or a whole-column
        ``store.write_col`` where every process writes a slot and
        ``idx is store.all_idx`` (the fused driver's selection).
        Randomized rules must draw from ``rng`` in selection order so
        the stream matches the scalar loop draw for draw.
        """
        raise NotImplementedError

    # -- optional columnar verdicts -------------------------------------
    #: Kernels may additionally provide
    #:
    #: ``silent_cols()`` — the silence verdict straight from the
    #: columns (must agree with the exact scalar
    #: :func:`~repro.core.silence.is_silent` on every configuration),
    #: served through :meth:`BatchEngine.silent`; without it the
    #: simulator walks the rows.
    #:
    #: ``legitimate_cols()`` — the protocol's legitimacy predicate
    #: straight from the columns (must agree with
    #: ``Protocol.is_legitimate`` on every configuration), served
    #: through :meth:`BatchEngine.legitimate`; without it the
    #: simulator evaluates the predicate over the rows.


class BatchOutcome:
    """One columnar step's classification, pre-aggregation."""

    __slots__ = ("engine", "selected", "idx", "codes", "ports", "bits")

    def __init__(self, engine, selected, idx, codes, ports, bits):
        self.engine = engine
        self.selected = selected
        self.idx = idx  # canonical indices of ``selected``
        self.codes = codes
        self.ports = ports
        self.bits = bits

    def record(self, index: int, closed: bool) -> StepRecord:
        """The exact :class:`StepRecord` the scalar loop would build."""
        names = self.engine._kernel.rule_names
        executed, ports_read, bits_read = {}, {}, {}
        empty = frozenset()
        for p, code, port, b in zip(self.selected, self.codes.tolist(),
                                    self.ports.tolist(), self.bits.tolist()):
            executed[p] = names[code] if code >= 0 else None
            ports_read[p] = frozenset((port,)) if port else empty
            bits_read[p] = b
        return StepRecord(index, frozenset(self.selected), executed,
                          ports_read, bits_read, closed)

    def fold(self, collector, closed: bool) -> None:
        """Fold the step into ``collector`` (every measured tier)."""
        self.engine.fold_aggregate(self, collector, closed)


class BatchEngine(EnabledSetEngine):
    """Columnar enabled-set engine with whole-step batch execution.

    ``engine="batch-resident"``: the columns are the live state.  Step
    writes stay columnar and the touched rows go stale-by-design until
    :meth:`materialize_rows` decodes them; the bound
    :class:`~repro.core.state.Configuration` gets a sync hook, so *any*
    row observation — traces, predicates, fault injectors, direct
    ``config.get``/``state_of`` reads — transparently materializes
    first and can never see stale rows; silence walks, which read
    through pooled contexts, materialize explicitly.  The simulator's
    ``run_steps``/``run_until_silent``/``run_rounds`` delegate to the
    fused :meth:`run_steps` loop under the plain synchronous daemon.
    The scalar engines remain the oracles.
    """

    name = "batch-resident"
    #: the scalar engine :meth:`bind` hands the run to when no kernel or
    #: column store applies
    fallback_cls: Type[EnabledSetEngine] = IncrementalEngine
    #: a bound batch engine always runs whole steps over columns
    batch_active = True

    _enabled_cache: Optional[frozenset] = None
    _enabled_list_cache: Optional[Tuple[ProcessId, ...]] = None
    _stale_all = False
    #: the metrics fold's activation counts and per-port seen flags,
    #: built on the first fold
    _pending_act = None
    _seen = None
    _suffix_seen = None
    _suffix_epoch = None
    #: whether ``fold_aggregate`` left counts for the next flush
    _agg_dirty = False
    _agg_collector = None

    def bind(self, protocol, network, config, specs_of) -> EnabledSetEngine:
        """Build the run's column store and kernel and return this
        engine, or return a freshly bound :attr:`fallback_cls` engine
        when the protocol has no registered kernel or the state cannot
        be mirrored into columns (this engine then stays bound, unused)."""
        super().bind(protocol, network, config, specs_of)
        kernel_cls = BATCH_KERNELS.get(type(protocol))
        store = (
            ColumnStore.try_build(network, config, specs_of)
            if kernel_cls is not None
            else None
        )
        if store is None:
            return self.fallback_cls().bind(protocol, network, config,
                                            specs_of)
        self._store = store
        self._kernel = kernel_cls(protocol, store)
        self._pull_pending = set()
        self._unflushed_reads = []
        config.install_sync(self.materialize_rows)
        return self

    def release(self) -> None:
        """Hand the configuration back: drain pending metrics, decode
        pending column writes into the outgoing configuration (a caller
        may still hold and read it), then remove its sync hook."""
        self.flush_pending_metrics()
        self._store.materialize()
        self.config.install_sync(None)

    # ------------------------------------------------------------------
    # Column freshness
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        # Decode the columns' own pending writes before re-reading rows:
        # an invalidation no row write preceded (a bare
        # ``Simulator.invalidate_enabled()``) then re-reads what the
        # columns hold instead of tripping the store's dirty guard.
        if self._stale_all:
            self._store.materialize()
            self._store.pull_all()
            self._stale_all = False
            self._pull_pending.clear()
        elif self._pull_pending:
            self._store.materialize()
            self._store.pull(sorted(self._pull_pending))
            self._pull_pending.clear()

    def _drop_enabled_cache(self) -> None:
        self._enabled_cache = None
        self._enabled_list_cache = None

    # ------------------------------------------------------------------
    # EnabledSetEngine contract
    # ------------------------------------------------------------------
    def _compute_enabled(self):
        if self._enabled_list_cache is None:
            self._refresh()
            store = self._store
            codes, _ports, _bits, _aux = self._kernel.classify(store.all_idx)
            pids = store.pids
            ids = [pids[i] for i in store.np.flatnonzero(codes != -1).tolist()]
            self._enabled_list_cache = tuple(ids)
            self._enabled_cache = frozenset(ids)
        return self._enabled_cache, self._enabled_list_cache

    def enabled_view(self):
        return self._compute_enabled()[0]

    def enabled_list(self):
        return self._compute_enabled()[1]

    def invalidate(self, processes: Optional[Iterable[ProcessId]] = None) -> None:
        if processes is None:
            self._stale_all = True
            self._pull_pending.clear()
        elif not self._stale_all:
            self._pull_pending.update(
                map(self._store.pindex.__getitem__, processes))
        self._drop_enabled_cache()

    def silent(self) -> Optional[bool]:
        """The kernel's columnar silence verdict (``silent_cols``), or
        None for kernels without one."""
        return self._kernel_verdict("silent_cols")

    def legitimate(self) -> Optional[bool]:
        """The kernel's columnar legitimacy verdict
        (``legitimate_cols``), or None for kernels without one."""
        return self._kernel_verdict("legitimate_cols")

    def _kernel_verdict(self, name: str) -> Optional[bool]:
        check = getattr(self._kernel, name, None)
        if check is None:
            return None
        self._refresh()
        return check()

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def execute_step(self, selected, rng):
        """Run one whole step over columns."""
        self._refresh()
        store = self._store
        np = store.np
        idx = np.fromiter(map(store.pindex.__getitem__, selected),
                          dtype=np.int64, count=len(selected))
        obs_on = TELEMETRY.enabled
        t0 = perf_counter() if obs_on else 0.0
        codes, ports, bits, aux = self._kernel.classify(idx)
        t1 = perf_counter() if obs_on else 0.0
        self._audit_step(idx, codes, ports, bits)
        self._kernel.plan_writes(idx, codes, aux, rng)
        self._drop_enabled_cache()
        if obs_on:
            TELEMETRY.histogram("engine.classify_s").observe(t1 - t0)
            TELEMETRY.histogram("engine.plan_s").observe(perf_counter() - t1)
        return BatchOutcome(self, selected, idx, codes, ports, bits)

    def _audit_step(self, idx, codes, ports, bits) -> None:
        """Hook for :class:`BatchCrossCheckEngine`, called with every
        classification a step acts on (no-op here)."""

    # ------------------------------------------------------------------
    # Column-resident execution
    # ------------------------------------------------------------------
    def materialize_rows(self) -> None:
        """Decode pending column writes into the live rows.

        The observation boundary: installed as the configuration's sync
        hook and called explicitly before any scalar code path that
        bypasses it (pooled contexts cache raw row references).
        """
        self._store.materialize()

    def run_steps(self, sim, max_steps=None, stop_on_silence=False):
        """Fused resident driver: run whole synchronous steps in columns.

        Executes plain synchronous-daemon steps — every step activates
        the whole network and closes exactly one round — entirely in
        columnar space: classification, writes, round accounting and
        metrics folds (unless the tier is ``off``), returning to Python
        rows only at the horizon (``max_steps``, which is also the round
        budget) or at silence (``stop_on_silence``, asked of
        :meth:`Simulator.is_silent` after every step).  Byte-identical
        to driving :meth:`Simulator.step` in a loop: same RNG draw
        sequence, same float fold order, same round closures, same
        silence boundaries.

        Returns ``(steps_executed, silent)``; ``silent`` is ``None``
        unless ``stop_on_silence`` was requested, in which case it
        reports whether silence was detected within the budget.
        """
        store = self._store
        kernel = self._kernel
        self._refresh()
        all_idx = store.all_idx
        n = store.n
        rng = sim.rngs.protocol if sim.protocol.randomized else None
        collector = sim._metrics if sim.metrics_tier != "off" else None
        audit = self._audit_step
        # Telemetry is sampled at the span boundary, never inside the
        # fused loop: one enabled-check + one clock read per
        # ``run_steps`` call keeps the disabled path inside the ≤2%
        # resident-throughput floor.
        obs_on = TELEMETRY.enabled
        span_t0 = perf_counter() if obs_on else 0.0

        steps = 0
        silent = False if stop_on_silence else None
        while max_steps is None or steps < max_steps:
            codes, ports, bits, aux = kernel.classify(all_idx)
            audit(all_idx, codes, ports, bits)
            kernel.plan_writes(all_idx, codes, aux, rng)
            steps += 1
            if collector is not None:
                self.fold_aggregate(
                    BatchOutcome(self, None, all_idx, codes, ports, bits),
                    collector, True,
                )
            if stop_on_silence and sim.is_silent():
                silent = True
                break
        sim.round_tracker.advance_rounds(steps)
        self._drop_enabled_cache()
        sim.step_index += steps
        if obs_on:
            activations = steps * n  # full-network activation per step
            TELEMETRY.counter("sim.steps").inc(steps)
            TELEMETRY.counter("sim.activations").inc(activations)
            TELEMETRY.histogram(
                "engine.fused_span_steps", buckets=_SPAN_BUCKETS
            ).observe(steps)
            TELEMETRY.record_span(
                "engine.run_steps", perf_counter() - span_t0,
                n=n, steps=steps, activations=activations, silent=silent,
            )
        return steps, silent

    # ------------------------------------------------------------------
    # Metrics reproduction
    # ------------------------------------------------------------------
    def fold_aggregate(self, outcome: BatchOutcome, collector, closed: bool) -> None:
        """Fold one batch step into the collector, reproducing
        :meth:`MetricsCollector.record_lean` exactly.

        Per-process activation counts are accumulated in an engine-side
        vector and drained into the collector's dict only when one of
        its per-process dicts is read (the engine registers
        :meth:`_drain_per_process` with the collector) — the dict
        update is the one per-step cost that would otherwise erase the
        batch win.  A step that activates the whole network (selections
        are sets, so ``n`` indices are every process once) adds 1 to
        every count.  Read-set folds go through one seen flag per port
        so only *newly observed* (process, port) pairs are kept for that
        drain; ``total_bits`` is summed in selection order because float
        addition order is observable.
        """
        collector.steps += 1
        if closed:
            collector.rounds += 1
        store = self._store
        np = store.np
        if self._pending_act is None:
            self._pending_act = np.zeros(store.n, dtype=np.int64)
        if len(outcome.idx) == store.n:
            self._pending_act += 1
        else:
            self._pending_act[outcome.idx] += 1
        self._agg_dirty = True
        if self._agg_collector is not collector:
            collector.defer_per_process(self._drain_per_process)
            self._agg_collector = collector

        has_read = outcome.ports != 0
        count = int(has_read.sum())
        if count:
            collector.total_reads += count
            if collector.max_reads_in_step < 1:
                # These kernels read at most one port per step; the
                # scalar fold's per-process max over larger read sets
                # cannot occur here.
                collector.max_reads_in_step = 1
            if count == len(has_read):
                rows, ports = outcome.idx, outcome.ports
            else:
                rows, ports = outcome.idx[has_read], outcome.ports[has_read]
            pos = store.port_pos(rows, ports)
            self._fold_read_sets(
                None,
                self._ensure_seen("_seen"),
                rows, ports, pos,
                defer_to=self._unflushed_reads,
            )
            if collector.suffix_read_sets is not None:
                if self._suffix_epoch != collector.suffix_start_step:
                    self._suffix_epoch = collector.suffix_start_step
                    self._suffix_seen = None
                self._fold_read_sets(
                    collector.suffix_read_sets,
                    self._ensure_seen("_suffix_seen"),
                    rows, ports, pos,
                )
        bits = outcome.bits
        if len(bits):
            max_bits = float(bits.max())
            if max_bits > collector.max_bits_in_step:
                collector.max_bits_in_step = max_bits
            # ``np.add.accumulate`` is a strict left-to-right chain
            # (unlike ``np.add.reduce``, which pairs up), so seeding the
            # running total as element 0 reproduces the scalar loop's
            # sequential float fold bit for bit.
            chain = np.empty(len(bits) + 1, dtype=np.float64)
            chain[0] = collector.total_bits
            chain[1:] = bits
            collector.total_bits = float(np.add.accumulate(chain)[-1])

    def _ensure_seen(self, attr):
        seen = getattr(self, attr)
        if seen is None:
            store = self._store
            seen = store.np.zeros(len(store.flat), dtype=bool)
            setattr(self, attr, seen)
        return seen

    def _fold_read_sets(self, read_sets, seen, rows, ports, pos,
                        defer_to=None) -> None:
        """Fold newly observed (process, port) reads into ``read_sets``.

        ``seen`` holds one flag per port, indexed like the store's
        ``flat``: ``pos`` is where port ``ports[j]`` of process
        ``rows[j]`` sits (:meth:`ColumnStore.port_pos`).  With
        ``defer_to`` (the main fold), the per-process set
        materialization is postponed: the new (process, port) pairs are
        stashed and drained by :meth:`_drain_per_process` when the
        collector's read sets are read.  Each pair is recorded exactly
        once (the seen flags dedup at fold time), so the drain's set
        inserts are order-insensitive and byte-equivalent to the eager
        fold.
        """
        hit = seen[pos]
        if hit.all():
            return
        new = ~hit
        seen[pos[new]] = True
        new_rows = rows[new]
        new_ports = ports[new]
        if defer_to is not None:
            defer_to.append((new_rows, new_ports))
            return
        pids = self._store.pids
        for i, port in zip(new_rows.tolist(), new_ports.tolist()):
            read_sets[pids[i]].add(port)

    def flush_pending_metrics(self) -> None:
        """Drain accumulated per-process counts into the collector now
        (before the engine is released)."""
        if self._agg_dirty:
            self._agg_collector._per_process()

    def _drain_per_process(self, activations, read_sets) -> None:
        """The collector's drain: fold the pending activation counts and
        newly read (process, port) pairs into its per-process dicts."""
        if not self._agg_dirty:
            return
        self._agg_dirty = False
        pend = self._pending_act
        pids = self._store.pids
        nz = self._store.np.nonzero(pend)[0]
        for i, c in zip(nz.tolist(), pend[nz].tolist()):
            activations[pids[i]] += c
        pend[nz] = 0
        pending_reads = self._unflushed_reads
        if pending_reads:
            self._unflushed_reads = []
            for rows, ports in pending_reads:
                for i, port in zip(rows.tolist(), ports.tolist()):
                    read_sets[pids[i]].add(port)

    # ------------------------------------------------------------------
    # Introspection (property tests, debugging)
    # ------------------------------------------------------------------
    def classify_all(self) -> Dict[ProcessId, Optional[str]]:
        """Per-process fired-rule map over the whole network (None =
        disabled), straight from the kernel — the scalar oracle is one
        ``first_enabled`` probe per process."""
        self._refresh()
        store = self._store
        codes, _ports, _bits, _aux = self._kernel.classify(store.all_idx)
        names = self._kernel.rule_names
        return {
            p: (names[code] if code >= 0 else None)
            for p, code in zip(store.pids, codes.tolist())
        }


class BatchCrossCheckEngine(BatchEngine):
    """Batch engine that audits every step against the scalar guards.

    The batch analogue of :class:`~repro.core.engine.CrossCheckEngine`:
    each selected process is re-evaluated through a pooled scalar probe
    context and any disagreement on the fired action, the ports read,
    or the bits charged raises
    :class:`~repro.core.exceptions.ModelError` — on the per-step path
    and inside fused spans alike.  Enabled-set queries are audited
    against a full scalar scan, columnar silence verdicts against the
    exact scalar checker, and columnar legitimacy verdicts against the
    protocol's predicate.  Without a kernel :meth:`bind` hands the run
    to the self-auditing :class:`~repro.core.engine.CrossCheckEngine`.
    Strictly a debugging mode — every batch step pays the full scalar
    cost on top.
    """

    name = "batch-debug"
    fallback_cls = CrossCheckEngine

    def _audit_step(self, idx, codes, ports, bits) -> None:
        # Probe contexts cache raw rows, bypassing the sync hook.
        self.materialize_rows()
        pids = self._store.pids
        names = self._kernel.rule_names
        actions = self._actions
        pool = self._probe_pool
        for i, code, port, b in zip(idx.tolist(), codes.tolist(),
                                    ports.tolist(), bits.tolist()):
            p = pids[i]
            ctx = pool.acquire(p, rng=None)
            action = first_enabled(actions, ctx)
            expect_name = action.name if action is not None else None
            got_name = names[code] if code >= 0 else None
            expect_ports = set(ctx.ports_read)
            got_ports = {port} if port else set()
            if (
                got_name != expect_name
                or got_ports != expect_ports
                or b != ctx.bits_read
            ):
                raise ModelError(
                    f"batch kernel diverged from scalar guards at {p!r}: "
                    f"action {got_name!r} vs {expect_name!r}, ports "
                    f"{sorted(got_ports)} vs {sorted(expect_ports)}, bits "
                    f"{b!r} vs {ctx.bits_read!r}"
                )

    def silent(self) -> Optional[bool]:
        verdict = super().silent()
        if verdict is not None:
            # The scalar walk's pooled contexts read raw rows.
            self.materialize_rows()
            expect = is_silent(self.protocol, self.network, self.config,
                               specs_of=self.specs_of, pool=self._probe_pool)
            if verdict != expect:
                raise ModelError(
                    f"batch kernel silence verdict {verdict} diverged "
                    f"from the scalar checker ({expect})"
                )
        return verdict

    def legitimate(self) -> Optional[bool]:
        verdict = super().legitimate()
        if verdict is not None:
            self.materialize_rows()
            expect = self.protocol.is_legitimate(self.network, self.config)
            if verdict != expect:
                raise ModelError(
                    f"batch kernel legitimacy verdict {verdict} diverged "
                    f"from the scalar predicate ({expect})"
                )
        return verdict

    def _compute_enabled(self):
        enabled = super()._compute_enabled()
        self.materialize_rows()  # the scan's probe contexts read raw rows
        self._check_scan(enabled[0])
        return enabled
