"""The columnar engine: byte-identity with the scalar step loop.

``engine="batch-resident"`` evaluates guards over whole columns and
keeps its writes there — rows decode only when something observes them
(a trace record, a direct configuration read, a metrics flush, a
scenario effect, a silence witness).  Observational invisibility is
therefore the whole contract: every suite here compares the engine
against the scalar oracles byte for byte *through* those observation
boundaries — traces, final configurations, metrics (both tiers),
per-step enabled sets, mid-run reads forcing materialization, scenario
corruption and churn store rebuilds.  It also pins the fallback ladder
(kernel-less protocols, an interpreter without NumPy), the refusal of
scripted selections that repeat a pid, the fused loop's eligibility
rules, and
the self-auditing ``batch-debug`` engine on both the per-step and the
fused path, on its silence and legitimacy verdicts, and on its scalar
fallback.
"""

import random
import sys

import pytest

from repro.api import (
    ExperimentSpec,
    protocol_registry,
    scheduler_registry,
    topology_registry,
)
from repro.api.spec import drive_simulator
from repro.core import (
    BatchCrossCheckEngine,
    BatchEngine,
    CentralScheduler,
    Configuration,
    CrossCheckEngine,
    IncrementalEngine,
    ModelError,
    Simulator,
    TraceRecorder,
)
from repro.core.actions import GuardedAction
from repro.core.columns import ColumnStore
from repro.core.exceptions import ConvergenceError
from repro.core.protocol import Protocol
from repro.core.scheduler import FixedSequenceScheduler
from repro.core.variables import BOOL, comm
from repro.protocols.coloring import ColoringBatchKernel, ColoringProtocol
from repro.protocols.matching import MatchingBatchKernel
from repro.protocols.mis import MISBatchKernel
from repro.scenarios import build_scenario

PROTOCOLS = ("coloring", "mis", "matching")
KERNELS = {"coloring": ColoringBatchKernel, "mis": MISBatchKernel,
           "matching": MatchingBatchKernel}
#: synchronous daemon and maximal (greedy) daemon — the two the columnar
#: path (and its fused loop) is designed for; the equivalence must
#: hold for any daemon.
SCHEDULERS = (
    ("synchronous", {}),
    ("synchronous", {"enabled_only": True}),
)
SEEDS = (0, 3, 7, 11, 19)
TOPOLOGY = ("gnp", {"n": 14, "p": 0.3, "seed": 2})


def build_sim(protocol, scheduler=("synchronous", {}), seed=0,
              engine="incremental", topology=TOPOLOGY, scenario=None,
              **kwargs):
    topo_name, topo_params = topology
    sched_name, sched_params = scheduler
    net = topology_registry.build(topo_name, **topo_params)
    return Simulator(
        protocol_registry.build(protocol, net),
        net,
        scheduler=scheduler_registry.build(sched_name, net, **sched_params),
        seed=seed,
        engine=engine,
        scenario=scenario,
        protocol_factory=lambda n: protocol_registry.build(protocol, n),
        **kwargs,
    )


def run_recorded(protocol, scheduler, seed, engine, steps=40, **kwargs):
    sim = build_sim(protocol, scheduler, seed, engine, **kwargs)
    recorder = TraceRecorder(sim, seed=seed)
    recorder.run_steps(steps)
    return recorder.trace.to_jsonl(), sim


def aggregate_state(sim):
    """Everything the aggregate tier observes, plus the configuration."""
    return (
        sim.metrics.summary(),
        dict(sim.metrics.activations),
        {p: frozenset(s) for p, s in sim.metrics.read_sets.items()},
        sim.config.as_dict(),
        sim.step_index,
        sim.round_tracker.completed_rounds,
    )


# ----------------------------------------------------------------------
# Per-step path: full-tier traces stay byte-identical
# ----------------------------------------------------------------------
class TestTraceByteIdentity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_columnar_and_scalar_traces_are_byte_identical(
        self, protocol, scheduler, sched_params
    ):
        for seed in SEEDS:
            scalar, scalar_sim = run_recorded(
                protocol, (scheduler, sched_params), seed, "incremental"
            )
            columnar, columnar_sim = run_recorded(
                protocol, (scheduler, sched_params), seed, "batch-resident"
            )
            label = (protocol, scheduler, sched_params, seed)
            assert isinstance(columnar_sim.engine, BatchEngine)
            assert columnar_sim.engine.batch_active, label
            assert scalar == columnar, label
            assert scalar_sim.config == columnar_sim.config, label
            assert (scalar_sim.metrics.summary()
                    == columnar_sim.metrics.summary()), label
            assert (scalar_sim.metrics.activations
                    == columnar_sim.metrics.activations), label
            assert (scalar_sim.metrics.read_sets
                    == columnar_sim.metrics.read_sets), label

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_matches_batch_debug_audit(self, protocol):
        """The self-auditing cross-check engine is the strictest scalar
        oracle; the plain columnar engine must match it too."""
        audited, audited_sim = run_recorded(
            protocol, ("synchronous", {"enabled_only": True}), 5,
            "batch-debug",
        )
        columnar, _ = run_recorded(
            protocol, ("synchronous", {"enabled_only": True}), 5,
            "batch-resident",
        )
        assert audited_sim.engine.batch_active
        assert audited == columnar

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_per_step_aggregate_folds_agree(self, protocol):
        """``Simulator.step`` on the aggregate tier folds columnar
        outcomes exactly like the scalar contexts (``run_steps`` would
        fuse; stepping one at a time pins the per-step fold)."""
        for scheduler in SCHEDULERS:
            states = []
            for engine in ("incremental", "batch-resident"):
                sim = build_sim(protocol, scheduler, seed=5, engine=engine,
                                metrics="aggregate")
                for _ in range(60):
                    sim.step()
                states.append(aggregate_state(sim))
            assert sim.engine.batch_active
            assert states[0] == states[1], (protocol, scheduler)

    def test_scripted_repeated_pid_is_rejected(self):
        """A step's selection is a set: a script that activates a pid
        twice in one step fails when its scheduler is built — directly
        and through a spec, on the scalar and the columnar engine —
        instead of reaching either step path."""
        net = topology_registry.build("ring", n=8)
        p0, p1 = net.processes[0], net.processes[1]
        script = [[p0, p1], [p1, p1]]
        with pytest.raises(ValueError, match="step 1 activates 1 twice"):
            FixedSequenceScheduler(script)
        for engine in ("incremental", "batch-resident"):
            spec = ExperimentSpec(
                protocol="coloring", topology="ring",
                topology_params={"n": 8}, scheduler="fixed-sequence",
                scheduler_params={"sequence": script}, seed=4,
                engine=engine,
            )
            with pytest.raises(ValueError, match="twice"):
                spec.build_simulator()


# ----------------------------------------------------------------------
# Fused loop: aggregate folds, silence, round budgets
# ----------------------------------------------------------------------
class TestFusedDriver:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_fused_steps_match_scalar_aggregates(self, protocol, scheduler,
                                                 sched_params):
        for seed in SEEDS:
            scalar = build_sim(protocol, (scheduler, sched_params),
                               seed=seed, metrics="aggregate")
            scalar.run_steps(60)
            fused = build_sim(protocol, (scheduler, sched_params),
                              seed=seed, engine="batch-resident",
                              metrics="aggregate")
            # Only the plain synchronous daemon fuses; enabled_only
            # steps one Simulator.step at a time.
            expected = None if sched_params else fused.engine
            assert fused.engine.batch_active
            assert fused._fused_resident() is expected
            fused.run_steps(60)
            label = (protocol, scheduler, sched_params, seed)
            assert aggregate_state(scalar) == aggregate_state(fused), label

    def test_run_steps_actually_fuses(self, monkeypatch):
        calls = []
        fused = BatchEngine.run_steps

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("max_steps"))
            return fused(self, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "run_steps", spy)
        sim = build_sim("coloring", engine="batch-resident",
                        metrics="aggregate")
        sim.run_steps(25)
        assert calls == [25]
        assert sim.step_index == 25

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_run_loop_fuses_at_every_tier(self, protocol,
                                                monkeypatch):
        """``run_steps``, ``run_until_silent`` and ``run_rounds`` (through
        ``measure_suffix_stability``) each hand a ``full``-tier run on
        ``batch-resident`` to the fused driver once, and every measure
        — summary, activations, read sets, suffix read sets — equals
        the scalar engine's at both measured tiers."""
        calls = []
        fused = BatchEngine.run_steps

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("max_steps"))
            return fused(self, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "run_steps", spy)
        topology = ("sparse", {"n": 300, "avg_degree": 3, "seed": 5})
        observed = {}
        for engine in ("incremental", "batch-resident"):
            for tier in ("full", "aggregate"):
                calls.clear()
                sim = build_sim(protocol, seed=4, engine=engine,
                                topology=topology, metrics=tier)
                sim.run_steps(3)
                sim.run_until_silent(max_rounds=5_000)
                suffix = sim.measure_suffix_stability(extra_rounds=4)
                if engine == "batch-resident":
                    assert calls == [3, 5_000, 4], tier
                else:
                    assert calls == [], tier
                observed[engine, tier] = (
                    aggregate_state(sim), suffix,
                    sim.metrics.suffix_stable_processes(k=1),
                )
        reference = observed["incremental", "full"]
        for key, value in observed.items():
            assert value == reference, key

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_run_until_silent_reports_match(self, protocol, scheduler,
                                            sched_params):
        for seed in SEEDS:
            reports = []
            sims = []
            for engine in ("incremental", "batch-resident"):
                sim = build_sim(protocol, (scheduler, sched_params),
                                seed=seed, engine=engine,
                                metrics="aggregate")
                reports.append(sim.run_until_silent(max_rounds=500))
                sims.append(sim)
            label = (protocol, scheduler, sched_params, seed)
            assert reports[0] == reports[1], label
            assert sims[0].config == sims[1].config, label
            assert (sims[0].metrics.summary()
                    == sims[1].metrics.summary()), label

    def test_round_budget_is_respected(self):
        scalar = build_sim("coloring", seed=2, metrics="aggregate")
        fused = build_sim("coloring", seed=2, engine="batch-resident",
                          metrics="aggregate")
        with pytest.raises(ConvergenceError):
            scalar.run_until_silent(max_rounds=1)
        with pytest.raises(ConvergenceError):
            fused.run_until_silent(max_rounds=1)
        assert scalar.round_tracker.completed_rounds == 1
        assert fused.round_tracker.completed_rounds == 1
        assert scalar.config == fused.config


# ----------------------------------------------------------------------
# Observation boundaries: every decode point is byte-faithful
# ----------------------------------------------------------------------
class TestObservationBoundaries:
    def oracle_after(self, protocol, seed, steps):
        sim = build_sim(protocol, seed=seed, metrics="aggregate")
        sim.run_steps(steps)
        return sim

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_direct_config_read_materializes_mid_run(self, protocol):
        """``simulator.config[...]`` between fused spans is an
        observation boundary: the store is dirty going in, the read
        decodes through the hook, and every decoded value matches the
        scalar oracle."""
        resident = build_sim(protocol, seed=7, engine="batch-resident",
                             metrics="aggregate")
        resident.run_steps(9)
        store = resident.engine._store
        assert store.dirty, "fused steps should leave columns ahead of rows"
        oracle = self.oracle_after(protocol, 7, 9)
        for p in resident.network.processes:
            for name in ("cur",):
                assert (resident.config.get(p, name)
                        == oracle.config.get(p, name)), (protocol, p)
        assert not store.dirty
        # the run continues correctly after the boundary
        resident.run_steps(6)
        oracle.run_steps(6)
        assert resident.config.as_dict() == oracle.config.as_dict()

    def test_stale_read_regression_without_the_hook(self):
        """If materialization were skipped, direct reads would serve
        stale rows — this pins that the sync hook is what keeps the
        columnar engine observationally invisible."""
        resident = build_sim("coloring", seed=7, engine="batch-resident",
                             metrics="aggregate")
        resident.run_steps(9)
        assert resident.engine._store.dirty
        oracle = self.oracle_after("coloring", 7, 9)
        # Deliberately disconnect the hook: reads now bypass decoding.
        resident.config.install_sync(None)
        stale = [resident.config.get(p, "cur")
                 for p in resident.network.processes]
        fresh = [oracle.config.get(p, "cur")
                 for p in oracle.network.processes]
        assert stale != fresh, "stale rows should be observable bare"
        # Reconnected, the same reads decode to the oracle's values.
        resident.config.install_sync(resident.engine.materialize_rows)
        healed = [resident.config.get(p, "cur")
                  for p in resident.network.processes]
        assert healed == fresh

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fused_trial_ends_without_a_row_decode(self, protocol,
                                                   monkeypatch):
        """A fused trial's closing legitimacy verdict comes from the
        columns: the protocol's row predicate never runs.  COLORING's
        silence verdict is columnar too, so its whole trial decodes no
        row and still gives the ``incremental`` row; MIS and MATCHING
        still decode for their scalar silence walk."""
        spec = ExperimentSpec(
            protocol=protocol, topology="sparse",
            topology_params={"n": 2000, "avg_degree": 3, "seed": 11},
            scheduler="synchronous", seed=3,
            engine="batch-resident", metrics="aggregate",
        )
        sim = spec.build_simulator()
        assert not sim.engine._store.dirty  # nothing to decode yet
        decodes = []
        predicate_calls = []
        materialize = ColumnStore.materialize

        def counting_materialize(store):
            if store.dirty:
                decodes.append(store)
            materialize(store)

        protocol_cls = type(sim.protocol)
        predicate = protocol_cls.is_legitimate

        def counting_predicate(self, network, config):
            predicate_calls.append(self)
            return predicate(self, network, config)

        monkeypatch.setattr(ColumnStore, "materialize",
                            counting_materialize)
        monkeypatch.setattr(protocol_cls, "is_legitimate",
                            counting_predicate)
        report = drive_simulator(sim, max_rounds=spec.max_rounds)
        row = (report, sim.metrics.trial_measures())
        assert report.stabilized
        assert predicate_calls == []
        if protocol != "coloring":
            return
        assert decodes == []
        assert sim.engine._store.dirty
        monkeypatch.undo()
        oracle = spec.variant(engine="incremental").build_simulator()
        oracle_report = drive_simulator(oracle, max_rounds=spec.max_rounds)
        assert row == (oracle_report, oracle.metrics.trial_measures())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_replaced_config_keeps_its_final_state(self, protocol):
        """Assigning ``Simulator.config`` rebuilds the store; the
        outgoing configuration is decoded before it is unhooked, so a
        caller still holding it reads the state the run reached."""
        kwargs = {"topology": ("ring", {"n": 12}), "seed": 3,
                  "metrics": "aggregate"}
        resident = build_sim(protocol, engine="batch-resident", **kwargs)
        oracle = build_sim(protocol, **kwargs)
        resident.run_steps(7)
        oracle.run_steps(7)
        old = resident.config
        resident.config = Configuration(oracle.config.as_dict())
        assert old.as_dict() == oracle.config.as_dict()
        resident.run_steps(5)
        oracle.run_steps(5)
        assert resident.config == oracle.config

    @pytest.mark.parametrize("invalidated", [None, 3])
    def test_bare_invalidate_with_pending_writes(self, invalidated):
        """Distrusting processes without writing them (no sync-hook
        decode in between) must not trip the store's dirty guard."""
        sims = [build_sim("mis", seed=4, engine=engine)
                for engine in ("incremental", "batch-resident")]
        for sim in sims:
            sim.run_steps(6)
        assert sims[1].engine._store.dirty
        touched = (None if invalidated is None
                   else list(sims[1].network.processes)[:invalidated])
        sims[1].invalidate_enabled(touched)
        assert sims[0].enabled_processes() == sims[1].enabled_processes()
        records = [sim.step() for sim in sims]
        assert records[0] == records[1]
        assert sims[0].config == sims[1].config

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_metrics_full_tier_mid_run(self, protocol):
        """The ``full`` tier fuses like any other, and a trace, which
        drives ``Simulator.step`` itself, stays byte-identical."""
        scalar, scalar_sim = run_recorded(
            protocol, ("synchronous", {}), 11, "incremental", steps=25,
            metrics="full",
        )
        resident, resident_sim = run_recorded(
            protocol, ("synchronous", {}), 11, "batch-resident", steps=25,
            metrics="full",
        )
        assert resident_sim._fused_resident() is resident_sim.engine
        assert scalar == resident
        assert (scalar_sim.metrics.summary()
                == resident_sim.metrics.summary())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_corruption_scenario_is_byte_identical(self, protocol):
        """A transient fault at a fixed round rewrites state through
        the Configuration mid-run; the store must materialize before
        the corruption reads and re-mirror after it writes."""
        scenario = {"fraction": 0.4, "at_round": 3}
        traces = []
        sims = []
        for engine in ("incremental", "batch-resident"):
            trace, sim = run_recorded(
                protocol, ("synchronous", {}), 13, engine, steps=45,
                scenario=build_scenario("single-fault", scenario),
            )
            traces.append(trace)
            sims.append(sim)
        assert traces[0] == traces[1], protocol
        assert sims[0].config == sims[1].config
        assert sims[0].metrics.faults_injected >= 1
        assert (sims[0].metrics.faults_injected
                == sims[1].metrics.faults_injected)

    def test_copy_is_a_detached_materialized_snapshot(self):
        resident = build_sim("coloring", seed=3, engine="batch-resident",
                             metrics="aggregate")
        resident.run_steps(5)
        snapshot = resident.config.copy()
        oracle = self.oracle_after("coloring", 3, 5)
        assert snapshot.as_dict() == oracle.config.as_dict()
        # the snapshot is detached: later fused steps don't leak into it
        resident.run_steps(5)
        assert snapshot.as_dict() == oracle.config.as_dict()


# ----------------------------------------------------------------------
# Store-level dirty/epoch protocol
# ----------------------------------------------------------------------
class TestDirtyEpochProtocol:
    def fused_store(self, steps=5):
        sim = build_sim("coloring", seed=1, engine="batch-resident",
                        metrics="aggregate")
        sim.run_steps(steps)
        return sim, sim.engine._store

    def test_pull_refuses_while_dirty(self):
        _sim, store = self.fused_store()
        assert store.dirty
        with pytest.raises(ModelError, match="materialize"):
            store.pull_all()
        with pytest.raises(ModelError, match="materialize"):
            store.pull([0])
        store.materialize()
        assert not store.dirty
        store.pull_all()  # clean store pulls freely again

    def test_materialize_is_idempotent(self):
        _sim, store = self.fused_store()
        store.materialize()
        rows = [list(r) for r in store.rows]
        store.materialize()
        assert [list(r) for r in store.rows] == rows


# ----------------------------------------------------------------------
# Per-step enabled sets under scenario churn (store rebuilds mid-run)
# ----------------------------------------------------------------------
CHURN_PARAMS = {"period_rounds": 2, "fraction": 0.25, "min_n": 6}


class TestScenarioChurnEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_churn_enabled_sets_match_scalar(self, protocol, scheduler,
                                             sched_params):
        for seed in (0, 7):
            sims = [
                build_sim(protocol, (scheduler, sched_params), seed=seed,
                          engine=engine,
                          topology=("gnp", {"n": 10, "p": 0.35, "seed": 4}),
                          scenario=build_scenario("churn", CHURN_PARAMS))
                for engine in ("incremental", "batch-resident")
            ]
            step = 0
            while sims[0].round_tracker.completed_rounds < 7 and step < 400:
                enabled = [sim.enabled_processes() for sim in sims]
                assert enabled[0] == enabled[1], (protocol, scheduler,
                                                  seed, step)
                records = [sim.step() for sim in sims]
                assert records[0] == records[1], (protocol, scheduler,
                                                  seed, step)
                step += 1
            assert sims[0].config == sims[1].config
            applied = [
                [(a.step, a.description) for a in sim.scenario_runtime.applied]
                for sim in sims
            ]
            assert applied[0] and applied[0] == applied[1]


# ----------------------------------------------------------------------
# Fallback and eligibility: the engine degrades or refuses, never diverges
# ----------------------------------------------------------------------
class OneShot(Protocol):
    """Toy protocol with no registered batch kernel."""

    name = "one-shot"

    def variables(self, network, p):
        return (comm("x", BOOL),)

    def actions(self):
        return (
            GuardedAction(
                "clear",
                lambda ctx: ctx.get("x"),
                lambda ctx: ctx.set("x", False),
            ),
        )

    def is_legitimate(self, network, config):
        return all(not config.get(p, "x") for p in network.processes)


class CopyPortOne(Protocol):
    """Kernel-less protocol whose guard reads the neighbor at port 1."""

    name = "copy-port-one"

    def variables(self, network, p):
        return (comm("x", BOOL),)

    def actions(self):
        return (
            GuardedAction(
                "copy",
                lambda ctx: not ctx.get("x") and ctx.read(1, "x"),
                lambda ctx: ctx.set("x", True),
            ),
        )

    def is_legitimate(self, network, config):
        return all(config.get(p, "x") for p in network.processes)


#: each columnar engine and the scalar engine it binds without columns
FALLBACKS = (("batch-resident", IncrementalEngine),
             ("batch-debug", CrossCheckEngine))


class TestFallback:
    @pytest.mark.parametrize("engine, fallback_cls", FALLBACKS)
    def test_kernel_less_protocol_falls_back_transparently(
            self, engine, fallback_cls):
        """A kernel-less run gets the scalar engine itself, named as
        such, and runs it trace-identical to ``incremental``."""
        traces = []
        for name in ("incremental", engine):
            net = topology_registry.build("ring", n=6)
            sim = Simulator(OneShot(), net, seed=0, engine=name)
            recorder = TraceRecorder(sim, seed=0)
            recorder.run_steps(8)
            traces.append(recorder.trace.to_jsonl())
        assert type(sim.engine) is fallback_cls
        assert sim.engine.name == fallback_cls.name
        assert not sim.engine.batch_active
        assert sim._fused_resident() is None
        assert traces[0] == traces[1]
        assert sim.run_until_silent(max_rounds=50).stabilized

    @pytest.mark.parametrize("engine", ["incremental", "scan", "debug"])
    def test_scalar_engines_give_no_verdicts(self, engine):
        """Only an active columnar engine answers silence and
        legitimacy itself; the simulator asks the rows otherwise."""
        sim = build_sim("coloring", engine=engine)
        assert sim.engine.silent() is None
        assert sim.engine.legitimate() is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_without_numpy_runs_scalar(self, protocol, monkeypatch):
        """Without NumPy there is no column store: both columnar engines
        run their scalar fallbacks, trace-identical to ``incremental``."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        scalar, _ = run_recorded(protocol, ("synchronous", {}), 3,
                                 "incremental")
        for engine, fallback_cls in FALLBACKS:
            trace, sim = run_recorded(protocol, ("synchronous", {}), 3,
                                      engine)
            assert type(sim.engine) is fallback_cls, engine
            assert sim.engine.name == fallback_cls.name, engine
            assert trace == scalar, engine
        sim = build_sim(protocol, engine="batch-resident",
                        metrics="aggregate")
        assert sim._fused_resident() is None
        assert sim.engine.silent() is None
        assert sim.engine.legitimate() is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_without_numpy_aggregate_folds_agree(self, protocol,
                                                 monkeypatch):
        """The aggregate tier folds the fallback's contexts exactly like
        ``incremental`` does, under both daemons."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        for scheduler in SCHEDULERS:
            states = []
            for engine in ("incremental", "batch-resident", "batch-debug"):
                sim = build_sim(protocol, scheduler, seed=5, engine=engine,
                                metrics="aggregate")
                sim.run_steps(60)
                assert sim.step_index == 60, (engine, scheduler)
                states.append(aggregate_state(sim))
            assert not sim.engine.batch_active
            assert states[0] == states[1] == states[2], (protocol, scheduler)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_without_numpy_run_until_silent_reports_match(self, protocol,
                                                          monkeypatch):
        """With no fused loop, ``run_until_silent`` on the fallback
        reaches the same silent configuration with the same report."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        for scheduler in SCHEDULERS:
            for seed in SEEDS:
                reports = []
                sims = []
                for engine in ("incremental", "batch-resident"):
                    sim = build_sim(protocol, scheduler, seed=seed,
                                    engine=engine, metrics="aggregate")
                    reports.append(sim.run_until_silent(max_rounds=500))
                    sims.append(sim)
                label = (protocol, scheduler, seed)
                assert not sims[1].engine.batch_active, label
                assert reports[0] == reports[1], label
                assert sims[0].config == sims[1].config, label
                assert (sims[0].metrics.summary()
                        == sims[1].metrics.summary()), label

    def test_numpy_is_resolved_per_store_build(self, monkeypatch):
        """The NumPy import is not cached: blocking it affects only the
        stores built while it is blocked."""
        sim = build_sim("coloring")

        def build():
            return ColumnStore.try_build(sim.network, sim.config,
                                         sim.specs_of)

        monkeypatch.setitem(sys.modules, "numpy", None)
        assert build() is None
        assert not build_sim("coloring",
                             engine="batch-resident").engine.batch_active
        monkeypatch.undo()
        assert isinstance(build(), ColumnStore)
        assert build_sim("coloring",
                         engine="batch-resident").engine.batch_active

    def test_replacing_state_binds_a_fresh_engine(self):
        """Assigning ``sim.config`` and a churn event each release the
        engine and bind a fresh, active one: the outgoing configuration
        is unhooked and reads the decoded state, and the full-tier
        trace stays ``scan``'s."""
        def assign_config(sim):
            sim.config = sim.protocol.arbitrary_configuration(
                sim.network, random.Random(5), specs_of=sim.specs_of)

        def add_edge(sim):
            sim.rebind_network(sim.network.with_edge_added(0, 6))

        sims = [build_sim("mis", seed=4, engine=engine,
                          topology=("ring", {"n": 12}))
                for engine in ("scan", "batch-resident")]
        recorders = [TraceRecorder(sim, seed=4) for sim in sims]
        oracle, resident = sims
        for replace in (assign_config, add_edge):
            for recorder in recorders:
                recorder.run_steps(5)
                recorder.sim.run_steps(3)  # untraced: no row decode
            assert resident.engine._store.dirty
            outgoing, old = resident.engine, resident.config
            expect = oracle.config
            for sim in sims:
                replace(sim)
            assert type(resident.engine) is BatchEngine
            assert resident.engine.batch_active
            assert resident.engine is not outgoing
            assert old._hook is None
            assert old.as_dict() == expect.as_dict()
        for recorder in recorders:
            recorder.run_steps(10)
        assert recorders[0].trace.to_jsonl() == recorders[1].trace.to_jsonl()

    @pytest.mark.parametrize("build", [lambda net: OneShot(),
                                       ColoringProtocol.for_network],
                             ids=["kernel-less", "coloring"])
    @pytest.mark.parametrize("engine_cls",
                             [BatchEngine, BatchCrossCheckEngine])
    def test_bound_engine_is_refused(self, build, engine_cls):
        """An engine instance binds one run, also when it handed that
        run to its scalar fallback."""
        net = topology_registry.build("ring", n=6)
        engine = engine_cls()
        Simulator(build(net), net, engine=engine)
        with pytest.raises(ValueError, match="already bound"):
            Simulator(build(net), net, engine=engine)


class TestEligibility:
    def test_plain_synchronous_aggregate_run_fuses(self):
        sim = build_sim("coloring", engine="batch-resident",
                        metrics="aggregate")
        assert sim._fused_resident() is sim.engine

    def test_plain_synchronous_full_tier_run_fuses(self):
        sim = build_sim("coloring", engine="batch-resident", metrics="full")
        assert sim._fused_resident() is sim.engine

    @pytest.mark.parametrize("kwargs", [
        {"metrics": "aggregate"},
        {"scheduler": ("synchronous", {"enabled_only": True}),
         "engine": "batch-resident", "metrics": "aggregate"},
        {"scheduler": ("central", {"enabled_only": True}),
         "engine": "batch-resident", "metrics": "aggregate"},
        {"scenario": build_scenario("noop", {}),
         "engine": "batch-resident", "metrics": "aggregate"},
    ], ids=["scalar-engine", "enabled-only", "central", "scenario"])
    def test_other_runs_take_the_per_step_path(self, kwargs):
        sim = build_sim("coloring", **kwargs)
        assert sim._fused_resident() is None


# ----------------------------------------------------------------------
# The audited engine
# ----------------------------------------------------------------------
class TestBatchCrossCheck:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("metrics", ["full", "aggregate"])
    def test_clean_run_passes_audit(self, protocol, metrics):
        for scheduler in SCHEDULERS:
            sim = build_sim(protocol, scheduler, seed=5,
                            engine="batch-debug", metrics=metrics)
            assert isinstance(sim.engine, BatchCrossCheckEngine)
            sim.run_steps(40)
            sim.enabled_processes()  # the audited enabled-set query
            sim.is_silent()  # the audited silence verdict

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fused_span_is_audited(self, protocol, monkeypatch):
        """The audit covers the fused loop, not just per-step calls:
        a kernel that misclassifies one process trips it mid-span."""
        kernel_cls = KERNELS[protocol]
        classify = kernel_cls.classify

        def flip_first(self, idx):
            # Swap the first process's verdict for another rule (a
            # disabled process is made to fire rule 0).
            codes, ports, bits, aux = classify(self, idx)
            codes[0] = (int(codes[0]) + 1) % len(self.rule_names)
            return codes, ports, bits, aux

        monkeypatch.setattr(kernel_cls, "classify", flip_first)
        sim = build_sim(protocol, seed=5, engine="batch-debug",
                        metrics="aggregate")
        assert sim._fused_resident() is sim.engine
        assert not sim.is_silent()
        with pytest.raises(ModelError, match="diverged"):
            sim.run_until_silent(max_rounds=50)

    @pytest.mark.parametrize("engine", ["debug", "batch-debug"])
    def test_scalar_fallback_is_audited(self, engine):
        """Without a kernel, batch-debug falls back to the audited
        scalar engine: a write behind the engine's back is caught."""
        net = topology_registry.build("ring", n=8)
        config = Configuration({p: {"x": False} for p in net.processes})
        sim = Simulator(CopyPortOne(), net,
                        scheduler=CentralScheduler(enabled_only=True),
                        seed=0, config=config, engine=engine)
        assert not sim.engine.batch_active
        assert sim.enabled_processes() == []
        sim.config.set(net.processes[0], "x", True)  # no invalidate
        with pytest.raises(ModelError, match="diverged from full scan"):
            sim.step()

    def test_silence_verdict_is_audited(self, monkeypatch):
        """A columnar silence verdict that disagrees with the exact
        scalar checker raises instead of ending the run early."""
        silent_cols = ColoringBatchKernel.silent_cols
        monkeypatch.setattr(ColoringBatchKernel, "silent_cols",
                            lambda self: not silent_cols(self))
        sim = build_sim("coloring", seed=5, engine="batch-debug",
                        topology=("ring", {"n": 12}), metrics="aggregate")
        with pytest.raises(ModelError, match="silence verdict"):
            sim.run_until_silent(max_rounds=50)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_legitimacy_verdict_is_audited(self, protocol, monkeypatch):
        """A columnar legitimacy verdict that disagrees with the
        protocol's predicate raises instead of landing in the report."""
        kernel_cls = KERNELS[protocol]
        legitimate_cols = kernel_cls.legitimate_cols
        monkeypatch.setattr(kernel_cls, "legitimate_cols",
                            lambda self: not legitimate_cols(self))
        sim = build_sim(protocol, seed=5, engine="batch-debug",
                        topology=("ring", {"n": 12}), metrics="aggregate")
        with pytest.raises(ModelError, match="legitimacy verdict"):
            sim.run_until_silent(max_rounds=500)

    def test_out_of_band_mutation_is_caught(self):
        from repro.predicates.mis import DOMINATED, DOMINATOR

        sim = build_sim("mis", seed=0, engine="batch-debug")
        sim.run_steps(5)
        sim.enabled_processes()
        # Flip comm state behind the engine's back until the stale
        # columns diverge from a fresh scan; the audit must refuse.
        with pytest.raises(ModelError):
            for p in sim.network.processes:
                current = sim.config.get(p, "S")
                sim.config.set(
                    p, "S",
                    DOMINATED if current == DOMINATOR else DOMINATOR,
                )
                sim.engine.note_step([], [])
                sim.enabled_processes()
            pytest.skip("no divergence found (all flips status-neutral)")
