"""Tests for the enabled-set engines (repro.core.engine).

The central contract: every engine — incremental dirty-set, full-scan
fallback, self-auditing debug — produces *step-for-step identical*
executions, because an engine only changes how the enabled set is
maintained, never what it is.  The property tests here drive random
(protocol, topology, scheduler, seed) combinations through paired
simulators and compare traces, configurations and metrics exactly.
"""

import random

import pytest

from repro.api import engine_registry, protocol_registry
from repro.core import (
    CentralScheduler,
    ModelError,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    Simulator,
    SynchronousScheduler,
    make_engine,
)
from repro.core.actions import GuardedAction, first_enabled
from repro.core.context import StepContext
from repro.core.engine import ENGINE_NAMES, CrossCheckEngine, IncrementalEngine, ScanEngine
from repro.core.protocol import Protocol
from repro.core.scheduler import BoundedFairScheduler, LocallyCentralScheduler
from repro.core.variables import BOOL, comm
from repro.faults import corrupt_processes
from repro.graphs import chain, grid, random_connected, ring, sparse_random
from repro.protocols import ColoringProtocol, MatchingProtocol, MISProtocol
from repro.graphs import greedy_coloring


#: Every registered engine — new engines (the columnar batch family,
#: future strategies) inherit the whole equivalence matrix by being
#: registered, with no test edits.
ALL_ENGINES = tuple(sorted(engine_registry.names()))


def brute_force_enabled(sim):
    """The reference enabled set: one fresh guard scan per process."""
    actions = sim.protocol.actions()
    out = []
    for p in sim.network.processes:
        ctx = StepContext(p, sim.network, sim.config, sim.specs_of, rng=None)
        if first_enabled(actions, ctx) is not None:
            out.append(p)
    return out


def build_protocol(name, network):
    if name == "coloring":
        return ColoringProtocol.for_network(network)
    colors = greedy_coloring(network)
    return (MISProtocol if name == "mis" else MatchingProtocol)(network, colors)


TOPOLOGIES = {
    "ring12": lambda: ring(12),
    "grid3x4": lambda: grid(3, 4),
    "gnp14": lambda: random_connected(14, 0.3, seed=5),
    "sparse16": lambda: sparse_random(16, avg_degree=3.0, seed=9),
}

SCHEDULERS = {
    "synchronous": lambda net: SynchronousScheduler(),
    "central": lambda net: CentralScheduler(),
    "random-subset": lambda net: RandomSubsetScheduler(0.4),
    "round-robin": lambda net: RoundRobinScheduler(),
    "bounded-fair": lambda net: BoundedFairScheduler(bound=9, burst=2),
    "locally-central": lambda net: LocallyCentralScheduler(net, 0.5),
    "enabled-central": lambda net: CentralScheduler(enabled_only=True),
    "enabled-synchronous": lambda net: SynchronousScheduler(enabled_only=True),
    "enabled-random-subset": lambda net: RandomSubsetScheduler(
        0.5, enabled_only=True
    ),
}


class TestTraceEquivalence:
    """Every registered engine replays the same computation."""

    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_step_for_step_identical(self, protocol, scheduler):
        rng = random.Random(hash((protocol, scheduler)) & 0xFFFF)
        for _ in range(2):
            topo = rng.choice(sorted(TOPOLOGIES))
            seed = rng.randrange(10_000)
            traces, finals, metrics = [], [], []
            for engine in ALL_ENGINES:
                net = TOPOLOGIES[topo]()
                sim = Simulator(
                    build_protocol(protocol, net),
                    net,
                    scheduler=SCHEDULERS[scheduler](net),
                    seed=seed,
                    engine=engine,
                )
                traces.append([sim.step() for _ in range(80)])
                finals.append(sim.config)
                metrics.append(sim.metrics.summary())
            for i, engine in enumerate(ALL_ENGINES):
                label = f"{engine}/{protocol}/{topo}/{scheduler}/s{seed}"
                assert traces[i] == traces[0], label
                assert finals[i] == finals[0], label
                assert metrics[i] == metrics[0], label

    def test_default_engine_is_incremental(self):
        net = ring(6)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=0)
        assert isinstance(sim.engine, IncrementalEngine)

    def test_unknown_engine_rejected(self):
        net = ring(6)
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(ColoringProtocol.for_network(net), net, engine="warp")


class TestExecuteStepContract:
    def test_each_step_executes_the_scheduled_selection_once(self):
        """The simulator schedules and the engine executes: every
        ``Simulator.step`` hands the very selection the scheduler
        returned to ``engine.execute_step``, exactly once, on every
        registered engine — columnar ones included, with and without a
        kernel (``coloring-full`` has none)."""
        for protocol in ("coloring", "coloring-full"):
            for engine in ALL_ENGINES:
                for metrics in ("full", "aggregate"):
                    label = (protocol, engine, metrics)
                    net = ring(10)
                    sim = Simulator(
                        protocol_registry.build(protocol, net), net,
                        scheduler=RandomSubsetScheduler(0.5), seed=3,
                        engine=engine, metrics=metrics,
                    )
                    if protocol == "coloring-full":
                        assert not sim.engine.batch_active, label
                    selections, executed = [], []
                    select = sim.scheduler.select
                    execute = sim.engine.execute_step

                    def spy_select(pool, rng, select=select,
                                   selections=selections):
                        selections.append(select(pool, rng))
                        return selections[-1]

                    def spy_execute(selected, rng, execute=execute,
                                    executed=executed):
                        executed.append(selected)
                        return execute(selected, rng)

                    sim.scheduler.select = spy_select
                    sim.engine.execute_step = spy_execute
                    for step in range(1, 21):
                        record = sim.step()
                        assert len(executed) == step, label
                        assert executed[-1] is selections[-1], label
                        if metrics == "full":
                            assert record.activated == frozenset(
                                selections[-1]), label


class TestEnabledSetMaintenance:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("protocol", protocol_registry.names())
    @pytest.mark.parametrize("scheduler", ["random-subset",
                                           "enabled-central"])
    def test_matches_brute_force_along_random_runs(self, engine, protocol,
                                                   scheduler):
        for seed in (0, 3, 11):
            net = random_connected(12, 0.3, seed=seed)
            sim = Simulator(
                protocol_registry.build(protocol, net), net,
                scheduler=SCHEDULERS[scheduler](net), seed=seed,
                engine=engine,
            )
            for _ in range(40):
                sim.step()
                assert sim.enabled_processes() == brute_force_enabled(sim)

    def test_canonical_order(self):
        net = ring(9)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=2)
        sim.run_steps(5)
        enabled = sim.enabled_processes()
        order = {p: i for i, p in enumerate(net.processes)}
        assert enabled == sorted(enabled, key=order.__getitem__)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_fault_injection_invalidates_engine(self, engine):
        net = grid(3, 3)
        sim = Simulator(build_protocol("matching", net), net, seed=4,
                        engine=engine)
        sim.run_steps(30)
        corrupt_processes(sim, list(net.processes)[:4], random.Random(1))
        assert sim.enabled_processes() == brute_force_enabled(sim)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_manual_invalidate_all(self, engine):
        net = ring(8)
        sim = Simulator(build_protocol("mis", net), net, seed=1,
                        engine=engine)
        sim.run_steps(10)
        # Out-of-band write with an explicit whole-network invalidation.
        p = net.processes[0]
        from repro.predicates.mis import DOMINATED, DOMINATOR
        flipped = DOMINATED if sim.config.get(p, "S") == DOMINATOR else DOMINATOR
        sim.config.set(p, "S", flipped)
        sim.invalidate_enabled()
        assert sim.enabled_processes() == brute_force_enabled(sim)


class TestCrossCheckEngine:
    def test_clean_run_passes_audit(self):
        net = random_connected(10, 0.35, seed=2)
        sim = Simulator(build_protocol("mis", net), net,
                        scheduler=CentralScheduler(), seed=2, engine="debug")
        sim.run_steps(60)
        assert isinstance(sim.engine, CrossCheckEngine)
        assert sim.enabled_processes() == brute_force_enabled(sim)

    def test_unreported_mutation_is_caught(self):
        net = ring(8)
        proto = build_protocol("mis", net)
        sim = Simulator(proto, net, seed=0, engine="debug")
        sim.run_steps(5)
        sim.enabled_processes()  # settle the audit at the current γ
        from repro.predicates.mis import DOMINATED, DOMINATOR

        # Flip comm state behind the engine's back until the enabled set
        # diverges; the debug engine must refuse to serve stale data.
        with pytest.raises(ModelError, match="diverged"):
            for p in net.processes:
                current = sim.config.get(p, "S")
                sim.config.set(
                    p, "S",
                    DOMINATED if current == DOMINATOR else DOMINATOR,
                )
                sim.engine.note_step([], [])  # a no-op step, no invalidate
                sim.enabled_processes()
            pytest.skip("no divergence found (all flips status-neutral)")


class TestEnabledDrawingDaemons:
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_runs_to_silence_with_enabled_central(self, protocol):
        net = random_connected(12, 0.3, seed=6)
        sim = Simulator(
            build_protocol(protocol, net), net,
            scheduler=CentralScheduler(enabled_only=True), seed=6,
        )
        report = sim.run_until_silent(max_rounds=20_000)
        assert report.stabilized

    def test_maximal_daemon_activates_exactly_enabled(self):
        net = ring(10)
        sim = Simulator(
            build_protocol("mis", net), net,
            scheduler=SynchronousScheduler(enabled_only=True), seed=3,
        )
        for _ in range(20):
            expected = frozenset(brute_force_enabled(sim)) or frozenset(
                net.processes
            )
            record = sim.step()
            assert record.activated == expected

    def test_empty_enabled_pool_falls_back_to_noop_steps(self):
        class OneShot(Protocol):
            """Toy: each process clears its flag once, then nothing."""

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

        net = chain(5)
        sim = Simulator(
            OneShot(), net,
            scheduler=SynchronousScheduler(enabled_only=True), seed=0,
        )
        report = sim.run_until_silent(max_rounds=50)
        assert report.stabilized
        # Terminal configuration: the pool is empty, steps fall back to
        # all-process no-ops, and rounds keep closing.
        record = sim.step()
        assert record.activated == frozenset(net.processes)
        assert all(name is None for name in record.executed.values())
        assert sim.enabled_processes() == []


class TestStatefulSchedulerReuse:
    """Regression: engine simulators still reset reused schedulers."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_reused_round_robin_replays(self, engine):
        scheduler = RoundRobinScheduler()
        net = ring(6)
        results = []
        for _ in range(2):
            sim = Simulator(
                ColoringProtocol.for_network(net), net,
                scheduler=scheduler, seed=7, engine=engine,
            )
            results.append([sim.step() for _ in range(25)])
        assert results[0] == results[1]
        assert scheduler._next > 0

    def test_reuse_across_engines_is_equivalent(self):
        scheduler = RoundRobinScheduler(enabled_only=True)
        net = grid(3, 3)
        traces = []
        for engine in ALL_ENGINES:
            sim = Simulator(
                build_protocol("mis", net), net,
                scheduler=scheduler, seed=5, engine=engine,
            )
            traces.append([sim.step() for _ in range(40)])
        for i, engine in enumerate(ALL_ENGINES):
            assert traces[i] == traces[0], engine


class TestMakeEngine:
    def test_names_round_trip(self):
        for name in ENGINE_NAMES:
            assert make_engine(name).name == name

    def test_instance_passthrough(self):
        engine = ScanEngine()
        assert make_engine(engine) is engine

    def test_engine_instances_are_single_run(self):
        # Rebinding would leave the first simulator querying the second
        # run's state; a second bind must fail loudly instead.
        engine = IncrementalEngine()
        net = ring(6)
        Simulator(ColoringProtocol.for_network(net), net, engine=engine)
        with pytest.raises(ValueError, match="already bound"):
            Simulator(ColoringProtocol.for_network(net), net, engine=engine)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("bogus")


class TestBadInputOnEveryEngine:
    """Bad input to a run ends in one ``ValueError`` from the simulator
    itself, the same on every engine, before any engine sees it."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_invalidate_names_unknown_pids(self, engine):
        net = ring(8)
        sim = Simulator(ColoringProtocol.for_network(net), net,
                        scheduler=CentralScheduler(enabled_only=True),
                        seed=1, engine=engine)
        with pytest.raises(ValueError,
                           match=r"1 unknown process\(es\): \[99\]$"):
            sim.invalidate_enabled([99])
        with pytest.raises(ValueError,
                           match=r"6 unknown .*: \[99, 100, 101, 102, 103\]$"):
            sim.invalidate_enabled([0, *range(99, 105)])
        sim.run_steps(5)
        assert sim.step_index == 5
        assert sim.enabled_processes() == brute_force_enabled(sim)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("count", [2.5, "3", True, None])
    def test_step_and_round_counts_must_be_ints(self, engine, count):
        # Synchronous, aggregate tier: the fused columnar path.
        net = ring(8)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=1,
                        engine=engine, metrics="aggregate")
        for run in (sim.run_steps, sim.run_rounds, sim.run_until_silent,
                    sim.run_until_legitimate):
            with pytest.raises(ValueError, match="count must be an int"):
                run(count)
        assert sim.step_index == 0

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("count", [-1, -3])
    def test_step_and_round_counts_must_not_be_negative(self, engine,
                                                        count):
        net = ring(8)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=1,
                        engine=engine, metrics="aggregate")
        before = sim.config.as_dict()
        for run in (sim.run_steps, sim.run_rounds, sim.run_until_silent,
                    sim.run_until_legitimate):
            with pytest.raises(ValueError, match=(
                    rf"count must not be negative, got {count}$")):
                run(count)
        assert sim.step_index == 0
        assert sim.round_tracker.completed_rounds == 0
        assert sim.config.as_dict() == before
        # 0 stays a valid no-op
        sim.run_steps(0)
        assert sim.run_rounds(0) == 0
        assert sim.step_index == 0
        sim.run_steps(3)
        assert sim.step_index == 3
