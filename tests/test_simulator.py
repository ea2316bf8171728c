"""Unit tests for the step simulator (paper §2 semantics)."""

import re

import pytest

from repro.core import (
    ENGINE_NAMES,
    Configuration,
    ConvergenceError,
    DomainError,
    FixedSequenceScheduler,
    Simulator,
    SynchronousScheduler,
)
from repro.graphs import chain, greedy_coloring, ring
from repro.protocols import ColoringProtocol, MISProtocol


class TestStepSemantics:
    def test_reads_resolve_in_pre_step_configuration(self):
        """Simultaneous writes: both endpoints of a conflict read γi and
        may both recolor in the same step (no sequential interleaving)."""
        net = chain(2)
        proto = ColoringProtocol(palette_size=2)
        config = Configuration(
            {0: {"C": 1, "cur": 1}, 1: {"C": 1, "cur": 1}}
        )
        sim = Simulator(
            proto,
            net,
            scheduler=FixedSequenceScheduler([[0, 1]]),
            seed=3,
            config=config,
        )
        record = sim.step()
        assert record.executed == {0: "recolor", 1: "recolor"}

    def test_disabled_process_is_noop(self):
        net = chain(2)
        proto = ColoringProtocol(palette_size=3)
        config = Configuration(
            {0: {"C": 1, "cur": 1}, 1: {"C": 2, "cur": 1}}
        )
        sim = Simulator(proto, net, seed=0, config=config)
        record = sim.step()
        # Properly colored: only the advance action fires (never None
        # for COLORING — its two guards partition the state space).
        assert all(name == "advance" for name in record.executed.values())
        assert sim.config.get(0, "C") == 1

    def test_round_counting_synchronous(self):
        net = ring(5)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, scheduler=SynchronousScheduler(), seed=1)
        sim.run_steps(7)
        assert sim.round_tracker.completed_rounds == 7

    def test_run_rounds(self):
        net = ring(5)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=1)
        steps = sim.run_rounds(3)
        assert steps == 3  # synchronous default
        assert sim.round_tracker.completed_rounds == 3

    def test_replayability(self):
        net = ring(6)
        results = []
        for _ in range(2):
            proto = ColoringProtocol.for_network(net)
            sim = Simulator(proto, net, seed=99)
            sim.run_steps(20)
            results.append(sim.config.as_dict())
        assert results[0] == results[1]

    def test_seed_changes_trajectory(self):
        net = ring(6)
        configs = []
        for seed in (1, 2):
            proto = ColoringProtocol.for_network(net)
            sim = Simulator(proto, net, seed=seed)
            configs.append(sim.config.as_dict())
        assert configs[0] != configs[1]

    def test_initial_configuration_validated(self):
        net = chain(3)
        proto = ColoringProtocol(palette_size=3)
        bad = Configuration(
            {0: {"C": 9, "cur": 1}, 1: {"C": 1, "cur": 1}, 2: {"C": 1, "cur": 1}}
        )
        with pytest.raises(DomainError):
            Simulator(proto, net, config=bad)

    def test_constants_pinned(self):
        net = chain(3)
        colors = greedy_coloring(net)
        proto = MISProtocol(net, colors)
        bad = proto.arbitrary_configuration(net)
        bad.set(0, "C", colors[0] % max(colors.values()) + 1)
        if bad.get(0, "C") != colors[0]:
            with pytest.raises(DomainError):
                Simulator(proto, net, config=bad)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_assigned_configuration_validated(self, engine):
        """Assigning ``Simulator.config`` checks domains like the
        constructor does: every engine refuses with DomainError and the
        run keeps its old state."""
        net = ring(6)
        sim = Simulator(MISProtocol(net, greedy_coloring(net)), net,
                        seed=0, engine=engine)
        old = sim.config
        before = old.as_dict()
        states = old.as_dict()
        states[net.processes[0]]["S"] = "bogus"
        with pytest.raises(DomainError):
            sim.config = Configuration(states)
        assert sim.config is old
        assert sim.config.as_dict() == before
        assert sim.run_until_silent(max_rounds=100).stabilized

    @pytest.mark.parametrize("engine", ["incremental", "batch-resident"])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_wrong_process_set_is_one_domain_error(self, engine, change):
        """A configuration lacking a network process, or carrying one
        the network does not have, is refused with a DomainError that
        names the process — by the constructor and by the setter, which
        keeps the old state."""
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        states = proto.arbitrary_configuration(net).as_dict()
        if change == "missing":
            del states[5]
            named = "missing: [5]"
        else:
            states[99] = dict(states[0])
            named = "extra: [99]"
        with pytest.raises(DomainError, match=re.escape(named)):
            Simulator(proto, net, seed=0, engine=engine,
                      config=Configuration(states))
        sim = Simulator(proto, net, seed=0, engine=engine)
        old = sim.config
        with pytest.raises(DomainError, match=re.escape(named)):
            sim.config = Configuration(states)
        assert sim.config is old
        assert sim.run_until_silent(max_rounds=100).stabilized

    @pytest.mark.parametrize("engine", ["incremental", "batch-resident"])
    def test_assigned_configuration_is_copied(self, engine):
        """Assigning ``Simulator.config`` takes a private copy, as the
        constructor does: stepping the receiving run leaves the caller's
        object — here another run's live configuration — untouched."""
        net = ring(8)

        def build(seed):
            return Simulator(ColoringProtocol.for_network(net), net,
                             seed=seed, engine=engine, metrics="aggregate")

        a, twin, b = build(1), build(1), build(2)
        a.run_steps(3)
        twin.run_steps(3)
        given = a.config
        before = given.as_dict()
        b.config = given
        assert b.config is not given
        b.run_steps(5)
        assert b.config != given
        assert a.config is given
        assert given.as_dict() == before
        # ``a`` keeps running from its own state, in step with a twin
        # that never lent its configuration out.
        a.run_steps(4)
        twin.run_steps(4)
        assert a.config == twin.config


class TestRunHelpers:
    def test_run_until_silent_reports(self):
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=4)
        report = sim.run_until_silent(max_rounds=5000)
        assert report.silent and report.legitimate and report.stabilized
        assert report.silent_at_round == report.rounds

    def test_run_until_silent_budget(self):
        """An unsatisfiable palette can never silence — budget must trip."""
        net = ring(5)  # odd ring is not 2-colorable
        proto = ColoringProtocol(palette_size=2)
        sim = Simulator(proto, net, seed=0)
        with pytest.raises(ConvergenceError):
            sim.run_until_silent(max_rounds=30)

    def test_run_until_legitimate(self):
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=4)
        report = sim.run_until_legitimate(max_rounds=5000)
        assert report.legitimate

    def test_enabled_processes(self):
        net = chain(2)
        proto = ColoringProtocol(palette_size=3)
        config = Configuration({0: {"C": 1, "cur": 1}, 1: {"C": 1, "cur": 1}})
        sim = Simulator(proto, net, seed=0, config=config)
        assert sorted(sim.enabled_processes()) == [0, 1]

    def test_measure_suffix_stability_returns_all_processes(self):
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=4)
        sim.run_until_silent(max_rounds=5000)
        sets = sim.measure_suffix_stability(extra_rounds=5)
        assert set(sets) == set(net.processes)


class TestMetricsIntegration:
    def test_coloring_reads_at_most_one_neighbor(self, any_scheduler):
        net = ring(8)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, scheduler=any_scheduler, seed=7)
        sim.run_steps(300)
        assert sim.metrics.observed_k_efficiency() <= 1

    def test_bits_read_bounded_by_domain(self):
        net = ring(8)
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=7)
        sim.run_steps(100)
        assert sim.metrics.max_bits_in_step <= proto.palette.bits + 1e-9
