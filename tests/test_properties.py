"""Property-based tests (hypothesis) on core invariants.

These probe the model and protocols over randomly generated topologies,
port numberings, initial configurations and schedules — the adversarial
quantifiers of the paper's definitions.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BatchEngine, Configuration, Simulator, is_silent
from repro.core.actions import first_enabled
from repro.core.context import StepContext
from repro.core.rounds import RoundTracker
from repro.core.scheduler import SynchronousScheduler
from repro.faults import corrupt_fraction
from repro.graphs import (
    greedy_coloring,
    is_proper_coloring,
    random_connected,
    relabel_ports_randomly,
    sequential_coloring,
)
from repro.predicates import (
    coloring_predicate,
    conflict_count,
    is_maximal_independent_set,
    is_maximal_matching,
    dominators,
    matched_edges,
    married_processes,
)
from repro.protocols import ColoringProtocol, MISProtocol, MatchingProtocol

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _network(draw):
    n = draw(st.integers(min_value=4, max_value=14))
    p = draw(st.floats(min_value=0.2, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    net = random_connected(n, p, seed=seed)
    if draw(st.booleans()):
        net = relabel_ports_randomly(net, random.Random(seed + 1))
    return net


networks = st.composite(_network)()


class TestGraphSubstrateProperties:
    @given(networks)
    @SLOW
    def test_greedy_coloring_is_always_proper(self, net):
        assert is_proper_coloring(net, greedy_coloring(net))

    @given(networks, st.integers(min_value=0, max_value=1000))
    @SLOW
    def test_sequential_coloring_proper_for_any_order(self, net, seed):
        order = list(net.processes)
        random.Random(seed).shuffle(order)
        colors = sequential_coloring(net, order)
        assert is_proper_coloring(net, colors)
        assert max(colors.values()) <= net.max_degree + 1

    @given(networks)
    @SLOW
    def test_port_maps_are_bijective(self, net):
        for p in net.processes:
            seen = {net.neighbor_at(p, port) for port in range(1, net.degree(p) + 1)}
            assert seen == set(net.neighbors(p))


class TestRoundProperties:
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=5), min_size=1),
            min_size=1,
            max_size=60,
        )
    )
    @SLOW
    def test_round_count_monotone_and_bounded(self, schedule):
        processes = list(range(6))
        tracker = RoundTracker(processes)
        prev = 0
        for activated in schedule:
            tracker.record_step(activated & set(processes) or {0})
            assert tracker.completed_rounds >= prev
            prev = tracker.completed_rounds
        # A round needs at least one step; can't exceed step count.
        assert tracker.completed_rounds <= len(schedule)


class TestColoringProperties:
    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_stabilizes_and_stays_1_efficient(self, net, seed):
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=seed)
        report = sim.run_until_silent(max_rounds=50_000)
        assert report.stabilized
        assert sim.metrics.observed_k_efficiency() <= 1

    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_closure_of_coloring_predicate(self, net, seed):
        """Lemma 1 as a property: once proper, forever proper."""
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=seed)
        sim.run_until_legitimate(max_rounds=50_000)
        for _ in range(30):
            sim.step()
            assert coloring_predicate(net, sim.config)

    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_silence_iff_no_conflicts(self, net, seed):
        proto = ColoringProtocol.for_network(net)
        sim = Simulator(proto, net, seed=seed)
        sim.run_until_silent(max_rounds=50_000)
        assert conflict_count(net, sim.config) == 0
        assert is_silent(proto, net, sim.config)


class TestMISProperties:
    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_stabilizes_to_valid_mis(self, net, seed):
        proto = MISProtocol(net, greedy_coloring(net))
        sim = Simulator(proto, net, seed=seed)
        report = sim.run_until_silent(max_rounds=50_000)
        assert report.stabilized
        assert is_maximal_independent_set(net, dominators(net, sim.config))

    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_round_bound_lemma4(self, net, seed):
        from repro.analysis import mis_round_bound

        colors = greedy_coloring(net)
        proto = MISProtocol(net, colors)
        sim = Simulator(proto, net, seed=seed)
        report = sim.run_until_silent(max_rounds=50_000)
        assert report.rounds <= mis_round_bound(net, colors)


class TestMatchingProperties:
    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_stabilizes_to_valid_maximal_matching(self, net, seed):
        proto = MatchingProtocol(net, greedy_coloring(net))
        sim = Simulator(proto, net, seed=seed)
        report = sim.run_until_silent(max_rounds=100_000)
        assert report.stabilized
        assert is_maximal_matching(net, matched_edges(net, sim.config))

    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_married_set_monotone_after_round_one(self, net, seed):
        proto = MatchingProtocol(net, greedy_coloring(net))
        sim = Simulator(proto, net, seed=seed)
        sim.run_rounds(1)
        prev = married_processes(net, sim.config)
        for _ in range(40):
            sim.step()
            now = married_processes(net, sim.config)
            assert prev <= now
            prev = now

    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_round_bound_lemma9(self, net, seed):
        from repro.analysis import matching_round_bound

        proto = MatchingProtocol(net, greedy_coloring(net))
        sim = Simulator(proto, net, seed=seed)
        report = sim.run_until_silent(max_rounds=100_000)
        assert report.rounds <= matching_round_bound(net)


def _paper_protocol(name, net):
    if name == "coloring":
        return ColoringProtocol.for_network(net)
    colors = greedy_coloring(net)
    return (MISProtocol if name == "mis" else MatchingProtocol)(net, colors)


class TestBatchKernelProperties:
    """The vectorized kernels agree with the scalar guards pointwise —
    the batch engine's correctness reduces to exactly this plus the
    write-back being the scalar effect."""

    @given(
        networks,
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(("coloring", "mis", "matching")),
    )
    @SLOW
    def test_classify_matches_scalar_guards(self, net, seed, protocol):
        """On any connected topology and *any* configuration, the
        kernel's per-process rule verdict equals ``first_enabled``."""
        rng = random.Random(seed)
        proto = _paper_protocol(protocol, net)
        config = proto.arbitrary_configuration(net, rng)
        specs_of = proto.specs_of(net)
        engine = BatchEngine()
        engine.bind(proto, net, config, specs_of)
        assert engine.batch_active
        verdicts = engine.classify_all()
        actions = proto.actions()
        for p in net.processes:
            ctx = StepContext(p, net, config, specs_of, rng=None)
            action = first_enabled(actions, ctx)
            expected = action.name if action is not None else None
            assert verdicts[p] == expected, (protocol, p)

    @given(
        networks,
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(("coloring", "mis", "matching")),
    )
    @SLOW
    def test_batch_step_preserves_legitimacy_once_silent(
        self, net, seed, protocol
    ):
        """Closure through the columnar write-back: after silence, batch
        steps never move the communication state or break legitimacy."""
        proto = _paper_protocol(protocol, net)
        sim = Simulator(
            proto, net,
            scheduler=SynchronousScheduler(enabled_only=True),
            seed=seed, engine="batch-resident",
        )
        assert sim.engine.batch_active
        report = sim.run_until_silent(max_rounds=50_000)
        assert report.stabilized
        before = sim.config.comm_projection(sim.specs_of)
        for _ in range(10):
            sim.step()
            assert sim.is_legitimate()
        assert sim.config.comm_projection(sim.specs_of) == before

    @given(
        networks,
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(("coloring", "mis", "matching")),
        st.integers(min_value=0, max_value=12),
    )
    @SLOW
    def test_resident_prefix_closure(self, net, seed, protocol, prefix):
        """Resident/scalar closure: after *any* prefix of fused
        column-resident steps, materializing and continuing scalar is
        indistinguishable from having run scalar all along."""
        resident = Simulator(
            _paper_protocol(protocol, net), net,
            scheduler=SynchronousScheduler(),
            seed=seed, engine="batch-resident", metrics="aggregate",
        )
        scalar = Simulator(
            _paper_protocol(protocol, net), net,
            scheduler=SynchronousScheduler(),
            seed=seed, metrics="aggregate",
        )
        resident.run_steps(prefix)
        scalar.run_steps(prefix)
        if resident.engine.batch_active:
            resident.engine._store.materialize()
        assert resident.config == scalar.config
        assert resident.metrics.summary() == scalar.metrics.summary()
        # one more *scalar* step from the materialized state stays in
        # lockstep — the decoded rows are a faithful resume point
        assert resident.step() == scalar.step()
        assert resident.config == scalar.config

    @given(
        networks,
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(("coloring", "mis", "matching")),
        st.integers(min_value=0, max_value=12),
        st.sampled_from((0.1, 0.3, 1.0)),
    )
    @SLOW
    def test_columnar_legitimacy_is_the_scalar_predicate(
        self, net, seed, protocol, prefix, fraction
    ):
        """The kernel's legitimacy verdict equals the protocol's
        predicate on the arbitrary start, after each of a prefix of
        fused steps, at silence, and after each of a few transient
        faults (whose row writes the engine must re-read into the
        columns first).  Small faults on a silent configuration give
        the near-legitimate cases a wrong verdict would flip."""
        proto = _paper_protocol(protocol, net)
        sim = Simulator(
            proto, net, scheduler=SynchronousScheduler(),
            seed=seed, engine="batch-resident", metrics="aggregate",
        )
        assert sim.engine.batch_active

        def agrees():
            # The columnar verdict is taken first, while the columns
            # may still be ahead of the rows the predicate decodes.
            verdict = sim.engine.legitimate()
            assert verdict == proto.is_legitimate(net, sim.config)

        agrees()
        for _ in range(prefix):
            sim.run_steps(1)
            agrees()
        sim.run_until_silent(max_rounds=50_000)
        agrees()
        rng = random.Random(seed)
        for _ in range(4):
            corrupt_fraction(sim, fraction, rng)
            agrees()


class TestSilenceCheckerProperties:
    @given(networks, st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_checker_agrees_with_predicate_for_coloring(self, net, seed):
        """For COLORING, silent ⟺ properly colored (any cur values)."""
        rng = random.Random(seed)
        proto = ColoringProtocol.for_network(net)
        config = proto.arbitrary_configuration(net, rng)
        assert is_silent(proto, net, config) == coloring_predicate(net, config)
