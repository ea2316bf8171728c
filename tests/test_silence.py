"""Unit tests for the sound silence (quiescence) checker."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import protocol_registry, topology_registry
from repro.core import (
    Configuration,
    Simulator,
    StepContext,
    StepContextPool,
    is_silent,
    silence_witness,
)
from repro.core.actions import first_enabled
from repro.core.protocol import Protocol
from repro.core.scheduler import CentralScheduler
from repro.core.silence import QuiescenceWitness, process_quiescence_witness
from repro.graphs import chain, greedy_coloring, ring
from repro.protocols import ColoringProtocol, MISProtocol


# ----------------------------------------------------------------------
# Reference: the copy-based walk the pooled, read-only walk replaced
# ----------------------------------------------------------------------
def reference_process_witness(protocol, network, config, p):
    """The historical walk: a configuration copy per walk, a fresh
    context per pointer value, a fresh probe generator per walk."""
    specs_of = protocol.specs_of(network)
    internal_specs = [s for s in specs_of[p] if s.kind == "internal"]
    actions = protocol.actions()
    trial = config.copy()
    probe_rng = random.Random(0)

    state = tuple(config.get(p, s.name) for s in internal_specs)
    seen = set()
    while state not in seen:
        seen.add(state)
        for spec, value in zip(internal_specs, state):
            trial.set(p, spec.name, value)
        ctx = StepContext(p, network, trial, specs_of, rng=probe_rng)
        action = first_enabled(actions, ctx)
        if action is None:
            return None
        action.effect(ctx)
        comm_writes = ctx.comm_writes()
        for name, new_value in comm_writes.items():
            old_value = config.get(p, name)
            if ctx.used_randomness:
                return QuiescenceWitness(
                    p, action.name, name, old_value, new_value, True)
            if new_value != old_value:
                return QuiescenceWitness(
                    p, action.name, name, old_value, new_value, False)
        if ctx.used_randomness and not comm_writes:
            return QuiescenceWitness(
                p, action.name, "<internal>", None, None, True)
        state = tuple(
            ctx.writes.get(s.name, trial.get(p, s.name))
            for s in internal_specs
        )
    return None


def reference_silence_witness(protocol, network, config):
    for p in network.processes:
        witness = reference_process_witness(protocol, network, config, p)
        if witness is not None:
            return witness
    return None


def coloring_config(colors):
    return Configuration(
        {p: {"C": c, "cur": 1} for p, c in colors.items()}
    )


class TestColoringSilence:
    def test_proper_coloring_is_silent(self):
        net = chain(4)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 1, 1: 2, 2: 1, 3: 2})
        assert is_silent(proto, net, config)

    def test_conflict_is_not_silent(self):
        net = chain(4)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 1, 1: 1, 2: 2, 3: 1})
        assert not is_silent(proto, net, config)

    def test_witness_identifies_randomized_rewrite(self):
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 2, 1: 2, 2: 1})
        witness = silence_witness(proto, net, config)
        assert witness is not None
        assert witness.variable == "C"
        assert witness.randomized

    def test_hidden_conflict_found_through_pointer_walk(self):
        """A conflict the *current* pointer does not see must still
        break silence: the walk explores all reachable pointer values."""
        net = ring(4)
        proto = ColoringProtocol.for_network(net)
        # Process 0 conflicts with neighbor 1, but its cur points at 3.
        config = Configuration(
            {
                0: {"C": 1, "cur": net.port_to(0, 3)},
                1: {"C": 1, "cur": net.port_to(1, 2)},
                2: {"C": 2, "cur": 1},
                3: {"C": 3, "cur": 1},
            }
        )
        assert not is_silent(proto, net, config)

    def test_per_process_witness(self):
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 1, 1: 1, 2: 2})
        assert process_quiescence_witness(proto, net, config, 0) is not None
        assert process_quiescence_witness(proto, net, config, 2) is None


class TestMISSilence:
    def _setup(self):
        net = chain(3)
        colors = greedy_coloring(net)
        return net, colors, MISProtocol(net, colors)

    def test_legitimate_with_good_pointers_is_silent(self):
        net, colors, proto = self._setup()
        # Middle is the greedy Dominator when it has the smallest color.
        dominator = min(net.processes, key=lambda p: (colors[p], p != 1))
        # Build: node 1 Dominator, ends dominated pointing at it.
        config = Configuration(
            {
                0: {"S": "dominated" if 1 != 0 else "Dominator", "C": colors[0], "cur": 1},
                1: {"S": "Dominator", "C": colors[1], "cur": 1},
                2: {"S": "dominated", "C": colors[2], "cur": 1},
            }
        )
        if colors[1] < colors[0] and colors[1] < colors[2]:
            assert is_silent(proto, net, config)

    def test_legitimate_but_not_silent(self):
        """An MIS whose dominated members lack smaller-color Dominator
        neighbors is legitimate yet NOT a communication fixed point —
        silence and legitimacy genuinely differ."""
        net = chain(3)
        colors = {0: 2, 1: 1, 2: 2}
        proto = MISProtocol(net, colors)
        # Ends are Dominators (color 2), middle dominated (color 1):
        # a valid MIS, but the middle's claim rule can fire (C.1 ≺ C.0).
        config = Configuration(
            {
                0: {"S": "Dominator", "C": 2, "cur": 1},
                1: {"S": "dominated", "C": 1, "cur": 1},
                2: {"S": "Dominator", "C": 2, "cur": 1},
            }
        )
        assert proto.is_legitimate(net, config)
        assert not is_silent(proto, net, config)

    def test_two_adjacent_dominators_not_silent(self):
        net = chain(3)
        colors = {0: 1, 1: 2, 2: 1}
        proto = MISProtocol(net, colors)
        config = Configuration(
            {
                0: {"S": "Dominator", "C": 1, "cur": 1},
                1: {"S": "Dominator", "C": 2, "cur": 1},
                2: {"S": "dominated", "C": 1, "cur": 1},
            }
        )
        witness = silence_witness(proto, net, config)
        assert witness is not None
        assert witness.process == 1  # the larger color must yield
        assert not witness.randomized


class TestSilenceAfterConvergence:
    def test_simulator_silent_state_passes_checker(self, small_network):
        from repro.core import Simulator

        proto = ColoringProtocol.for_network(small_network)
        sim = Simulator(proto, small_network, seed=5)
        sim.run_until_silent(max_rounds=5000)
        assert is_silent(proto, small_network, sim.config)
        assert proto.is_legitimate(small_network, sim.config)


# ----------------------------------------------------------------------
# The pooled walk equals the reference, field for field
# ----------------------------------------------------------------------
PROTOCOLS = ("coloring", "mis", "matching")


@st.composite
def walked_runs(draw):
    """A small run of one protocol, stopped after a random number of
    steps from a random configuration."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    topology = draw(st.sampled_from(("ring", "sparse", "torus")))
    if topology == "ring":
        params = {"n": draw(st.integers(3, 12))}
    elif topology == "sparse":
        params = {"n": draw(st.integers(4, 16)), "avg_degree": 3.0,
                  "seed": draw(st.integers(0, 1000))}
    else:
        params = {"rows": draw(st.integers(3, 4)),
                  "cols": draw(st.integers(3, 4))}
    net = topology_registry.build(topology, **params)
    central = draw(st.booleans())
    sim = Simulator(
        protocol_registry.build(protocol, net),
        net,
        scheduler=CentralScheduler() if central else None,
        seed=draw(st.integers(0, 10_000)),
        engine=draw(st.sampled_from(("incremental", "batch-resident"))),
        metrics="aggregate",
    )
    sim.is_silent()  # warms the run's context pool
    # A central step activates one process, a synchronous step all.
    sim.run_steps(draw(st.integers(0, 12 * (net.n if central else 1))))
    return sim


class TestWalkMatchesReference:
    @given(walked_runs())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_witnesses_match_the_copy_based_walk(self, sim):
        # The run's own walk goes first, before any other read decodes
        # pending column writes into the rows.
        by_sim = sim.silence_witness()
        protocol, net, config = sim.protocol, sim.network, sim.config
        expect = reference_silence_witness(protocol, net, config)
        assert by_sim == expect
        assert sim.is_silent() == (expect is None)
        specs_of = sim.specs_of
        shared = StepContextPool(net, config, specs_of)
        assert silence_witness(protocol, net, config) == expect
        assert silence_witness(protocol, net, config, specs_of=specs_of,
                               pool=shared) == expect
        for p in net.processes:
            want = reference_process_witness(protocol, net, config, p)
            assert process_quiescence_witness(protocol, net, config, p) == want
            assert process_quiescence_witness(
                protocol, net, config, p, specs_of, pool=shared) == want


# ----------------------------------------------------------------------
# A repeated check copies nothing, rebuilds nothing, writes nothing
# ----------------------------------------------------------------------
class TestRepeatedCheckIsReadOnly:
    @pytest.mark.parametrize("engine,protocol", [
        ("incremental", "coloring"),
        ("incremental", "mis"),
        ("incremental", "matching"),
        ("batch-resident", "mis"),
        ("batch-resident", "matching"),
    ])
    @pytest.mark.parametrize("converged", [False, True])
    def test_no_copy_no_spec_map_no_new_context(self, monkeypatch, engine,
                                                 protocol, converged):
        net = topology_registry.build("sparse", n=40, avg_degree=3.0, seed=3)
        sim = Simulator(protocol_registry.build(protocol, net), net, seed=5,
                        engine=engine, metrics="aggregate")
        if converged:
            sim.run_until_silent(max_rounds=500)
        else:
            sim.run_steps(1)
        assert sim.engine.silent() is None  # the scalar walk decides
        verdict = sim.is_silent()
        assert verdict is converged
        config = sim.config
        rows = [config.row_of(p) for p in net.processes]
        ids = [id(row) for row in rows]
        contents = [list(row) for row in rows]

        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(Configuration, "copy")
        spy(Protocol, "specs_of")
        spy(StepContext, "__init__")
        assert sim.is_silent() is verdict
        assert calls == []
        after = [config.row_of(p) for p in net.processes]
        assert [id(row) for row in after] == ids
        assert [list(row) for row in after] == contents
