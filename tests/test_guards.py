"""Compiled guard cascades against the protocols' actions.

``incremental`` and ``debug`` run COLORING, MIS and MATCHING through
the cascades :mod:`repro.core.guards` compiles from each protocol's
guard form; ``scan`` runs ``actions()`` through
:class:`~repro.core.context.StepContext`, the reference.  Here:

* a hypothesis property steps random runs under the synchronous,
  central and enabled-only central daemons and checks, at every step,
  each process's compiled rule, ports, bits, planned writes, probe and
  walk against the reference, the compiled silence verdict against
  :func:`~repro.core.silence.is_silent`, and the step records against a
  ``scan`` run in lockstep;
* ``debug`` raises :class:`~repro.core.exceptions.ModelError` when a
  bound cascade is tampered with;
* bad state ends in the reference's own error, and runs the compiler
  cannot hold bind no cascade.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import protocol_registry, scheduler_registry, topology_registry
from repro.core import Configuration, Simulator
from repro.core.exceptions import (DomainError, IllegalWrite, ModelError,
                                   TopologyError)
from repro.core.guards import (GUARD_FORMS, And, Assign, GuardForm,
                               GuardFormError, Lt, Nbr, Own, Rotate, Rule,
                               bind_cascade, bind_form)
from repro.core.silence import is_silent
from repro.graphs import ring
from repro.protocols import ColoringProtocol, MISProtocol
from test_atlas_sweep import check_compiled

PROTOCOLS = ("coloring", "mis", "matching")
DAEMONS = (("synchronous", {}), ("central", {}),
           ("central", {"enabled_only": True}))


def build_sim(protocol, net, daemon, seed, engine):
    name, params = daemon
    return Simulator(protocol_registry.build(protocol, net), net,
                     scheduler=scheduler_registry.build(name, net, **params),
                     seed=seed, engine=engine)


@st.composite
def runs(draw):
    protocol = draw(st.sampled_from(PROTOCOLS))
    n = draw(st.integers(3, 14))
    topology = draw(st.sampled_from([
        ("ring", {"n": n}),
        ("sparse", {"n": n, "avg_degree": 2.5,
                    "seed": draw(st.integers(0, 999))}),
        ("star", {"leaves": n - 1}),
    ]))
    return (protocol, topology, draw(st.sampled_from(DAEMONS)),
            draw(st.integers(0, 10_000)), draw(st.integers(1, 40)))


class TestAlongRandomRuns:
    @given(runs())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_compiled_cascade_matches_the_contexts(self, run):
        protocol, (family, params), daemon, seed, steps = run
        sims = [build_sim(protocol, topology_registry.build(family, **params),
                          daemon, seed, engine)
                for engine in ("incremental", "scan")]
        sim, ref = sims
        assert sim.engine.cascade is not None
        label = run
        for _ in range(steps):
            check_compiled(sim.protocol, sim.network, sim.specs_of,
                           sim.config, label)
            verdict = sim.is_silent()
            assert verdict is is_silent(sim.protocol, sim.network,
                                        sim.config, specs_of=sim.specs_of)
            assert verdict is ref.is_silent(), label
            assert sim.enabled_processes() == ref.enabled_processes(), label
            assert sim.step() == ref.step(), label
        assert sim.config == ref.config, label
        assert sim.metrics.summary() == ref.metrics.summary(), label
        assert sim.rngs.protocol.getstate() == ref.rngs.protocol.getstate()


# ----------------------------------------------------------------------
# The audit
# ----------------------------------------------------------------------
def debug_sim(protocol="mis", seed=3, daemon=("synchronous", {})):
    return build_sim(protocol, ring(12), daemon, seed, "debug")


#: MIS with the yield comparison turned round
_YIELD, *_REST = GUARD_FORMS[MISProtocol].rules
TAMPERED_MIS = GuardForm("cur", (
    Rule("yield", And(*_YIELD.guard.terms[:2], Lt(Own("C"), Nbr("C"))),
         _YIELD.effects),
    *_REST,
))


class TestDebugAudit:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("daemon", DAEMONS)
    def test_clean_runs_pass_the_audit(self, protocol, daemon):
        sim = debug_sim(protocol, daemon=daemon)
        assert sim.engine.cascade is not None
        assert sim.run_until_silent(max_rounds=2_000).stabilized

    def test_tampered_bits_are_caught(self):
        sim = debug_sim()
        step = sim.engine.cascade.step

        def tampered(selected, rng):
            executions, pend = step(selected, rng)
            return ([(p, ports, bits + 1.0, rule)
                     for p, ports, bits, rule in executions], pend)

        sim.engine.cascade.step = tampered
        with pytest.raises(ModelError, match="compiled cascade diverged"):
            sim.step()

    def test_tampered_form_is_caught(self):
        sim = debug_sim()
        engine = sim.engine
        engine.cascade = bind_form(TAMPERED_MIS, sim.protocol, sim.network,
                                   sim.config, sim.specs_of)
        with pytest.raises(ModelError, match="diverged"):
            sim.run_steps(20)

    def test_tampered_probe_is_caught(self):
        sim = debug_sim()
        sim.engine.cascade.probe = lambda p: False
        sim.engine.invalidate()
        with pytest.raises(ModelError, match="diverged from full scan"):
            sim.enabled_processes()

    def test_tampered_walk_is_caught(self):
        sim = debug_sim("coloring")
        assert not is_silent(sim.protocol, sim.network, sim.config)
        sim.engine.cascade.walk = lambda p: None
        with pytest.raises(ModelError, match="silence walk diverged"):
            sim.is_silent()

    def test_tampered_writes_are_caught(self):
        sim = debug_sim("coloring")
        step = sim.engine.cascade.step
        sim.engine.cascade.step = lambda selected, rng: (
            step(selected, rng)[0], [])
        with pytest.raises(ModelError, match="row"):
            sim.step()


# ----------------------------------------------------------------------
# Bad state and unsupported runs
# ----------------------------------------------------------------------
def paired(protocol="coloring", seed=1, n=8):
    """The same run on the compiled engine and on the reference."""
    return [build_sim(protocol, ring(n), ("synchronous", {}), seed, engine)
            for engine in ("incremental", "scan")]


def raised(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


class TestReferenceErrors:
    def test_pointer_outside_its_ports(self):
        errors = []
        for sim in paired():
            sim.config.set(sim.network.processes[2], "cur", 5)
            sim.invalidate_enabled()
            errors.append(raised(sim.step))
        assert errors[0] == errors[1]
        assert errors[0][0] is TopologyError

    def test_draw_outside_the_domain(self):
        errors = []
        for sim in paired():
            sim.protocol.palette = type(sim.protocol.palette)(90, 99)
            errors.append(raised(lambda: sim.run_steps(5)))
        assert errors[0] == errors[1]
        assert errors[0][0] is DomainError

    def test_draw_in_a_deterministic_run(self):
        errors = []
        for sim in paired():
            sim.protocol.randomized = False
            errors.append(raised(lambda: sim.run_steps(5)))
        assert errors[0] == errors[1]
        assert errors[0][0] is IllegalWrite


class TestBinding:
    def test_protocol_without_a_form_runs_the_reference(self):
        net = ring(6)
        sim = Simulator(protocol_registry.build("coloring-full", net), net,
                        seed=0)
        assert sim.engine.cascade is None and sim.engine.walk is None

    def test_subclass_needs_its_own_form(self):
        class Sub(ColoringProtocol):
            pass

        net = ring(6)
        sim = Simulator(Sub.for_network(net), net, seed=0)
        assert sim.engine.cascade is None

    def test_rows_of_two_layouts_run_the_reference(self):
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        states = {p: ({"C": 1, "cur": 1} if p % 2 else {"cur": 1, "C": 2})
                  for p in net.processes}
        results = []
        for engine in ("incremental", "scan"):
            sim = Simulator(proto, net, config=Configuration(states), seed=4,
                            engine=engine)
            if engine == "incremental":
                assert sim.engine.cascade is None
            results.append([sim.step() for _ in range(10)])
        assert results[0] == results[1]

    def test_columnar_engines_bind_no_cascade(self):
        pytest.importorskip("numpy")
        net = ring(6)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=0,
                        engine="batch-resident")
        assert sim.engine.batch_active
        assert not hasattr(sim.engine, "cascade") and sim.engine.walk is None

    def test_form_naming_an_unknown_variable_binds_nothing(self):
        sim = paired()[0]
        form = GuardForm("cur", (Rule("r", Own("nope"), (Rotate(),)),))
        assert bind_form(form, sim.protocol, sim.network, sim.config,
                         sim.specs_of) is None

    def test_neighbor_read_after_the_pointer_moved_is_refused(self):
        sim = paired()[0]
        form = GuardForm("cur", (
            Rule("r", Own("C"), (Rotate(), Assign("C", Nbr("C")))),))
        with pytest.raises(GuardFormError, match="moved the pointer"):
            bind_form(form, sim.protocol, sim.network, sim.config,
                      sim.specs_of)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_source_holds_no_names_or_values(self, protocol):
        sim = paired(protocol)[0]
        source = bind_cascade(sim.protocol, sim.network, sim.config,
                              sim.specs_of).compiled.source
        assert "'" not in source and '"' not in source
        assert "Dominator" not in source and "PR" not in source

    def test_one_compile_per_form(self):
        first, second = (paired("matching", n=n)[0] for n in (6, 9))
        assert first.engine.cascade.compiled is second.engine.cascade.compiled
