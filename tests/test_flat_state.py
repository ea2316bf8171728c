"""Flat indexed configurations: step semantics and API compatibility.

The simulator's scalar loop reuses one pooled ``StepContext`` per
process and writes straight into the configuration's rows.  The
reference here replays the paper's step (§2) from scratch instead —
fresh, unpooled contexts over a frozen copy of γi, writes applied only
after every selected process computed — and the simulator must match
it step for step: executed rules, ports read, bits read and γi+1,
across protocols × daemons × scalar engines × seeds.  The unit tests
pin the compatibility surface (state views, projections, copies,
equality) the rest of the package relies on.
"""

import random

import pytest

from repro.api import protocol_registry, scheduler_registry, topology_registry
from repro.core import Configuration, Simulator, StepContext
from repro.core.actions import first_enabled
from repro.core.state import StateLayout
from repro.graphs import ring

PROTOCOLS = ("coloring", "mis", "matching")
SCHEDULERS = (
    ("synchronous", {}),
    ("central", {}),
    ("random-subset", {"p_act": 0.4}),
    ("central", {"enabled_only": True}),
)
ENGINES = ("incremental", "scan")
SEEDS = (0, 3, 11)


# ----------------------------------------------------------------------
# Reference: the paper's step with fresh contexts over a frozen γi
# ----------------------------------------------------------------------
def reference_step(protocol, network, specs_of, gamma, selected, rng):
    """One step from scratch: every selected process evaluates its rules
    in a fresh, unpooled context over a frozen copy of ``gamma``; the
    buffered writes land in γi+1 only after all of them computed.

    Returns ``(executed, ports_read, bits_read, successor)``.
    """
    frozen = gamma.copy()
    actions = protocol.actions()
    executed, ports_read, bits_read, writes = {}, {}, {}, []
    for p in selected:
        ctx = StepContext(p, network, frozen, specs_of, rng=rng)
        action = first_enabled(actions, ctx)
        if action is not None:
            action.effect(ctx)
        executed[p] = action.name if action is not None else None
        ports_read[p] = frozenset(ctx.ports_read)
        bits_read[p] = ctx.bits_read
        writes.append((p, ctx.writes))
    successor = frozen.copy()
    for p, buffered in writes:
        for name, value in buffered.items():
            successor.set(p, name, value)
    return executed, ports_read, bits_read, successor


def spy_on_selection(sim):
    """Record each step's selection and the state of the protocol's
    stream right after the scheduler drew it — where randomized rules
    start drawing."""
    calls = []
    select = sim.scheduler.select

    def spy(pool, rng):
        selected = select(pool, rng)
        calls.append((list(selected), sim.rngs.protocol.getstate()))
        return selected

    sim.scheduler.select = spy
    return calls


def build_sim(protocol, scheduler, sched_params, engine, seed, n=12,
              metrics="full"):
    net = topology_registry.build("ring", n=n)
    proto = protocol_registry.build(protocol, net)
    sched = scheduler_registry.build(scheduler, net, **sched_params)
    return Simulator(proto, net, scheduler=sched, seed=seed, engine=engine,
                     metrics=metrics)


class TestStepReference:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_scalar_steps_match_reference(self, protocol, scheduler,
                                          sched_params):
        for engine in ENGINES:
            for seed in SEEDS:
                sim = build_sim(protocol, scheduler, sched_params, engine,
                                seed)
                calls = spy_on_selection(sim)
                for step in range(30):
                    label = (protocol, scheduler, engine, seed, step)
                    gamma = sim.config.copy()
                    record = sim.step()
                    assert len(calls) == step + 1, label
                    selected, rng_state = calls[-1]
                    rng = None
                    if sim.protocol.randomized:
                        rng = random.Random()
                        rng.setstate(rng_state)
                    executed, ports_read, bits_read, successor = (
                        reference_step(sim.protocol, sim.network,
                                       sim.specs_of, gamma, selected, rng)
                    )
                    assert record.executed == executed, label
                    assert record.ports_read == ports_read, label
                    assert record.bits_read == bits_read, label
                    assert sim.config == successor, label
                    if rng is not None:
                        # Same draws, in the same order.
                        assert (rng.getstate()
                                == sim.rngs.protocol.getstate()), label


class TestPooledScalarLoop:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_contexts_pooled_and_rows_read_through_them(self, protocol,
                                                        monkeypatch):
        """The scalar loop builds one execution context per process and
        the engine one probe context per process, for the whole run,
        and no step reads state through the dict API."""
        built = []
        init = StepContext.__init__

        def counting_init(ctx, *args, **kwargs):
            built.append(1)
            init(ctx, *args, **kwargs)

        monkeypatch.setattr(StepContext, "__init__", counting_init)
        dict_reads = []

        def counted(name):
            original = getattr(Configuration, name)

            def wrapper(config, *args, **kwargs):
                dict_reads.append(name)
                return original(config, *args, **kwargs)

            return wrapper

        n = 30
        for scheduler, sched_params in (("synchronous", {}),
                                        ("central", {"enabled_only": True})):
            for engine in ENGINES:
                for metrics in ("full", "aggregate"):
                    label = (protocol, scheduler, engine, metrics)
                    built.clear()
                    with monkeypatch.context() as patch:
                        sim = build_sim(protocol, scheduler, sched_params,
                                        engine, seed=0, n=n,
                                        metrics=metrics)
                        for name in ("get", "state_of"):
                            patch.setattr(Configuration, name,
                                          counted(name))
                        sim.run_steps(60)
                    assert 0 < len(built) <= 2 * n, (label, len(built))
                    assert dict_reads == [], label


class TestFlatConfiguration:
    def test_dict_api_round_trip(self):
        config = Configuration({0: {"C": 1, "cur": 2}, 1: {"C": 3, "cur": 1}})
        assert config.get(0, "C") == 1
        config.set(0, "C", 2)
        assert config.get(0, "C") == 2
        assert config.as_dict() == {0: {"C": 2, "cur": 2}, 1: {"C": 3, "cur": 1}}
        assert list(config.processes) == [0, 1]

    def test_set_unknown_variable_raises(self):
        config = Configuration({0: {"C": 1}})
        with pytest.raises(KeyError):
            config.set(0, "missing", 9)
        with pytest.raises(KeyError):
            config.set(99, "C", 9)

    def test_state_view_is_write_through(self):
        config = Configuration({0: {"C": 1, "cur": 2}})
        view = config.state_of(0)
        assert dict(view) == {"C": 1, "cur": 2}
        assert sorted(view.items()) == [("C", 1), ("cur", 2)]
        view["C"] = 5
        assert config.get(0, "C") == 5
        with pytest.raises(KeyError):
            view["nope"] = 1
        with pytest.raises(TypeError):
            del view["C"]

    def test_copy_is_independent_and_shares_layouts(self):
        config = Configuration({0: {"C": 1}, 1: {"C": 2}})
        clone = config.copy()
        clone.set(0, "C", 9)
        assert config.get(0, "C") == 1
        assert clone.get(0, "C") == 9
        assert config.layout_of(0) is clone.layout_of(0)

    def test_layouts_are_interned_across_processes(self):
        config = Configuration({p: {"C": p, "cur": 1} for p in range(50)})
        layouts = {id(config.layout_of(p)) for p in range(50)}
        assert len(layouts) == 1
        layout = config.layout_of(0)
        assert isinstance(layout, StateLayout)
        assert layout.index == {"C": 0, "cur": 1}

    def test_row_access_aliases_storage(self):
        config = Configuration({0: {"C": 1, "cur": 2}})
        row = config.row_of(0)
        slot = config.layout_of(0).index["C"]
        row[slot] = 7
        assert config.get(0, "C") == 7
        assert config.index_of(0) == 0

    def test_cross_backend_equality(self):
        """Equality compares full states, not storage: configurations
        built independently (in any process order) are equal until one
        diverges, and never equal a non-configuration."""
        states = {0: {"C": 1, "cur": 2}, 1: {"C": 3, "cur": 1}}
        flat = Configuration(states)
        other = Configuration({1: states[1], 0: states[0]})
        assert flat == other
        assert other == flat
        assert not flat != other
        other.set(1, "C", 9)
        assert flat != other
        assert flat != "not a configuration"

    def test_comm_projection_matches_legacy(self):
        """The projection keeps exactly the neighbor-readable variables,
        in spec order, as computed here from the dict view."""
        net = ring(6)
        proto = protocol_registry.build("mis", net)
        specs_of = proto.specs_of(net)
        sim = Simulator(proto, net, seed=2)
        flat = sim.config
        states = flat.as_dict()
        expected = {
            p: tuple((s.name, states[p][s.name]) for s in specs_of[p]
                     if s.readable_by_neighbors)
            for p in net.processes
        }
        assert flat.comm_projection(specs_of) == expected
        for p in net.processes:
            assert flat.comm_state_of(p, specs_of[p]) == expected[p]
        assert all(expected.values())

    def test_empty_state_supported(self):
        config = Configuration({0: {}})
        assert dict(config.state_of(0)) == {}
        assert config.as_dict() == {0: {}}
        assert config.copy() == config
