"""Trial setup in columns: the drawn start configuration.

``Protocol.arbitrary_configuration`` draws straight into one list per
layout slot; the configuration decodes its rows only when something
first reads one, and the column store adopts the drawn columns.  These
suites pin:

* the draw against a copy of the row-by-row draw it replaced — the
  same rows, value types included, and the same generator state after
  it — for every registered protocol;
* validation: the engines refuse the same bad configurations with the
  same :class:`DomainError`, through the constructor, the setter and
  fault injection, and drawn columns take a range check per slot;
* per-process metrics, built and drained only when read, equal to the
  scalar engine's;
* a fused sparse COLORING trial that builds no row and no per-process
  dict;
* one slot format: the draw, the range check and the column store read
  one :class:`~repro.core.state.SlotTable`, so a constant finite set is
  adopted without a decode, sets of equal values of other types keep
  rows, and a loaded start maps its slots by name;
* one spec tuple per degree for every degree-only protocol, and one
  process tuple per network.
"""

import random
import re

import pytest

from repro.api import ExperimentSpec, protocol_registry, topology_registry
from repro.api.spec import drive_simulator
from repro.core import (
    Configuration, DomainError, Simulator, TopologyError, TraceRecorder)
from repro.core.actions import GuardedAction
from repro.core.batchengine import BATCH_KERNELS
from repro.core.columns import ColumnStore
from repro.core.protocol import Protocol
from repro.core.serialization import (
    configuration_from_json, configuration_to_json)
from repro.core.state import SlotTable, _intern_layout
from repro.core.variables import (
    Domain, FiniteSet, IntRange, SpecMap, comm, const, spec_plans)
from repro.faults import adversarial_reset
from repro.graphs.coloring import DegreeSpecs, greedy_coloring
from repro.graphs.generators import chain, ring, star
from repro.obs.registry import TELEMETRY
from repro.protocols.baselines import (
    FullReadColoring, FullReadMatching, FullReadMIS)
from repro.protocols.coloring import ColoringProtocol
from repro.protocols.kefficient import (
    WindowColoringProtocol, WindowMISProtocol)
from repro.protocols.matching import MatchingProtocol
from repro.protocols.mis import MISProtocol
from repro.transformer.round_robin import coloring_spec, make_one_efficient

ENGINES = ("incremental", "batch-resident", "batch-debug")

TOPOLOGIES = {
    "ring": ("ring", {"n": 9}),
    "sparse": ("sparse", {"n": 40, "avg_degree": 3, "seed": 4}),
    "grid": ("grid", {"rows": 3, "cols": 4}),
    "star": ("star", {"leaves": 6}),
    "tree": ("tree", {"n": 12, "seed": 5}),
}


def reference_arbitrary_configuration(protocol, network, rng):
    """The row-by-row draw — per process, per spec, in declaration
    order, one ``variables``/``constant_values`` call per process — as
    ``Protocol.arbitrary_configuration`` drew before it drew into
    columns."""
    pids, layouts, rows = [], [], []
    for p in network.processes:
        specs = protocol.variables(network, p)
        consts = protocol.constant_values(network, p)
        rows.append([
            consts[spec.name] if spec.kind == "const"
            else spec.domain.sample(rng)
            for spec in specs
        ])
        pids.append(p)
        layouts.append(_intern_layout(tuple(s.name for s in specs)))
    return Configuration.from_rows(pids, None, layouts, rows)


def assert_same_draw(protocol, network, seed, make_rng=random.Random):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    drawn = protocol.arbitrary_configuration(network, rng)
    expected = reference_arbitrary_configuration(protocol, network, ref_rng)
    assert rng.getstate() == ref_rng.getstate(), seed
    assert list(drawn.processes) == list(expected.processes)
    for p in network.processes:
        assert drawn.layout_of(p) is expected.layout_of(p), (p, seed)
        row, ref = drawn.row_of(p), expected.row_of(p)
        assert row == ref, (p, seed)
        assert list(map(type, row)) == list(map(type, ref)), (p, seed)


# ----------------------------------------------------------------------
# The draw
# ----------------------------------------------------------------------
class TestDrawMatchesTheRowDraw:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("protocol", sorted(protocol_registry))
    def test_registered_protocols(self, protocol, topology):
        name, params = TOPOLOGIES[topology]
        net = topology_registry.build(name, **params)
        proto = protocol_registry.build(protocol, net)
        for seed in (0, 1, 2):
            assert_same_draw(proto, net, seed)

    def test_rng_with_its_own_randint(self):
        """A generator overriding ``randint`` is called as the row draw
        called it."""

        class Skewed(random.Random):
            def randint(self, a, b):
                return b if self.random() < 0.5 else a

        net = topology_registry.build("sparse", n=30, avg_degree=3, seed=1)
        for protocol in ("coloring", "matching"):
            proto = protocol_registry.build(protocol, net)
            for seed in (0, 1):
                assert_same_draw(proto, net, seed, make_rng=Skewed)
            # The drawn columns reach the column store as the codes a
            # row configuration gives.
            specs_of = proto.specs_of(net)
            drawn, copied = (
                proto.arbitrary_configuration(net, Skewed(3),
                                              specs_of=specs_of)
                for _ in range(2))
            stores = [ColumnStore.try_build(net, config, specs_of)
                      for config in (drawn, Configuration(copied.as_dict()))]
            assert ([col.tolist() for col in stores[0].cols]
                    == [col.tolist() for col in stores[1].cols])

    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_10k_sparse(self, protocol):
        """The 10k-process start a ``large-trial`` trial draws in bulk."""
        net = _sparse_10k()
        proto = protocol_registry.build(protocol, net)
        assert_same_draw(proto, net, 7)

    @pytest.mark.parametrize("override", ["getrandbits", "random"])
    def test_subclass_draws_per_value(self, override, telemetry_on):
        """A subclass overriding ``getrandbits`` (which its
        ``_randbelow`` calls) or ``random`` (which ``_randbelow`` then
        uses instead) is called once per value, never for a run of
        words, and draws what the row draw draws."""
        calls = []

        def getrandbits(self, k):
            calls.append(k)
            return random.Random.getrandbits(self, k)

        def rand(self):
            calls.append(0)
            return random.Random.random(self)

        body = ({"getrandbits": getrandbits} if override == "getrandbits"
                else {"random": rand})
        cls = type("Sub", (random.Random,), body)
        net = topology_registry.build("sparse", n=60, avg_degree=3, seed=2)
        for protocol in ("coloring", "mis", "matching"):
            proto = protocol_registry.build(protocol, net)
            assert_same_draw(proto, net, 3, make_rng=cls)
        assert calls and max(calls) <= 32
        assert list(_draw_counts(telemetry_on)) == [
            "config.draws{path=per_value}"]

    def test_instance_with_a_patched_method_draws_per_value(self):
        rng = random.Random(4)
        calls = []
        rng.randint = lambda a, b: calls.append((a, b)) or a
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        config = proto.arbitrary_configuration(net, rng)
        assert calls == [(1, 3), (1, 2)] * 6
        assert all(config.get(p, "C") == 1 for p in net.processes)

    def test_system_random_draws_per_value(self, telemetry_on):
        net = ring(9)
        proto = MatchingProtocol(net, greedy_coloring(net))
        config = proto.arbitrary_configuration(net, random.SystemRandom())
        proto.validate_configuration(net, config)
        assert _draw_counts(telemetry_on) == {
            "config.draws{path=per_value}": 9 * 3}

    def test_sizes_at_the_word_limit(self, telemetry_on):
        """A slot of 2**32 - 1 values still draws in bulk; one more value
        and every value of the start is drawn one call at a time."""
        net = ring(5)
        for top, path in ((2**32 - 2, "bulk"), (2**32, "per_value")):
            proto = _Wide(top)
            for seed in (0, 1):
                assert_same_draw(proto, net, seed)
            assert _draw_counts(telemetry_on) == {
                f"config.draws{{path={path}}}": 2 * 5 * 3}
            telemetry_on.reset()

    def test_counts_each_draw_once(self, telemetry_on):
        """``config.draws`` counts the drawn values (constants draw
        nothing) once per call, by path, and only while telemetry is on."""
        net = ring(8)
        proto = MISProtocol(net, greedy_coloring(net))
        proto.arbitrary_configuration(net, random.Random(1))
        assert _draw_counts(telemetry_on) == {"config.draws{path=bulk}": 16}
        telemetry_on.disable()
        proto.arbitrary_configuration(net, random.Random(1))
        assert _draw_counts(telemetry_on) == {"config.draws{path=bulk}": 16}

    def test_mixed_layouts_and_custom_domains(self):
        """Processes with different variable sets get rows, drawn in the
        same order; a domain of its own draws through its ``sample``,
        and a constant kept only per process reaches the columns of a
        shared layout through ``constant_values``."""
        proto = _Mixed()
        for net in (star(5), ring(5)):
            for seed in (0, 1, 2):
                assert_same_draw(proto, net, seed)
        drawn = proto.arbitrary_configuration(star(5), random.Random(0))
        assert drawn.layout_of(0) is not drawn.layout_of(1)
        net = ring(5)
        specs_of = proto.specs_of(net)
        assert proto.arbitrary_configuration(
            net, random.Random(0), specs_of=specs_of).drawn_from(specs_of)


def _draw_counts(telemetry):
    return {key: value
            for key, value in telemetry.snapshot()["counters"].items()
            if key.startswith("config.draws")}


def _sparse_10k():
    return topology_registry.build("sparse", n=10_000, avg_degree=3, seed=7)


class _Wide(Protocol):
    """Integer ranges up to ``top``, and a shared finite set."""

    name = "wide"

    def __init__(self, top):
        self.specs = (comm("A", IntRange(0, top)),
                      comm("B", FiniteSet(("x", "y", "z"))),
                      comm("D", IntRange(-3, 3)))

    def variables(self, network, p):
        return self.specs

    def actions(self):
        return (GuardedAction("noop", lambda ctx: False, lambda ctx: None),)

    def is_legitimate(self, network, config):
        return True


class _Parity(Domain):
    """A domain of its own: even numbers below 8."""

    def __contains__(self, value):
        return isinstance(value, int) and value in (0, 2, 4, 6)

    def __iter__(self):
        return iter((0, 2, 4, 6))

    def __len__(self):
        return 4


class _Mixed(Protocol):
    """The center of a star carries a flag its leaves lack."""

    name = "mixed"

    def variables(self, network, p):
        specs = (comm("C", IntRange(1, 4)), comm("E", _Parity()),
                 const("K", IntRange(0, 9)))
        if network.degree(p) > 1:
            specs += (comm("F", FiniteSet(("x", "y", "z"))),)
        return specs

    def constant_values(self, network, p):
        return {"K": network.degree(p)}

    def actions(self):
        return (GuardedAction("noop", lambda ctx: False, lambda ctx: None),)

    def is_legitimate(self, network, config):
        return True


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _bad_configuration(case):
    """``(protocol, network, states, message)`` of one refused start."""
    net = ring(8)
    if case in ("out-of-set", "wrong-constant"):
        proto = MISProtocol(net, greedy_coloring(net))
    elif case == "int-flag":
        proto = MatchingProtocol(net, greedy_coloring(net))
    else:
        proto = ColoringProtocol.for_network(net)
    states = proto.arbitrary_configuration(net, random.Random(3)).as_dict()
    if case == "out-of-range":
        states[0]["C"] = 99
        message = "value 99 of C.0 outside its domain"
    elif case == "out-of-set":
        states[0]["S"] = "bogus"
        message = "value 'bogus' of S.0 outside its domain"
    elif case == "wrong-constant":
        held = states[0]["C"]
        states[0]["C"] = next(c for c in proto.colors.values() if c != held)
        message = (f"constant C.0 holds {states[0]['C']!r}, "
                   f"expected {held!r}")
    elif case == "missing":
        del states[5]
        message = "missing: [5]"
    elif case == "extra":
        states[99] = dict(states[0])
        message = "extra: [99]"
    elif case == "bool-color":
        states[0]["C"] = True
        message = "value True of C.0 outside its domain"
    else:  # int-flag
        states[0]["M"] = 1
        message = "value 1 of M.0 outside its domain"
    return proto, net, states, message


CASES = ("out-of-range", "out-of-set", "wrong-constant", "missing", "extra",
         "bool-color", "int-flag")


class TestValidationParity:
    @pytest.mark.parametrize("case", CASES)
    def test_constructor_and_setter_refuse_alike(self, case):
        """Every engine refuses the same start with the same message,
        and an assignment leaves the run on its old state."""
        proto, net, states, message = _bad_configuration(case)
        errors = set()
        for engine in ENGINES:
            with pytest.raises(DomainError, match=re.escape(message)) as err:
                Simulator(proto, net, seed=3, engine=engine,
                          config=Configuration(states))
            errors.add(str(err.value))
            sim = Simulator(proto, net, seed=3, engine=engine)
            old = sim.config
            before = old.as_dict()
            with pytest.raises(DomainError, match=re.escape(message)) as err:
                sim.config = Configuration(states)
            errors.add(str(err.value))
            assert sim.config is old and old.as_dict() == before
        assert len(errors) == 1

    @pytest.mark.parametrize("protocol, state", [
        ("coloring", {"C": True}),
        ("matching", {"M": 1}),
    ], ids=["bool-color", "int-flag"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fault_injection_refuses_the_type_cases(self, protocol, state,
                                                    engine):
        net = ring(8)
        sim = Simulator(protocol_registry.build(protocol, net), net,
                        seed=3, engine=engine)
        before = sim.config.as_dict()
        (name, value), = state.items()
        with pytest.raises(DomainError,
                           match=re.escape(f"value {value!r} invalid for "
                                           f"{name}.0")):
            adversarial_reset(sim, state)
        assert sim.config.as_dict() == before
        assert sim.fault_log == []

    @pytest.mark.parametrize("slot, value, message", [
        (1, 7, "value 7 of cur.3 outside its domain"),
        (0, 0, "value 0 of C.3 outside its domain"),
        (0, True, "value True of C.3 outside its domain"),
        (1, 1.0, "value 1.0 of cur.3 outside its domain"),
    ], ids=["varying-bounds", "shared-bounds", "bool", "float"])
    def test_drawn_columns_take_a_range_check(self, slot, value, message):
        """Columns drawn for the run's own spec map are range-checked
        per slot and refused with the row check's message."""
        net = ring(8)
        proto = ColoringProtocol.for_network(net)
        specs_of = proto.specs_of(net)
        config = proto.arbitrary_configuration(net, random.Random(1),
                                               specs_of=specs_of)
        proto.validate_configuration(net, config, specs_of=specs_of)
        assert config.drawn_from(specs_of)  # checked without a decode
        config.drawn_columns(net.process_index()).data[slot][3] = value
        with pytest.raises(DomainError, match=re.escape(message)):
            proto.validate_configuration(net, config, specs_of=specs_of)

    def test_drawn_codes_and_constants_are_checked(self):
        net = ring(8)
        proto = MatchingProtocol(net, greedy_coloring(net))
        specs_of = proto.specs_of(net)
        slots = proto.arbitrary_configuration(
            net, random.Random(1), specs_of=specs_of).layout_of(0).index
        for name, value, message in [
                ("M", 2, "value '<index 2>' of M.4"),
                ("C", True, "value True of C.4")]:
            config = proto.arbitrary_configuration(
                net, random.Random(1), specs_of=specs_of)
            config.drawn_columns(net.process_index()).data[
                slots[name]][4] = value
            with pytest.raises(DomainError, match=re.escape(message)):
                proto.validate_configuration(net, config,
                                             specs_of=specs_of)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_adopted_columns_are_checked_in_their_current_state(self,
                                                                 engine):
        """Once an engine has run from the drawn columns, validating
        with the run's own spec map checks the state the run holds now,
        not the drawn start."""
        spec = ExperimentSpec(
            protocol="coloring", topology="sparse",
            topology_params={"n": 60, "avg_degree": 3, "seed": 9},
            scheduler="synchronous", seed=5, engine=engine,
        )
        sim = spec.build_simulator()
        drive_simulator(sim, max_rounds=spec.max_rounds)
        p = sim.network.processes[3]
        if engine == "batch-resident":
            assert sim.engine.batch_active
            store = sim.engine._store
            slot = store.layout.index["C"]
            held = int(store.cols[slot][3])

            def put(value):
                store.write(slot, [3], [value])
        else:
            held = sim.config.get(p, "C")

            def put(value):
                sim.config.set(p, "C", value)
        put(99)
        with pytest.raises(DomainError,
                           match=re.escape(f"value 99 of C.{p!r} outside")):
            sim.protocol.validate_configuration(sim.network, sim.config,
                                                specs_of=sim.specs_of)
        put(held)
        sim.protocol.validate_configuration(sim.network, sim.config,
                                            specs_of=sim.specs_of)
        oracle = spec.variant(engine="incremental").build_simulator()
        drive_simulator(oracle, max_rounds=spec.max_rounds)
        assert sim.config == oracle.config

    def test_drawn_for_another_spec_map_is_checked_by_row(self):
        net = ring(8)
        proto = ColoringProtocol.for_network(net)
        config = proto.arbitrary_configuration(net, random.Random(1))
        specs_of = proto.specs_of(net)
        assert not config.drawn_from(specs_of)
        del specs_of[7]
        with pytest.raises(DomainError, match=re.escape("extra: [7]")):
            proto.validate_configuration(net, config, specs_of=specs_of)


# ----------------------------------------------------------------------
# The spec map: one tuple per distinct degree
# ----------------------------------------------------------------------
class TestDegreeSpecs:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_spec_map_equals_the_per_process_declarations(self, protocol,
                                                          topology):
        """``specs_of`` maps the degree sequence: in process order, the
        very tuple ``variables`` returns, one object per degree (the
        draw and the column store group processes by tuple identity)."""
        name, params = TOPOLOGIES[topology]
        net = topology_registry.build(name, **params)
        proto = protocol_registry.build(protocol, net)
        specs_of = proto.specs_of(net)
        assert list(specs_of) == list(net.processes)
        per_degree = {}
        for p in net.processes:
            specs = specs_of[p]
            assert specs is proto.variables(net, p)
            assert per_degree.setdefault(net.degree(p), specs) is specs
        assert all(a is b for a, b in zip(proto.specs_of(net).values(),
                                          specs_of.values()))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_spec_map_carries_the_plans_a_scan_finds(self, protocol,
                                                     topology):
        name, params = TOPOLOGIES[topology]
        net = topology_registry.build(name, **params)
        proto = protocol_registry.build(protocol, net)
        specs_of = proto.specs_of(net)
        assert isinstance(specs_of, SpecMap)
        assert type(specs_of).__getitem__ is dict.__getitem__
        plans, plan_ids = spec_plans(specs_of, net.processes)
        assert (plans, plan_ids) == spec_plans(dict(specs_of), net.processes)
        assert all(a is b for a, b in zip(
            plans, spec_plans(dict(specs_of), net.processes)[0]))
        # asked for other processes, or another order, it scans
        for pids in (net.processes[::-1], net.processes[1:]):
            assert (spec_plans(specs_of, pids)
                    == spec_plans(dict(specs_of), pids))

    @pytest.mark.parametrize("write", [
        "setitem", "delitem", "ior", "clear", "pop", "popitem",
        "setdefault", "update",
    ])
    def test_every_write_drops_the_plans(self, write):
        """A written spec map never answers with the plans it was built
        with: after any write, ``spec_plans`` scans it."""
        net = star(4)  # degrees 4, 1, 1, 1, 1
        proto = ColoringProtocol.for_network(net)
        specs_of = proto.specs_of(net)
        other = (comm("C", IntRange(1, 2)),)
        edit = {
            "setitem": lambda m: m.__setitem__(1, other),
            "delitem": lambda m: m.__delitem__(1),
            "ior": lambda m: m.__ior__({1: other}),
            "clear": lambda m: m.clear(),
            "pop": lambda m: m.pop(1),
            "popitem": lambda m: m.popitem(),
            "setdefault": lambda m: m.setdefault(9, other),
            "update": lambda m: m.update({1: other}),
        }[write]
        edit(specs_of)
        assert specs_of.plans is None
        pids = list(specs_of)
        assert spec_plans(specs_of, pids) == spec_plans(dict(specs_of), pids)

    @pytest.mark.parametrize("make,name", [
        (lambda net: ColoringProtocol(2), "COLORING"),
        (lambda net: MISProtocol(net, {0: 1}), "MIS"),
        (lambda net: MatchingProtocol(net, {0: 1}), "MATCHING"),
    ])
    def test_a_process_without_neighbors_is_one_topology_error(self, make,
                                                                name):
        net = chain(1)
        proto = make(net)
        message = f"{name} requires every process to have a neighbor"
        for declare in (lambda: proto.specs_of(net),
                        lambda: proto.variables(net, 0)):
            with pytest.raises(TopologyError, match=message):
                declare()


# ----------------------------------------------------------------------
# Per-process metrics, drained when read
# ----------------------------------------------------------------------
class TestPerProcessMetrics:
    @pytest.mark.parametrize("scheduler", ["synchronous", "central"])
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_equal_to_incremental(self, protocol, scheduler):
        """Read after a fused run (synchronous) or a per-step one
        (central), then again after more steps, the columnar engine's
        per-process metrics equal the scalar engine's."""
        sims = []
        for engine in ("incremental", "batch-resident"):
            spec = ExperimentSpec(
                protocol=protocol, topology="sparse",
                topology_params={"n": 60, "avg_degree": 3, "seed": 9},
                scheduler=scheduler, seed=5, engine=engine,
                metrics="aggregate",
            )
            sim = spec.build_simulator()
            drive_simulator(sim, max_rounds=spec.max_rounds)
            sims.append(sim)
        for extra in (0, 7):
            for sim in sims:
                sim.run_steps(extra)
            scalar, columnar = (sim.metrics for sim in sims)
            assert columnar.activations == scalar.activations
            assert columnar.read_sets == scalar.read_sets
            assert (columnar.observed_stability()
                    == scalar.observed_stability())
            assert columnar.summary() == scalar.summary()


# ----------------------------------------------------------------------
# A fused trial builds neither rows nor per-process dicts
# ----------------------------------------------------------------------
@pytest.fixture
def telemetry_on():
    was = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    yield TELEMETRY
    TELEMETRY.enabled = was
    TELEMETRY.reset()


def _row(sim, report):
    return report, sim.metrics.trial_measures()


def test_fused_coloring_trial_builds_no_row_and_no_dict(telemetry_on):
    spec = ExperimentSpec(
        protocol="coloring", topology="sparse",
        topology_params={"n": 2000, "avg_degree": 3, "seed": 11},
        scheduler="synchronous", seed=3,
        engine="batch-resident", metrics="aggregate",
    )
    sim = spec.build_simulator()
    index = sim.network.process_index()
    assert sim.engine._order is index and sim.engine._store.pindex is index
    row = _row(sim, drive_simulator(sim, max_rounds=spec.max_rounds))
    assert sim.config.drawn_columns(index) is not None, "a row was decoded"
    assert sim.metrics._activations is None
    assert sim.metrics._read_sets is None
    counters = telemetry_on.snapshot()["counters"]
    assert counters.get("columns.materializations", 0) == 0
    oracle = spec.variant(engine="incremental").build_simulator()
    assert row == _row(oracle, drive_simulator(oracle,
                                               max_rounds=spec.max_rounds))
    assert telemetry_on.snapshot()["counters"][
        "columns.materializations"] == 1  # the scalar run's first read


# ----------------------------------------------------------------------
# One slot format: the draw, the range check and the store read one table
# ----------------------------------------------------------------------
class _ConstSet(Protocol):
    """A drawn color, and a constant ``K`` from a finite set (``bad``
    puts one process's constant outside it)."""

    name = "const-set"
    specs = (comm("C", IntRange(1, 3)), const("K", FiniteSet(("a", "b"))))

    def __init__(self, bad=None):
        self.bad = bad

    def variables(self, network, p):
        return self.specs

    def constant_values(self, network, p):
        if self.bad is not None and p == self.bad[0]:
            return {"K": self.bad[1]}
        return {"K": "ab"[p % 2]}

    def actions(self):
        return (GuardedAction("noop", lambda ctx: False, lambda ctx: None),)

    def is_legitimate(self, network, config):
        return True


class _FlagByDegree(DegreeSpecs):
    """``F`` ranges over ``{0, 1}`` at degree 1 and over ``{False,
    True}`` elsewhere: equal values, of other types."""

    name = "flag-by-degree"

    def specs_for_degree(self, degree):
        return (comm("F", FiniteSet((0, 1) if degree == 1
                                    else (False, True))),)

    def actions(self):
        def raise_flag(ctx):
            ctx.set("F", 1 if ctx.degree == 1 else True)

        return (GuardedAction("raise", lambda ctx: not ctx.get("F"),
                              raise_flag),)

    def is_legitimate(self, network, config):
        return all(config.get(p, "F") for p in network.processes)


def _no_kernel(protocol, store):
    raise AssertionError("a column store was built")


def _by_name(store):
    return {name: (store.cols[store.slot(name)].tolist(),
                   store.reg_bits(name).tolist())
            for name in store.layout.names}


class TestOneSlotFormat:
    def test_constant_set_is_adopted_without_a_decode(self, telemetry_on):
        net = ring(12)
        proto = _ConstSet()
        specs_of = proto.specs_of(net)
        config = proto.arbitrary_configuration(net, random.Random(2),
                                               specs_of=specs_of)
        proto.validate_configuration(net, config, specs_of=specs_of)
        store = ColumnStore.try_build(net, config, specs_of)
        assert store.table is config.drawn_columns(
            net.process_index()).table
        counters = telemetry_on.snapshot()["counters"]
        assert counters.get("columns.materializations", 0) == 0
        assert store.cols[store.slot("K")].tolist() == [p % 2 for p in
                                                        net.processes]
        copy = ColumnStore.try_build(net, Configuration(config.as_dict()),
                                     specs_of)
        assert ([col.tolist() for col in store.cols]
                == [col.tolist() for col in copy.cols])
        assert [config.get(p, "K") for p in net.processes] == ["a", "b"] * 6

    def test_sets_of_equal_values_and_other_types_keep_rows(self,
                                                            monkeypatch):
        net = chain(3)  # degrees 1, 2, 1
        proto = _FlagByDegree()
        specs_of = proto.specs_of(net)
        table = SlotTable(spec_plans(specs_of, net.processes)[0])
        assert table.codecs == [None]
        assert table.refusal == "unsupported domain"
        config = proto.arbitrary_configuration(net, random.Random(0),
                                               specs_of=specs_of)
        for start in (config, Configuration(config.as_dict())):
            assert ColumnStore.try_build(net, start, specs_of) is None
        monkeypatch.setitem(BATCH_KERNELS, _FlagByDegree, _no_kernel)
        traces = []
        for engine in ("scan", "batch-resident"):
            sim = Simulator(proto, net, seed=1, engine=engine)
            recorder = TraceRecorder(sim, seed=1)
            recorder.run_steps(4)
            traces.append(recorder.trace.to_jsonl())
        assert sim.engine.name == "incremental"
        assert traces[0] == traces[1]
        assert [sim.config.get(p, "F") for p in net.processes] == [1, True, 1]
        assert [type(sim.config.get(p, "F")) for p in net.processes] == [
            int, bool, int]

    @pytest.mark.parametrize("value", ["q", 0, True])
    @pytest.mark.parametrize("engine", ENGINES + ("scan",))
    def test_constant_outside_its_set_is_refused(self, engine, value):
        """An index would be a valid code (``0``) or equal one (``True``);
        the refusal names the value, as the row check does."""
        with pytest.raises(DomainError, match=re.escape(
                f"value {value!r} of K.5 outside its domain")):
            Simulator(_ConstSet(bad=(5, value)), ring(8), seed=3,
                      engine=engine)

    def test_loaded_start_maps_slots_by_name(self):
        net = topology_registry.build("sparse", n=40, avg_degree=3, seed=4)
        proto = MatchingProtocol(net, greedy_coloring(net))
        specs_of = proto.specs_of(net)
        config = proto.arbitrary_configuration(net, random.Random(5),
                                               specs_of=specs_of)
        store = ColumnStore.try_build(net, config, specs_of)
        loaded = configuration_from_json(configuration_to_json(config))
        layout = loaded.layout_of(net.processes[0])
        assert layout.names == ("C", "M", "PR", "cur")
        assert layout is not store.layout
        other = ColumnStore.try_build(net, loaded, specs_of)
        assert other.layout is layout
        assert _by_name(other) == _by_name(store)
        for each in (store, other):
            assert each.encode(each.slot("M"), True) == 1

    def test_a_set_holding_equal_values_is_not_coded(self):
        """``1`` and ``True`` would share one index, so a write-back
        would turn a ``1`` into ``True``."""
        table = SlotTable([(comm("X", FiniteSet((1, True))),)])
        assert table.codecs == [None]
        assert table.refusal == "unsupported domain"

    def test_a_table_of_several_layouts_codes_nothing(self):
        plans = spec_plans(_Mixed().specs_of(star(5)), star(5).processes)[0]
        table = SlotTable(plans)
        assert table.layout is None and table.refusal == "non-uniform layout"
        assert table.codecs == [None] * 4


class TestDegreeOnlyProtocols:
    MAKERS = {
        "COLORING-k1": lambda net: WindowColoringProtocol(2, 1),
        "MIS-k1": lambda net: WindowMISProtocol(net, {0: 1}, 1),
        "COLORING-full": lambda net: FullReadColoring(2),
        "MIS-full": lambda net: FullReadMIS(net, {0: 1}),
        "MATCHING-full": lambda net: FullReadMatching(net, {0: 1}),
        "COLORING-transform-1eff": lambda net: make_one_efficient(
            coloring_spec(2)),
    }

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_a_process_without_neighbors_is_one_topology_error(self, name):
        net = chain(1)
        proto = self.MAKERS[name](net)
        message = f"{name} requires every process to have a neighbor"
        for declare in (lambda: proto.specs_of(net),
                        lambda: proto.variables(net, 0)):
            with pytest.raises(TopologyError, match=re.escape(message)):
                declare()

    @pytest.mark.parametrize("protocol",
                             sorted(protocol_registry) + ["transform"])
    def test_one_tuple_per_degree(self, protocol):
        net = topology_registry.build("sparse", n=300, avg_degree=3, seed=5)
        proto = (make_one_efficient(coloring_spec(net.max_degree + 1))
                 if protocol == "transform"
                 else protocol_registry.build(protocol, net))
        specs_of = proto.specs_of(net)
        assert isinstance(specs_of, SpecMap)
        assert (len({id(specs) for specs in specs_of.values()})
                == len({net.degree(p) for p in net.processes}))
        assert spec_plans(specs_of, net.processes) is specs_of.plans


class TestOneProcessTuple:
    def test_processes_is_one_tuple(self):
        net = topology_registry.build("sparse", n=50, avg_degree=3, seed=1)
        assert type(net.processes) is tuple
        assert net.processes is net.processes
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=0)
        assert sim._processes is net.processes

    def test_spec_plans_and_aligned_rows_compare_by_value(self):
        net = ring(9)
        proto = ColoringProtocol.for_network(net)
        specs_of = proto.specs_of(net)
        for pids in (net.processes, list(net.processes)):
            assert spec_plans(specs_of, pids) is specs_of.plans
        config = Configuration(
            proto.arbitrary_configuration(net, random.Random(1)).as_dict())
        for pids in (net.processes, list(net.processes)):
            assert config.aligned_storage(pids) is not None
        assert config.aligned_storage(net.processes[::-1]) is None
