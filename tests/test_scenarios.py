"""The scenario subsystem: DSL, runtime, churn, spec/campaign threading.

Covers the PR's acceptance surface:

* a **no-op scenario reproduces byte-identical JSONL traces** (the named
  RNG streams keep scenario draws off the scheduler/protocol stream);
* scenarios **round-trip through JSON and ExperimentSpec**, and run
  identically under serial and pooled campaign execution (resume
  included);
* **churn on the incremental engine yields enabled sets byte-identical
  to the scan engine** across protocols × schedulers × seeds, and the
  self-auditing debug engine accepts scenario events;
* fault injectors return full :class:`~repro.faults.FaultReport`\\ s and
  the trace records them.
"""

import json
import random

import pytest

from repro.api import Campaign, ExperimentSpec
from repro.core import (
    RngStreams,
    Simulator,
    Trace,
    TraceRecorder,
    derive_seed,
)
from repro.core.exceptions import TopologyError
from repro.faults import FaultReport, corrupt_fraction, measure_recovery
from repro.graphs import (
    grid,
    missing_edges,
    non_bridge_edges,
    removable_nodes,
    ring,
)
from repro.protocols import ColoringProtocol
from repro.scenarios import (
    AtRound,
    AtStep,
    Churn,
    CorruptFraction,
    EveryRounds,
    Scenario,
    ScenarioEvent,
    SwapScheduler,
    at_round,
    at_step,
    after_silence,
    build_scenario,
    effect_from_dict,
    every_rounds,
    scenario_registry,
    trigger_from_dict,
    with_probability,
)
from repro.api import protocol_registry, scheduler_registry, topology_registry

PROTOCOLS = ("coloring", "mis", "matching")
SCHEDULERS = (
    ("synchronous", {}),
    ("central", {}),
    ("random-subset", {"p_act": 0.4}),
    ("central", {"enabled_only": True}),
)
SEEDS = (0, 7)


def build_sim(protocol="coloring", topology=("ring", {"n": 12}), scheduler=("synchronous", {}),
              seed=0, engine="incremental", scenario=None, **kwargs):
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


# ----------------------------------------------------------------------
# Named RNG streams
# ----------------------------------------------------------------------
class TestRngStreams:
    def test_scheduler_and_protocol_share_the_historical_root(self):
        streams = RngStreams(42)
        assert streams.scheduler is streams.root
        assert streams.protocol is streams.root
        # the root is seeded exactly like the old single run RNG
        assert streams.root.random() == random.Random(42).random()

    def test_scenario_stream_is_independent_of_the_root(self):
        a, b = RngStreams(42), RngStreams(42)
        root_before = [a.root.random() for _ in range(5)]
        # interleave scenario draws on b — the root sequence must not move
        drawn = []
        for _ in range(5):
            b.scenario.random()
            drawn.append(b.root.random())
        assert drawn == root_before

    def test_named_streams_are_distinct_and_reproducible(self):
        s = RngStreams(7)
        assert s.stream("scenario") is s.scenario
        assert s.stream("scenario") is not s.stream("other")
        assert derive_seed(7, "scenario") != derive_seed(7, "other")
        assert derive_seed(7, "scenario") == derive_seed(7, "scenario")
        assert RngStreams(7).scenario.random() == RngStreams(7).scenario.random()


# ----------------------------------------------------------------------
# Satellite: no-op scenario == scenario-free run, byte for byte
# ----------------------------------------------------------------------
class TestNoopByteIdentity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_noop_scenario_traces_byte_identical(self, protocol, scheduler,
                                                 sched_params):
        for seed in SEEDS:
            jsonls = []
            for scenario in (None, build_scenario("noop")):
                sim = build_sim(protocol, scheduler=(scheduler, sched_params),
                                seed=seed, scenario=scenario)
                recorder = TraceRecorder(sim, seed=seed)
                recorder.run_steps(25)
                jsonls.append(recorder.trace.to_jsonl())
            assert jsonls[0] == jsonls[1], (protocol, scheduler, seed)

    def test_probabilistic_scenario_keeps_scheduler_sequence(self):
        """Even a firing scenario must not move the scheduler's draws:
        the activation sets of a random-subset run are unchanged when a
        probabilistic corruption scenario rides along."""
        activations = []
        scenario = Scenario("chaos", events=(
            ScenarioEvent(with_probability(0.5, per="step"),
                          CorruptFraction(0.2, ("internal",))),
        ), track_recovery=False)
        for sc in (None, scenario):
            sim = build_sim("mis", scheduler=("random-subset", {"p_act": 0.5}),
                            seed=3, scenario=sc)
            activations.append(
                [sim.step().activated for _ in range(30)]
            )
        assert activations[0] == activations[1]


# ----------------------------------------------------------------------
# DSL triggers
# ----------------------------------------------------------------------
class TestTriggers:
    def test_at_step_fires_once_at_its_boundary(self):
        scenario = Scenario("s", (ScenarioEvent(at_step(3),
                                                CorruptFraction(0.5)),))
        sim = build_sim(scenario=scenario)
        sim.run_steps(10)
        assert len(sim.scenario_runtime.applied) == 1
        assert sim.scenario_runtime.applied[0].step == 3
        assert sim.scenario_runtime.exhausted

    def test_every_rounds_fires_periodically(self):
        scenario = Scenario("s", (ScenarioEvent(every_rounds(2),
                                                CorruptFraction(0.3)),),
                            track_recovery=False)
        sim = build_sim(scenario=scenario)  # synchronous: 1 round/step
        sim.run_rounds(9)
        fired_at = [a.round for a in sim.scenario_runtime.applied]
        assert fired_at == [2, 4, 6, 8]
        assert not sim.scenario_runtime.exhausted

    def test_after_silence_fires_at_first_silent_boundary(self):
        scenario = Scenario("s", (ScenarioEvent(after_silence(),
                                                CorruptFraction(1.0)),))
        sim = build_sim("mis", seed=2, scenario=scenario)
        sim.run_until_silent()
        assert not sim.scenario_runtime.applied  # not fired yet
        while not sim.scenario_runtime.exhausted:
            sim.run_rounds(1)
        assert len(sim.scenario_runtime.applied) == 1
        # the fault disturbed the silent configuration
        assert sim.scenario_runtime.silence_recoveries or not sim.is_silent()

    def test_with_probability_validates(self):
        with pytest.raises(ValueError):
            with_probability(1.5)
        with pytest.raises(ValueError):
            with_probability(0.5, per="nope")

    @pytest.mark.parametrize("make,field", [
        # the first step compared an int with the str
        (lambda: AtRound("3"), "AtRound.round"),
        (lambda: AtStep(True), "AtStep.step"),
        # fired at rounds 3 and 5
        (lambda: EveryRounds(2.5), "EveryRounds.period"),
        (lambda: EveryRounds(2, start=1.5), "EveryRounds.start"),
        # failed only when the event fired
        (lambda: Churn("add-node", degree=2.5), "Churn.degree"),
        (lambda: Churn("remove-node", min_n=True), "Churn.min_n"),
        (lambda: trigger_from_dict({"kind": "at-round", "round": "3"}),
         "AtRound.round"),
        (lambda: effect_from_dict({"kind": "churn", "operation": "add-node",
                                   "degree": 2.5}), "Churn.degree"),
        # True * 4 operations is the int 4: ran as period 1
        (lambda: build_scenario("churn", {"period_rounds": True}),
         "churn.period_rounds"),
        (lambda: build_scenario("periodic-faults", {"period_rounds": True}),
         "EveryRounds.period"),
    ])
    def test_integer_fields_are_checked_when_built(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            make()

    def test_bad_scenario_value_fails_before_the_run(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8}, scenario="churn",
                              scenario_params={"period_rounds": True})
        with pytest.raises(ValueError, match="period_rounds"):
            spec.build_simulator()

    def test_scenario_round_trip(self):
        scenario = Scenario(
            "mix",
            events=(
                ScenarioEvent(at_step(5), CorruptFraction(0.25, ("comm",))),
                ScenarioEvent(every_rounds(3, start=6), Churn("add-edge")),
                ScenarioEvent(at_round(9), SwapScheduler("central",
                                                         {"enabled_only": True})),
                ScenarioEvent(with_probability(0.1), CorruptFraction(0.1)),
                ScenarioEvent(after_silence(), CorruptFraction(0.9)),
            ),
            horizon_rounds=50,
            track_availability=True,
        )
        assert Scenario.from_json(scenario.to_json()) == scenario
        # and the registry's generic "script" scenario accepts the raw DSL
        rebuilt = scenario_registry.build(
            "script",
            events=[e.to_dict() for e in scenario.events],
            horizon_rounds=50,
            track_availability=True,
            scenario_name="mix",
        )
        assert rebuilt == scenario


# ----------------------------------------------------------------------
# Satellite: FaultReport auditability
# ----------------------------------------------------------------------
class TestFaultReports:
    def test_corrupt_fraction_reports_victims_and_kinds(self):
        sim = build_sim(seed=1)
        report = corrupt_fraction(sim, 0.5, random.Random(9), kinds=("comm",))
        assert isinstance(report, FaultReport)
        assert report.kind == "corrupt"
        assert len(report) == 6 and len(list(report)) == 6
        assert report.kinds == ("comm",)
        assert all(vars == ("C",) for vars in report.vars_written.values())
        assert sim.fault_log[-1] is report
        assert sim.metrics.faults_injected == 1
        assert sim.metrics.fault_victims == 6

    def test_faults_land_in_the_trace(self):
        scenario = Scenario("s", (ScenarioEvent(at_step(2),
                                                CorruptFraction(0.5, ("comm",))),))
        sim = build_sim("mis", seed=4, scenario=scenario)
        recorder = TraceRecorder(sim, seed=4)
        recorder.run_steps(6)
        trace = recorder.trace
        assert len(trace.faults) == 1
        fault = trace.faults[0]
        assert fault.step == 2 and fault.kind == "corrupt"
        assert fault.kinds == ("comm",)
        # the audit line round-trips through JSONL
        replayed = Trace.from_jsonl(trace.to_jsonl())
        assert replayed.faults == trace.faults
        assert replayed.events == trace.events
        # and sits before the step it preceded
        lines = trace.to_jsonl().splitlines()
        fault_pos = next(i for i, l in enumerate(lines) if '"fault"' in l)
        assert json.loads(lines[fault_pos + 1])["step"] == 2


# ----------------------------------------------------------------------
# Topology mutation
# ----------------------------------------------------------------------
class TestNetworkMutation:
    def test_edge_add_remove_round_trip_keeps_ports_stable(self):
        net = ring(6)
        grown = net.with_edge_added(0, 3)
        assert grown.are_neighbors(0, 3)
        assert grown.degree(0) == 3
        # untouched processes keep their exact port order
        assert grown.neighbors(1) == net.neighbors(1)
        # the new neighbor sits behind the highest port
        assert grown.neighbor_at(0, 3) == 3
        back = grown.with_edge_removed(0, 3)
        assert back.neighbors(0) == net.neighbors(0)

    def test_edge_removal_refuses_to_disconnect(self):
        net = topology_registry.build("chain", n=4)
        with pytest.raises(TopologyError):
            net.with_edge_removed(1, 2)

    def test_node_add_and_remove(self):
        net = ring(5)
        grown = net.with_node_added("joiner", [0, 2])
        assert grown.n == 6 and grown.degree("joiner") == 2
        assert grown.neighbor_at(0, grown.degree(0)) == "joiner"
        shrunk = grown.with_node_removed("joiner")
        assert shrunk.n == 5 and "joiner" not in shrunk
        with pytest.raises(TopologyError):
            net.with_node_removed("ghost")

    def test_safe_candidate_helpers(self):
        chain_net = topology_registry.build("chain", n=5)
        assert non_bridge_edges(chain_net) == []  # every chain edge is a bridge
        ring_net = ring(6)
        assert len(non_bridge_edges(ring_net)) == 6
        # chain interior nodes are cut vertices; only the two ends move
        assert removable_nodes(chain_net) == [0, 4]
        assert removable_nodes(ring_net, min_n=6) == []
        assert (0, 2) in missing_edges(ring_net)
        assert len(missing_edges(ring_net, limit=3)) == 3

    def test_rebind_network_migrates_states_and_constants(self):
        sim = build_sim("mis", topology=("gnp", {"n": 12, "p": 0.3, "seed": 1}),
                        seed=2)
        sim.run_until_silent()
        s_before = {p: sim.config.get(p, "S") for p in sim.network.processes}
        grown = sim.network.with_node_added("j", list(sim.network.processes)[:2])
        sim.rebind_network(grown)
        # the protocol was rebuilt with a proper coloring of the new net
        sim.protocol.validate_configuration(sim.network, sim.config)
        assert "j" in sim.network
        # surviving in-domain values (the MIS flags) were carried over
        carried = {p: sim.config.get(p, "S") for p in s_before}
        assert carried == s_before
        # metrics and rounds follow the new process set
        assert "j" in sim.metrics.activations
        sim.run_until_silent()
        assert sim.is_legitimate()


# ----------------------------------------------------------------------
# Acceptance: churn on incremental == scan, and the debug engine agrees
# ----------------------------------------------------------------------
CHURN_SCENARIO_PARAMS = {"period_rounds": 2, "fraction": 0.25, "min_n": 6}


class TestScenarioEngineEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_periodic_faults_rows_match_across_engines(self, protocol):
        """Availability is sampled after every step and recovery at
        round boundaries.  The columnar engines answer those verdicts
        from their kernels, and the rows must equal the scalar
        predicate's, audited under ``batch-debug``."""
        rows = [
            ExperimentSpec(
                protocol=protocol, topology="gnp",
                topology_params={"n": 14, "p": 0.3, "seed": 2}, seed=6,
                engine=engine, scenario="periodic-faults",
                scenario_params={"period_rounds": 8, "fraction": 0.3,
                                 "total_rounds": 40},
            ).run().to_dict()
            for engine in ("incremental", "batch-resident", "batch-debug")
        ]
        assert rows[0] == rows[1] == rows[2], protocol
        assert rows[0]["faults_injected"] == 4
        assert 0.0 < rows[0]["availability"] < 1.0
        assert rows[0]["mean_recovery_rounds"] > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_churn_enabled_sets_match_scan(self, protocol, scheduler,
                                           sched_params):
        for seed in SEEDS:
            sims = [
                build_sim(protocol, topology=("gnp", {"n": 10, "p": 0.35,
                                                      "seed": 4}),
                          scheduler=(scheduler, sched_params), seed=seed,
                          engine=engine,
                          scenario=build_scenario("churn",
                                                  CHURN_SCENARIO_PARAMS))
                for engine in ("incremental", "scan")
            ]
            # Drive until several churn periods elapsed (the central
            # daemon needs many steps per round), comparing the engines'
            # enabled sets at every single step boundary.
            step = 0
            while sims[0].round_tracker.completed_rounds < 7 and step < 600:
                enabled = [sim.enabled_processes() for sim in sims]
                assert enabled[0] == enabled[1], (protocol, scheduler, seed,
                                                  step)
                records = [sim.step() for sim in sims]
                assert records[0] == records[1]
                step += 1
            assert sims[0].config == sims[1].config
            # churn actually happened and both runs saw the same events
            applied = [
                [(a.step, a.description) for a in sim.scenario_runtime.applied]
                for sim in sims
            ]
            assert applied[0] and applied[0] == applied[1]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_debug_engine_audits_scenario_events(self, protocol):
        """CrossCheckEngine rescans on every query; a scenario whose
        corruption/churn invalidation was too narrow would raise."""
        scenario = Scenario("stress", events=(
            ScenarioEvent(every_rounds(2), CorruptFraction(0.4)),
            ScenarioEvent(every_rounds(3), Churn("add-edge")),
            ScenarioEvent(every_rounds(5), Churn("remove-edge")),
        ), track_recovery=False)
        sim = build_sim(protocol, topology=("gnp", {"n": 9, "p": 0.4,
                                                    "seed": 2}),
                        seed=5, engine="debug", scenario=scenario)
        for _ in range(30):
            sim.step()
            sim.enabled_processes()  # force the audit
        assert sim.scenario_runtime.applied

    def test_add_edge_falls_back_to_enumeration_on_dense_graphs(self):
        """Rejection sampling cannot find a missing edge of an
        almost-complete graph; the enumeration fallback must."""
        net = topology_registry.build("clique", n=6).with_edge_removed(0, 1)
        sim = Simulator(
            ColoringProtocol.for_network(net), net, seed=1,
            protocol_factory=lambda n: ColoringProtocol.for_network(n),
        )
        desc = Churn("add-edge").apply(sim, random.Random(0))
        assert desc is not None
        assert sim.network.are_neighbors(0, 1)  # the only missing edge
        # and a truly complete graph is a skipped no-op
        full = topology_registry.build("clique", n=5)
        sim2 = Simulator(
            ColoringProtocol.for_network(full), full, seed=1,
            protocol_factory=lambda n: ColoringProtocol.for_network(n),
        )
        assert Churn("add-edge").apply(sim2, random.Random(0)) is None

    def test_corruption_leaves_enabled_equal_to_fresh_scan(self):
        sim = build_sim("matching", seed=6)
        corrupt_fraction(sim, 0.5, random.Random(3))
        fresh = Simulator(
            sim.protocol, sim.network, seed=0, engine="scan",
            config=sim.config,
        )
        assert sim.enabled_processes() == fresh.enabled_processes()


# ----------------------------------------------------------------------
# Acceptance: spec / campaign threading
# ----------------------------------------------------------------------
class TestSpecThreading:
    def test_scenario_free_spec_serializes_and_keys_as_before(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8}, seed=1)
        assert "scenario" not in spec.to_dict()
        legacy = {k: v for k, v in spec.to_dict().items()}
        assert ExperimentSpec.from_dict(legacy) == spec
        assert "scenario" not in spec.key()

    def test_scenario_is_a_keyed_axis(self):
        base = ExperimentSpec(protocol="mis", topology="ring",
                              topology_params={"n": 10}, seed=0)
        faulty = base.variant(scenario="single-fault",
                              scenario_params={"fraction": 0.5})
        assert base.key() != faulty.key()
        assert "single-fault" in faulty.key()
        assert faulty.key() != base.variant(
            scenario="single-fault", scenario_params={"fraction": 0.6}
        ).key()
        # engine stays a non-axis even with a scenario attached
        assert faulty.key() == faulty.variant(engine="scan").key()

    def test_scenario_params_require_a_scenario(self):
        with pytest.raises(ValueError, match="scenario_params"):
            ExperimentSpec(protocol="coloring", topology="ring",
                           scenario_params={"fraction": 0.5})

    def test_spec_round_trip_with_scenario(self):
        spec = ExperimentSpec(
            protocol="matching", topology="grid",
            topology_params={"rows": 3, "cols": 3},
            scenario="script",
            scenario_params={"events": [
                {"trigger": {"kind": "at-round", "round": 4},
                 "effect": {"kind": "corrupt-fraction", "fraction": 0.5,
                            "kinds": ["comm"]}},
            ]},
            seed=3,
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        result, clone_result = spec.run(), clone.run()
        assert result == clone_result
        assert result.faults_injected == 1

    def test_campaign_serial_pool_and_resume_agree(self, tmp_path):
        campaign = Campaign.grid(
            protocols=["coloring", "mis"],
            topologies=[("ring", {"n": 8})],
            schedulers=["synchronous"],
            seeds=range(2),
            scenario="single-fault",
            scenario_params={"fraction": 0.5},
        )
        serial = campaign.run()
        pooled = campaign.run(jsonl_path=tmp_path / "sink.jsonl", workers=2)
        assert serial.results == pooled.results
        assert all(r.faults_injected == 1 for r in serial.results)
        resumed = campaign.run(jsonl_path=tmp_path / "sink.jsonl")
        assert resumed.skipped == len(campaign) and resumed.executed == 0
        assert resumed.results == serial.results

    def test_trialresult_loads_pre_scenario_rows(self):
        row = {
            "protocol": "COLORING", "scheduler": "synchronous", "n": 8,
            "m": 8, "delta": 2, "seed": 0, "steps": 5, "rounds": 5,
            "k_efficiency": 1, "max_bits_per_step": 2.0, "total_bits": 10.0,
            "legitimate": True, "silent": True,
        }
        from repro.experiments.runner import TrialResult

        result = TrialResult.from_dict(row)
        assert result.faults_injected == 0
        assert result.availability == 1.0
        with pytest.raises(KeyError):
            TrialResult.from_dict({k: v for k, v in row.items()
                                   if k != "protocol"})

    def test_imperative_churn_needs_protocol_factory(self):
        net = ring(8)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=1)
        with pytest.raises(ValueError, match="protocol_factory"):
            sim.rebind_network(net.with_edge_added(0, 4))


# ----------------------------------------------------------------------
# Canned scenarios and measures
# ----------------------------------------------------------------------
class TestCannedScenarios:
    def test_registry_lists_the_canned_set(self):
        assert {"noop", "single-fault", "periodic-faults",
                "adversarial-reset", "churn", "scheduler-swap",
                "script"} <= set(scenario_registry.names())

    def test_single_fault_measures_recovery(self):
        result = ExperimentSpec(
            protocol="mis", topology="gnp",
            topology_params={"n": 14, "p": 0.3, "seed": 2}, seed=1,
            scenario="single-fault", scenario_params={"fraction": 1.0},
        ).run()
        assert result.silent and result.legitimate
        assert result.faults_injected == 1
        assert result.mean_recovery_rounds > 0
        assert result.post_fault_bits > 0

    def test_periodic_faults_track_availability(self):
        result = ExperimentSpec(
            protocol="coloring", topology="grid",
            topology_params={"rows": 3, "cols": 3}, seed=5,
            scenario="periodic-faults",
            scenario_params={"period_rounds": 5, "fraction": 0.3,
                             "total_rounds": 40},
        ).run()
        assert result.faults_injected >= 7
        assert 0.0 < result.availability < 1.0

    def test_adversarial_reset_after_silence(self):
        result = ExperimentSpec(
            protocol="mis", topology="ring", topology_params={"n": 10},
            seed=2, scenario="adversarial-reset",
            scenario_params={"state": {"S": "Dominator", "cur": 1},
                             "after_silence": True},
        ).run()
        assert result.silent and result.legitimate
        assert result.faults_injected == 1

    def test_scheduler_swap_switches_daemon(self):
        scenario = build_scenario("scheduler-swap", {
            "scheduler": "central", "params": {"enabled_only": True},
            "at_round": 2,
        })
        sim = build_sim("matching", seed=3, scenario=scenario)
        assert sim.scheduler.name == "synchronous"
        sim.run_rounds(4)
        assert sim.scheduler.name == "central"
        assert sim.scheduler.draws_from == "enabled"
        sim.run_until_silent()
        assert sim.is_legitimate()

    def test_measure_recovery_reports_post_fault_bits(self):
        net = grid(3, 3)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=2)
        report = measure_recovery(
            sim, lambda s, r: corrupt_fraction(s, 1.0, r), random.Random(1)
        )
        assert report.disturbed
        assert report.victims == 9
        assert report.rounds_to_recover > 0
        assert report.post_fault_bits > 0

    def test_metrics_off_tier_skips_scenario_measures(self):
        scenario = build_scenario("single-fault",
                                  {"fraction": 0.5, "at_round": 1})
        sim = build_sim("mis", seed=1, metrics="off", scenario=scenario)
        sim.run_rounds(6)
        assert sim.scenario_runtime.applied  # events still fire
        assert sim.metrics.faults_injected == 0  # but nothing streams
