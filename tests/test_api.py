"""Tests for the declarative experiment API (registries, specs,
campaigns)."""

import json

import pytest

import repro
from repro.api import (
    Campaign,
    ExperimentSpec,
    Registry,
    engine_registry,
    execute_trial,
    load_campaign_results,
    protocol_registry,
    scheduler_registry,
    topology_registry,
)
from repro.core import (
    ENGINE_NAMES,
    EnabledSetEngine,
    Scheduler,
    Simulator,
    SynchronousScheduler,
    TopologyError,
    make_scheduler,
)
from repro.core.scheduler import DEFAULT_SCHEDULERS, RoundRobinScheduler
from repro.experiments import TrialResult
from repro.graphs import ring
from repro.protocols import ColoringProtocol


class TestRegistry:
    def test_decorator_registration_and_build(self):
        reg = Registry("widget")

        @reg.register("double")
        def _double(x):
            return 2 * x

        assert "double" in reg
        assert reg.build("double", 21) == 42
        assert reg.names() == ["double"]

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("x", lambda: 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_registry.build("paxos", ring(4))

    def test_bad_params(self):
        with pytest.raises(ValueError, match="bad parameters"):
            topology_registry.build("ring", sides=5)

    def test_builder_internal_typeerror_propagates(self):
        # Only argument-binding failures become ValueError; a TypeError
        # raised inside the builder body keeps its real traceback.
        reg = Registry("widget")

        @reg.register("buggy")
        def _buggy():
            return "a" + 1

        with pytest.raises(TypeError):
            reg.build("buggy")


class TestRegistryCompleteness:
    """Every exported implementation must be resolvable by name."""

    def test_all_paper_protocols_registered(self):
        for name in ("coloring", "mis", "matching",
                     "coloring-full", "mis-full", "matching-full",
                     "window-coloring", "window-mis"):
            assert name in protocol_registry

    def test_every_protocol_builds_and_runs(self):
        for name in protocol_registry:
            result = ExperimentSpec(
                protocol=name, topology="ring", topology_params={"n": 6},
                seed=1,
            ).run()
            assert result.silent, name

    def test_every_topology_builds(self):
        params = {
            "chain": {"n": 4}, "ring": {"n": 4}, "star": {"leaves": 3},
            "clique": {"n": 4}, "grid": {"rows": 2, "cols": 3},
            "torus": {"rows": 3, "cols": 3}, "hypercube": {"dim": 3},
            "binary-tree": {"height": 2},
            "caterpillar": {"spine": 3, "legs_per_node": 1},
            "gnp": {"n": 8, "p": 0.4, "seed": 0},
            "regular": {"n": 8, "d": 3, "seed": 0},
            "sparse": {"n": 10, "avg_degree": 2.5, "seed": 0},
            "tree": {"n": 6, "seed": 0},
        }
        assert sorted(params) == topology_registry.names()
        for name, kwargs in params.items():
            net = topology_registry.build(name, **kwargs)
            assert net.n >= 2

    def test_every_core_scheduler_registered(self):
        net = ring(5)
        assert {cls.name for cls in DEFAULT_SCHEDULERS} == set(
            scheduler_registry.names()
        )
        for name in scheduler_registry:
            sched = scheduler_registry.build(name, net)
            assert isinstance(sched, Scheduler)
            assert sched.name == name

    def test_make_scheduler_covers_all(self):
        assert make_scheduler("fixed-sequence", sequence=[[0]]).name == \
            "fixed-sequence"
        assert make_scheduler("locally-central", network=ring(5)).name == \
            "locally-central"

    def test_every_core_engine_registered(self):
        assert sorted(ENGINE_NAMES) == engine_registry.names()
        for name in engine_registry:
            engine = engine_registry.build(name)
            assert isinstance(engine, EnabledSetEngine)
            assert engine.name == name

    def test_engine_family_has_one_columnar_engine(self):
        # Three scalar engines, the columnar engine and its audited
        # form; the retired write-through "batch" name is rejected.
        assert engine_registry.names() == [
            "batch-debug", "batch-resident", "debug", "incremental", "scan",
        ]
        with pytest.raises(ValueError, match="unknown"):
            engine_registry.build("batch")

    def test_enabled_only_daemons_build_from_params(self):
        net = ring(5)
        for name in ("synchronous", "central", "random-subset",
                     "round-robin", "locally-central"):
            sched = scheduler_registry.build(name, net, enabled_only=True)
            assert sched.draws_from == "enabled"
            assert scheduler_registry.build(name, net).draws_from == "all"


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            protocol="mis", topology="gnp",
            topology_params={"n": 20, "p": 0.2, "seed": 4},
            scheduler="locally-central", scheduler_params={"p_act": 0.7},
            seed=9, max_rounds=1234,
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.key() == spec.key()

    def test_dict_round_trip_defaults(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec"):
            ExperimentSpec.from_dict({"protocol": "coloring",
                                      "topology": "ring", "budget": 3})

    @pytest.mark.parametrize("field,value", [
        ("seed", "3"), ("seed", 3.0), ("seed", True), ("seed", None),
        ("max_rounds", "10"), ("max_rounds", -5), ("max_rounds", 0),
        ("max_rounds", 2.5), ("max_rounds", True),
    ])
    def test_from_dict_rejects_bad_seed_and_round_budget(self, field,
                                                         value):
        """A seed must be an integer and the round budget a positive
        one: ``seed="3"`` would run another trial under the ``s3`` key
        prefix, and a bad budget would fail deep in the run loop."""
        data = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8}).to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=f"ExperimentSpec.{field}"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("field", [
        "protocol_params", "topology_params", "scheduler_params",
    ])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), [1.0, float("nan")],
    ], ids=["nan", "inf", "-inf", "nested-nan"])
    def test_rejects_non_finite_params(self, field, value):
        """NaN and the infinities are no JSON: a spec holding one would
        write a bare ``NaN`` token from ``to_json``, and a NaN
        ``avg_degree`` passed the generator's bounds and built the
        complete graph.  One ``ValueError`` names the field."""
        with pytest.raises(ValueError, match=f"ExperimentSpec.{field}"):
            ExperimentSpec(protocol="coloring", topology="ring",
                           **{field: {"x": value}})

    def test_bad_avg_degree_builds_no_graph(self):
        """A NaN ``avg_degree`` built the complete graph (m = 1770 at
        n = 60) and ``True`` a graph of average degree 1."""
        def spec(avg_degree):
            return ExperimentSpec(
                protocol="coloring", topology="sparse",
                topology_params={"n": 60, "avg_degree": avg_degree,
                                 "seed": 1})

        with pytest.raises(ValueError,
                           match="ExperimentSpec.topology_params"):
            spec(float("nan"))
        with pytest.raises(ValueError,
                           match="ExperimentSpec.topology_params"):
            ExperimentSpec.from_json(
                '{"protocol": "coloring", "topology": "sparse", '
                '"topology_params": {"n": 60, "avg_degree": NaN}}')
        with pytest.raises(TopologyError, match="avg_degree"):
            spec(True).run()

    def test_key_distinguishes_params_and_seed(self):
        base = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        assert base.key() != base.variant(seed=1).key()
        assert base.key() != base.variant(
            topology_params={"n": 9}).key()

    def test_params_normalized_like_json(self):
        # Tuples become lists at construction, so a spec equals its
        # re-parsed self.
        spec = ExperimentSpec(
            protocol="coloring", topology="ring",
            topology_params={"n": 8},
            scheduler="fixed-sequence",
            scheduler_params={"sequence": ((0, 1), (2,))},
        )
        assert spec.scheduler_params == {"sequence": [[0, 1], [2]]}
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_fixed_sequence_scripts_tuple_pids(self):
        """JSON turns a grid pid ``(0, 0)`` into ``[0, 0]``; the
        scheduler maps it back to the network's own pid."""
        spec = ExperimentSpec(
            protocol="coloring", topology="grid",
            topology_params={"rows": 2, "cols": 2},
            scheduler="fixed-sequence",
            scheduler_params={"sequence": [[(0, 0)], [(0, 1), (1, 1)]]},
            metrics="full",
        )
        sim = spec.build_simulator()
        assert sim.step().activated == {(0, 0)}
        assert sim.step().activated == {(0, 1), (1, 1)}
        assert spec.run().silent

    def test_fixed_sequence_rejects_unknown_pids_when_built(self):
        spec = ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": 5},
            scheduler="fixed-sequence",
            scheduler_params={"sequence": [[99], [1]]},
        )
        with pytest.raises(ValueError, match="does not have: 99$"):
            spec.build_scheduler(spec.build_network())
        many = spec.variant(scheduler_params={
            "sequence": [[9, 8, 7], [1, 6, 5, 9], [[0, 1]]]})
        with pytest.raises(ValueError,
                           match=r"9, 8, 7, 6, 5 and 1 more$"):
            many.build_simulator()

    def test_run_matches_execute_trial(self):
        net = ring(8)
        imperative = execute_trial(ColoringProtocol.for_network(net), net,
                                   SynchronousScheduler(), seed=5)
        declarative = ExperimentSpec(
            protocol="coloring", topology="ring",
            topology_params={"n": 8}, seed=5,
        ).run()
        assert declarative == imperative

    def test_build_simulator_uses_spec_scheduler(self):
        sim = ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": 6},
            scheduler="round-robin",
        ).build_simulator()
        assert sim.scheduler.name == "round-robin"

    def test_spec_is_frozen(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        with pytest.raises(AttributeError):
            spec.seed = 3

    def test_engine_field_round_trips_and_builds(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8}, engine="scan")
        assert spec.to_dict()["engine"] == "scan"
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.build_simulator().engine.name == "scan"
        # Specs predating the engine field deserialize to the default.
        legacy = dict(spec.to_dict())
        del legacy["engine"]
        assert ExperimentSpec.from_dict(legacy).engine == "incremental"

    def test_engine_choice_does_not_change_results(self):
        base = ExperimentSpec(
            protocol="mis", topology="gnp",
            topology_params={"n": 14, "p": 0.3, "seed": 2},
            scheduler="central", seed=5,
        )
        results = {
            engine: base.variant(engine=engine).run()
            for engine in engine_registry
        }
        assert len(set(results.values())) == 1

    def test_campaign_grid_engine_applies_to_every_spec(self):
        campaign = Campaign.grid(
            protocols=["coloring"], topologies=[("ring", {"n": 8})],
            seeds=range(2), engine="debug",
        )
        assert all(s.engine == "debug" for s in campaign.specs)

    def test_key_ignores_engine(self):
        # The engine is a run-time strategy, not an experiment axis:
        # switching it must not orphan existing campaign sinks.
        base = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        assert {base.variant(engine=e).key() for e in engine_registry} == \
            {base.key()}

    def test_cli_engine_switch_resumes_and_overrides_from_json(self, tmp_path, capsys):
        from repro.cli import main

        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"grid": {
            "protocols": ["coloring"],
            "topologies": [{"name": "ring", "params": {"n": 8}}],
            "seeds": [0, 1],
        }}))
        out = tmp_path / "results.jsonl"
        assert main(["campaign", "--from-json", str(cfg),
                     "--out", str(out), "--quiet"]) == 0
        # Same campaign under a different engine: the --engine override
        # applies to the loaded specs and every trial resumes.
        assert main(["campaign", "--from-json", str(cfg), "--engine", "scan",
                     "--out", str(out), "--quiet"]) == 0
        assert "2 resumed" in capsys.readouterr().out


class TestTrialResultSerialization:
    def test_round_trip(self):
        result = ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": 8},
        ).run()
        assert TrialResult.from_dict(result.to_dict()) == result


class TestCampaign:
    GRID = dict(
        protocols=["coloring", "mis"],
        topologies=[("ring", {"n": 8}), ("grid", {"rows": 3, "cols": 3})],
        schedulers=["synchronous", "central"],
        seeds=range(2),
    )

    def test_grid_expansion_order_and_size(self):
        campaign = Campaign.grid(**self.GRID)
        assert len(campaign) == 2 * 2 * 2 * 2
        keys = [s.key() for s in campaign]
        assert len(set(keys)) == len(keys)
        # Stable order: protocol-major, seed-minor.
        assert campaign.specs[0].protocol == campaign.specs[7].protocol \
            == "coloring"
        assert [s.seed for s in campaign.specs[:2]] == [0, 1]

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_grid_passes_seeds_through_unchanged(self, seed):
        """A seed that is not an int meets the spec's own check instead
        of running as ``int(seed)`` under that seed's key."""
        with pytest.raises(ValueError, match="ExperimentSpec.seed"):
            Campaign.grid(protocols=["coloring"],
                          topologies=[("ring", {"n": 8})], seeds=[seed])

    def test_duplicate_specs_rejected(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        with pytest.raises(ValueError, match="duplicate"):
            Campaign([spec, spec])

    def test_campaign_json_round_trip(self):
        campaign = Campaign.grid(**self.GRID)
        clone = Campaign.from_json(campaign.to_json())
        assert clone.specs == campaign.specs

    def test_serial_run_streams_jsonl(self, tmp_path):
        sink = tmp_path / "results.jsonl"
        campaign = Campaign.grid(
            protocols=["coloring"], topologies=[("ring", {"n": 8})],
            seeds=range(3),
        )
        outcome = campaign.run(jsonl_path=sink)
        assert outcome.executed == 3 and outcome.skipped == 0
        rows = [json.loads(line) for line in
                sink.read_text().splitlines()]
        assert {row["key"] for row in rows} == \
            {s.key() for s in campaign}
        pairs = load_campaign_results(sink)
        assert [r for _s, r in pairs] == outcome.results

    def test_parallel_equals_serial_row_for_row(self):
        campaign = Campaign.grid(**self.GRID)
        serial = campaign.run(workers=0)
        parallel = campaign.run(workers=2)
        assert serial.results == parallel.results
        assert [s.key() for s in serial.specs] == \
            [s.key() for s in parallel.specs]

    def test_resume_skips_completed_specs(self, tmp_path):
        sink = tmp_path / "results.jsonl"
        campaign = Campaign.grid(**self.GRID)
        # Interrupted first pass: only half the campaign ran.
        first_half = Campaign(campaign.specs[: len(campaign) // 2])
        first = first_half.run(jsonl_path=sink)
        assert first.executed == len(campaign) // 2

        resumed = campaign.run(jsonl_path=sink)
        assert resumed.skipped == len(campaign) // 2
        assert resumed.executed == len(campaign) - resumed.skipped
        # Resumed rows equal fresh rows.
        fresh = campaign.run(jsonl_path=None)
        assert resumed.results == fresh.results

    def test_resume_tolerates_truncated_line(self, tmp_path):
        sink = tmp_path / "results.jsonl"
        campaign = Campaign.grid(
            protocols=["coloring"], topologies=[("ring", {"n": 8})],
            seeds=range(2),
        )
        campaign.run(jsonl_path=sink)
        lines = sink.read_text().splitlines()
        sink.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        outcome = campaign.run(jsonl_path=sink)
        assert outcome.skipped == 1 and outcome.executed == 1

    def test_no_resume_reruns_everything(self, tmp_path):
        sink = tmp_path / "results.jsonl"
        campaign = Campaign.grid(
            protocols=["coloring"], topologies=[("ring", {"n": 8})],
            seeds=range(2),
        )
        campaign.run(jsonl_path=sink)
        outcome = campaign.run(jsonl_path=sink, resume=False)
        assert outcome.executed == 2 and outcome.skipped == 0
        # The sink was started over, not appended: no duplicate rows.
        assert len(sink.read_text().splitlines()) == 2
        assert len(load_campaign_results(sink)) == 2

    def test_progress_callback_sees_every_spec(self, tmp_path):
        sink = tmp_path / "results.jsonl"
        campaign = Campaign.grid(
            protocols=["coloring"], topologies=[("ring", {"n": 8})],
            seeds=range(2),
        )
        campaign.run(jsonl_path=sink, resume=False)
        seen = []
        campaign.run(jsonl_path=sink,
                     progress=lambda s, r: seen.append(s.key()))
        assert sorted(seen) == sorted(s.key() for s in campaign)


class TestSchedulerStateIsolation:
    def test_simulator_resets_scheduler_on_build(self):
        scheduler = RoundRobinScheduler()
        net = ring(6)
        sim1 = Simulator(ColoringProtocol.for_network(net), net,
                         scheduler=scheduler, seed=1)
        sim1.run_until_silent(max_rounds=1000)
        assert scheduler._next > 0
        # Reusing the same scheduler object must not carry the pointer.
        sim2 = Simulator(ColoringProtocol.for_network(net), net,
                         scheduler=scheduler, seed=1)
        assert scheduler._next == 0
        record = sim2.step()
        assert record.activated == frozenset([net.processes[0]])

    def test_reused_scheduler_gives_identical_trials(self):
        scheduler = RoundRobinScheduler()
        net = ring(6)
        proto = ColoringProtocol.for_network(net)
        a = execute_trial(proto, net, scheduler, seed=3)
        b = execute_trial(proto, net, scheduler, seed=3)
        assert a == b


class TestTopLevelExports:
    def test_api_names_exported_from_repro(self):
        for name in ("Campaign", "CampaignOutcome", "ExperimentSpec",
                     "protocol_registry", "topology_registry",
                     "scheduler_registry", "register_protocol",
                     "register_topology", "register_scheduler",
                     "load_campaign_results"):
            assert hasattr(repro, name), name
            assert name in repro.__all__
