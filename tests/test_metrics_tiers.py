"""Metrics tiers: aggregate ≡ full ≡ the folded step records, off is inert.

Both measured tiers fold every step the same way, and the fold must
give exactly the measures the ``full`` tier's step records give when
folded one by one — the property tests here compare every aggregate
(totals, maxima, activation counts, whole-run and suffix read-sets)
across coloring/MIS/matching × central/synchronous/random-subset × 5
seeds.  The remaining tests pin the tier plumbing: lean step records,
the trace-recorder guard, and spec/campaign/CLI wiring.
"""

import pytest

from repro.api import (
    Campaign,
    ExperimentSpec,
    execute_trial,
    protocol_registry,
    scheduler_registry,
    topology_registry,
)
from repro.core import (
    METRICS_TIERS,
    LeanStepRecord,
    MetricsCollector,
    Simulator,
    StepRecord,
    TraceRecorder,
)
from repro.graphs import ring

PROTOCOLS = ("coloring", "mis", "matching")
SCHEDULERS = ("central", "synchronous", "random-subset")
SEEDS = (0, 1, 2, 3, 4)


def _build_sim(protocol, scheduler, seed, metrics, n=10):
    net = topology_registry.build("ring", n=n)
    proto = protocol_registry.build(protocol, net)
    sched = scheduler_registry.build(scheduler, net)
    return Simulator(proto, net, scheduler=sched, seed=seed, metrics=metrics)


def _observables(m):
    return {
        "summary": m.summary(),
        "activations": dict(m.activations),
        "read_sets": {p: set(s) for p, s in m.read_sets.items()},
        "suffix": (
            None
            if m.suffix_read_sets is None
            else {p: set(s) for p, s in m.suffix_read_sets.items()}
        ),
        "suffix_start": m.suffix_start_step,
    }


class TestAggregateEqualsFull:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_identical_measures_across_seeds(self, protocol, scheduler):
        """Both tiers fold the same measures, and those are the measures
        the ``full`` tier's step records say when folded one by one
        through :meth:`MetricsCollector.record`."""
        for seed in SEEDS:
            sims = {
                tier: _build_sim(protocol, scheduler, seed, tier)
                for tier in ("full", "aggregate")
            }
            full, aggregate = sims["full"].metrics, sims["aggregate"].metrics
            replay = MetricsCollector(sims["full"].network.processes)
            for half in range(2):
                if half:
                    # Arm the suffix mid-run so the ♦-stability
                    # read-sets are exercised on both tiers.
                    for m in (full, aggregate, replay):
                        m.start_suffix()
                for _ in range(12):
                    replay.record(sims["full"].step())
                sims["aggregate"].run_steps(12)
            label = (protocol, scheduler, seed)
            assert _observables(full) == _observables(replay), label
            assert _observables(full) == _observables(aggregate), label

    def test_identical_trial_results_to_silence(self):
        for protocol in PROTOCOLS:
            net = topology_registry.build("ring", n=10)
            results = {}
            for tier in ("full", "aggregate"):
                results[tier] = execute_trial(
                    protocol_registry.build(protocol, net),
                    net,
                    scheduler_registry.build("synchronous", net),
                    seed=7,
                    metrics=tier,
                )
            assert results["full"] == results["aggregate"], protocol

    def test_repeated_pid_selection_is_rejected(self):
        # A step's selection is a set, so no tier ever folds a pid
        # twice: a script repeating one is refused before any step.
        from repro.core import FixedSequenceScheduler

        script = [[0, 0], [1, 2]]
        with pytest.raises(ValueError, match="step 0 activates 0 twice"):
            FixedSequenceScheduler(script)
        for tier in ("full", "aggregate"):
            spec = ExperimentSpec(
                protocol="mis", topology="ring", topology_params={"n": 5},
                scheduler="fixed-sequence",
                scheduler_params={"sequence": script}, seed=2,
                metrics=tier,
            )
            with pytest.raises(ValueError, match="twice"):
                spec.run()

    def test_suffix_stability_measure_matches(self):
        for tier in ("full", "aggregate"):
            sim = _build_sim("mis", "synchronous", 3, tier)
            sim.run_until_silent()
            suffix = sim.measure_suffix_stability(extra_rounds=5)
            if tier == "full":
                reference = suffix
        assert suffix == reference


class TestTierPlumbing:
    def test_step_record_types_by_tier(self):
        full = _build_sim("coloring", "central", 1, "full")
        assert isinstance(full.step(), StepRecord)
        for tier in ("aggregate", "off"):
            sim = _build_sim("coloring", "central", 1, tier)
            record = sim.step()
            assert isinstance(record, LeanStepRecord)
            assert record.index == 0
            assert record.activated_count == 1

    def test_lean_closed_round_matches_full(self):
        closed = {}
        for tier in ("full", "aggregate"):
            sim = _build_sim("coloring", "synchronous", 2, tier)
            closed[tier] = [sim.step().closed_round for _ in range(6)]
        assert closed["full"] == closed["aggregate"]

    def test_off_tier_leaves_collector_untouched(self):
        sim = _build_sim("coloring", "synchronous", 1, "off")
        report = sim.run_until_silent()
        assert sim.metrics.steps == 0
        assert sim.metrics.total_bits == 0.0
        assert sim.metrics.summary()["k_efficiency"] == 0
        # Step and round counting live on the simulator, not the collector.
        assert report.steps == sim.step_index > 0
        assert report.rounds > 0 and report.silent

    def test_off_tier_runs_replay_identically(self):
        configs = {}
        for tier in ("full", "off"):
            sim = _build_sim("coloring", "synchronous", 9, tier)
            sim.run_steps(20)
            configs[tier] = sim.config
        assert configs["full"] == configs["off"]

    def test_unknown_tier_rejected(self):
        net = ring(4)
        proto = protocol_registry.build("coloring", net)
        with pytest.raises(ValueError, match="metrics tier"):
            Simulator(proto, net, metrics="everything")

    def test_trace_recorder_requires_full(self):
        sim = _build_sim("coloring", "central", 1, "aggregate")
        with pytest.raises(ValueError, match="metrics='full'"):
            TraceRecorder(sim)


class TestSpecAndCampaignWiring:
    def test_spec_round_trip_and_default(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        assert spec.metrics == "full"
        tuned = spec.variant(metrics="aggregate")
        assert ExperimentSpec.from_json(tuned.to_json()) == tuned
        # Old payloads without the field still parse.
        payload = spec.to_dict()
        del payload["metrics"]
        assert ExperimentSpec.from_dict(payload).metrics == "full"

    def test_spec_validates_tier(self):
        with pytest.raises(ValueError, match="metrics tier"):
            ExperimentSpec(protocol="coloring", topology="ring",
                           metrics="sometimes")

    def test_key_semantics(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        # full and aggregate are result-equivalent: same resume key.
        assert spec.key() == spec.variant(metrics="aggregate").key()
        # off zeroes the measures: it must not be resumed as a stand-in.
        assert spec.key() != spec.variant(metrics="off").key()

    def test_spec_run_matches_across_tiers(self):
        spec = ExperimentSpec(protocol="mis", topology="ring",
                              topology_params={"n": 8}, seed=4)
        assert spec.run() == spec.variant(metrics="aggregate").run()

    def test_campaign_grid_propagates_tier(self):
        campaign = Campaign.grid(
            protocols=["coloring"],
            topologies=[("ring", {"n": 6})],
            seeds=range(2),
            metrics="aggregate",
        )
        assert all(s.metrics == "aggregate" for s in campaign.specs)
        assert METRICS_TIERS == ("full", "aggregate", "off")
