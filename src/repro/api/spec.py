"""Frozen, JSON-round-trippable experiment descriptions.

An :class:`ExperimentSpec` pins down one trial completely — protocol,
topology, scheduler and enabled-set engine by registry name plus
parameters, the seed, and the round budget — so experiments can live in
files, cross process
boundaries, and be deduplicated by a stable content key.  No live
``Protocol``/``Network``/``Scheduler`` object ever appears in user
code: everything is built on demand from the registries.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from ..core.engine import COLUMNAR_ENGINE_NAMES
from ..core.metrics import METRICS_TIERS
from ..obs.registry import TELEMETRY
from ..core.simulator import Simulator
from ..experiments.runner import TrialResult
from .registry import (
    build_topology,
    engine_registry,
    protocol_registry,
    scheduler_registry,
)


def _frozen_params(field_name: str,
                   params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """A JSON-clean private copy of the parameter mapping ``field_name``."""
    params = dict(params or {})
    # Round-trip through JSON now so that a spec equals its re-parsed
    # self (tuples become lists, keys become strings) and unserializable
    # parameters fail loudly at construction, not at campaign time.
    # NaN and the infinities are no JSON (the default would write bare
    # ``NaN``/``Infinity`` tokens), and a NaN passes every ``<`` bound
    # check a builder makes.
    try:
        text = json.dumps(params, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(
            f"ExperimentSpec.{field_name} is not JSON data "
            f"(NaN and infinity are refused): {exc}"
        ) from None
    return json.loads(text)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """One trial as pure data: names + parameters + seed + budget."""

    protocol: str
    topology: str
    scheduler: str = "synchronous"
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    topology_params: Dict[str, Any] = field(default_factory=dict)
    scheduler_params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    max_rounds: int = 50_000
    #: enabled-set maintenance strategy ("incremental" | "scan" |
    #: "debug" | "batch-resident" | "batch-debug"); every engine
    #: produces identical executions — "batch-resident" keeps state
    #: columnar across fused synchronous steps and decodes rows only
    #: at observation boundaries.
    engine: str = "incremental"
    #: metrics tier ("full" | "aggregate" | "off"): "full" and
    #: "aggregate" fold identical measures ("aggregate" builds no
    #: per-step records); "off" disables collection entirely.
    metrics: str = "full"
    #: scenario name from the scenario registry (None = scenario-free
    #: run).  A scenario is an experiment axis: it changes results, so
    #: — unlike ``engine``/``metrics`` — it participates in ``key()``.
    scenario: Optional[str] = None
    scenario_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("protocol_params", "topology_params",
                     "scheduler_params", "scenario_params"):
            object.__setattr__(self, name,
                               _frozen_params(name, getattr(self, name)))
        if self.metrics not in METRICS_TIERS:
            raise ValueError(
                f"unknown metrics tier {self.metrics!r}; "
                f"known: {METRICS_TIERS}"
            )
        if self.scenario is None and self.scenario_params:
            raise ValueError("scenario_params given without a scenario")
        # A seed of "3" would seed a different generator than 3 under
        # the same key prefix; bools are ints to Python, not to a spec.
        if not _is_int(self.seed):
            raise ValueError(
                f"ExperimentSpec.seed must be an integer, got {self.seed!r}"
            )
        if not (_is_int(self.max_rounds) and self.max_rounds > 0):
            raise ValueError(
                f"ExperimentSpec.max_rounds must be a positive integer, "
                f"got {self.max_rounds!r}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = {
            "protocol": self.protocol,
            "protocol_params": dict(self.protocol_params),
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "scheduler": self.scheduler,
            "scheduler_params": dict(self.scheduler_params),
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "engine": self.engine,
            "metrics": self.metrics,
        }
        # Scenario-free specs serialize exactly as they did before the
        # scenario axis existed, so old spec files and sinks stay valid.
        if self.scenario is not None:
            out["scenario"] = self.scenario
            out["scenario_params"] = dict(self.scenario_params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {f: data[f] for f in (
            "protocol", "protocol_params", "topology", "topology_params",
            "scheduler", "scheduler_params", "seed", "max_rounds", "engine",
            "metrics", "scenario", "scenario_params",
        ) if f in data}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        return cls(**known)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def key(self) -> str:
        """A stable, human-scannable content id (used for resume).

        The ``engine`` field is deliberately excluded: it is a run-time
        strategy, not an experiment axis — all engines produce identical
        results — so switching engines (or upgrading from specs that
        predate the field) still resumes from an existing sink.  The
        ``metrics`` tier is excluded on the same grounds for ``full``
        and ``aggregate`` (the aggregate tier reports identical final
        measures, and old sinks predate the field); ``metrics="off"``
        *is* keyed, because its results carry zeroed measures and must
        not be resumed into a measuring campaign.  The ``scenario``
        axis *is* keyed (different fault scripts produce different
        results), but a scenario-free spec keys exactly as it did
        before the field existed, so pre-scenario sinks still resume.
        """
        payload = self.to_dict()
        del payload["engine"]
        if self.metrics in ("full", "aggregate"):
            del payload["metrics"]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:12]
        prefix = (f"{self.protocol}/{self.topology}/{self.scheduler}"
                  f"/s{self.seed}")
        if self.scenario is not None:
            prefix += f"/{self.scenario}"
        return f"{prefix}/{digest}"

    def variant(self, **overrides) -> "ExperimentSpec":
        """A copy with some fields replaced (e.g. ``variant(seed=7)``)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Construction of live objects
    # ------------------------------------------------------------------
    def build_network(self):
        """The spec's network; on a columnar engine, ``sparse`` is built
        as port arrays (:func:`~repro.api.registry.build_topology`)."""
        return build_topology(self.topology, self.topology_params,
                              columnar=self.engine in COLUMNAR_ENGINE_NAMES)

    def build_protocol(self, network):
        return protocol_registry.build(
            self.protocol, network, **self.protocol_params
        )

    def build_scheduler(self, network):
        return scheduler_registry.build(
            self.scheduler, network, **self.scheduler_params
        )

    def build_engine(self):
        return engine_registry.build(self.engine)

    def build_scenario(self):
        """The spec's :class:`~repro.scenarios.Scenario` (None if unset)."""
        if self.scenario is None:
            return None
        from ..scenarios.library import scenario_registry

        return scenario_registry.build(self.scenario, **self.scenario_params)

    def protocol_factory(self):
        """A ``network -> Protocol`` rebuild hook for topology churn."""
        return lambda network: protocol_registry.build(
            self.protocol, network, **self.protocol_params
        )

    def build_simulator(self) -> Simulator:
        """A ready-to-run :class:`Simulator` for this spec."""
        network = self.build_network()
        return Simulator(
            self.build_protocol(network),
            network,
            scheduler=self.build_scheduler(network),
            seed=self.seed,
            engine=self.build_engine(),
            metrics=self.metrics,
            scenario=self.build_scenario(),
            protocol_factory=self.protocol_factory(),
        )

    def run(self):
        """Run this spec (scenario included); returns a ``TrialResult``."""
        network = self.build_network()
        return execute_trial(
            self.build_protocol(network),
            network,
            self.build_scheduler(network),
            seed=self.seed,
            max_rounds=self.max_rounds,
            engine=self.build_engine(),
            metrics=self.metrics,
            scenario=self.build_scenario(),
            protocol_factory=self.protocol_factory(),
        )


def drive_simulator(sim: Simulator, max_rounds: int = 50_000):
    """Run a (possibly scenario-bearing) simulator to completion.

    The shared run policy of :func:`execute_trial` and the CLI:

    * no scenario, or a scenario with no round horizon — run to
      silence; then, while fire-once events (``after_silence`` faults,
      scheduled one-shots) are still pending, step round by round so
      they fire and re-stabilize after each disturbance;
    * a scenario with ``horizon_rounds`` (periodic fault/churn scripts
      never exhaust) — run exactly that many rounds and report the
      final configuration's state.

    Returns the closing :class:`~repro.core.simulator.StabilizationReport`.
    """
    runtime = sim.scenario_runtime
    if runtime is not None and runtime.horizon_rounds:
        sim.run_rounds(min(runtime.horizon_rounds, max_rounds))
        return sim.report()
    report = sim.run_until_silent(max_rounds=max_rounds)
    if runtime is None:
        return report
    extra = 0
    while runtime.pending_oneshots and extra < max_rounds:
        sim.run_rounds(1)  # no-op steps while silent; events fire here
        extra += 1
        if not sim.is_silent():
            report = sim.run_until_silent(max_rounds=max_rounds)
    return report


def execute_trial(protocol, network, scheduler, seed: int = 0,
                  max_rounds: int = 50_000, engine="incremental",
                  metrics: str = "full", scenario=None,
                  protocol_factory=None):
    """Run one protocol instance to silence and collect its metrics.

    The single execution path shared by :meth:`ExperimentSpec.run` and
    the campaign workers.  ``engine`` selects the enabled-set
    maintenance strategy (name or instance); results are
    engine-independent by the equivalence contract.
    ``metrics`` selects the collection tier — ``full`` and
    ``aggregate`` produce identical :class:`TrialResult` rows (the
    aggregate tier skips per-step record construction); ``off`` zeroes
    the communication measures and is meant for pure-throughput runs.
    ``scenario`` (a :class:`~repro.scenarios.Scenario`) scripts faults,
    churn, and daemon swaps into the run — see :func:`drive_simulator`
    for the run policy — with ``protocol_factory`` supplying the
    protocol rebuild hook topology churn needs.
    """
    sim = Simulator(protocol, network, scheduler=scheduler, seed=seed,
                    engine=engine, metrics=metrics, scenario=scenario,
                    protocol_factory=protocol_factory)
    obs_on = TELEMETRY.enabled
    t0 = time.perf_counter() if obs_on else 0.0
    report = drive_simulator(sim, max_rounds=max_rounds)
    if obs_on:
        wall = time.perf_counter() - t0
        TELEMETRY.counter("trial.executed").inc()
        TELEMETRY.histogram("trial.wall_s").observe(wall)
        TELEMETRY.record_span(
            "trial.execute", wall, protocol=protocol.name,
            scheduler=sim.scheduler.name, n=sim.network.n, seed=seed,
            steps=report.steps, rounds=report.rounds,
        )
    # Churn may have replaced the network mid-run; report the final one.
    network = sim.network
    return TrialResult(
        protocol=protocol.name,
        scheduler=sim.scheduler.name,
        n=network.n,
        m=network.m,
        delta=network.max_degree,
        seed=seed,
        steps=report.steps,
        rounds=report.rounds,
        legitimate=report.legitimate,
        silent=report.silent,
        **sim.metrics.trial_measures(),
    )
