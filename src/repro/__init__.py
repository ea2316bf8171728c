"""repro — reproduction of *Communication Efficiency in Self-Stabilizing
Silent Protocols* (Devismes, Masuzawa, Tixeuil; ICDCS 2009).

Declarative quickstart — experiments are data (names + parameters),
resolved through registries, runnable in parallel and resumable::

    from repro import Campaign, ExperimentSpec

    result = ExperimentSpec(
        protocol="coloring", topology="ring",
        topology_params={"n": 12}, seed=1,
    ).run()
    assert result.silent and result.k_efficiency == 1  # ≤1 read/step

    outcome = Campaign.grid(
        protocols=["coloring", "mis", "matching"],
        topologies=[("ring", {"n": 24}), ("grid", {"rows": 5, "cols": 5})],
        schedulers=["synchronous", "central", "locally-central"],
        seeds=range(32),
    ).run(jsonl_path="results.jsonl", workers=8)

Imperative core (what the declarative layer builds for you)::

    from repro import ColoringProtocol, Simulator, ring

    net = ring(12)
    sim = Simulator(ColoringProtocol.for_network(net), net, seed=1)
    report = sim.run_until_silent()
    assert report.stabilized
    assert sim.metrics.observed_k_efficiency() == 1   # reads ≤1 neighbor/step
"""

from .api import (
    Campaign,
    CampaignOutcome,
    ExperimentSpec,
    engine_registry,
    iter_campaign_results,
    load_campaign_results,
    protocol_registry,
    register_engine,
    register_protocol,
    register_scenario,
    register_scheduler,
    register_topology,
    scenario_registry,
    scheduler_registry,
    topology_registry,
)
from .fabric import Coordinator, FabricOutcome, ResultService, run_fabric
from .results import (
    Aggregate,
    JsonlSink,
    ResultStore,
    Sink,
    SqliteSink,
    diff_bench,
    diff_runs,
    summarize,
)
from .scenarios import Scenario
from .core import (
    BoundedFairScheduler,
    CentralScheduler,
    Configuration,
    ConvergenceError,
    EnabledSetEngine,
    GuardedAction,
    IncrementalEngine,
    Protocol,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    ScanEngine,
    Scheduler,
    Simulator,
    StabilizationReport,
    SynchronousScheduler,
    is_silent,
    make_engine,
    make_scheduler,
    silence_witness,
)
from .graphs import (
    Network,
    caterpillar,
    chain,
    clique,
    figure9_path,
    figure11_graph,
    greedy_coloring,
    grid,
    hypercube,
    random_connected,
    random_regular,
    random_tree,
    ring,
    star,
    theorem1_chain,
    theorem1_gadget,
    theorem2_gadget,
    theorem2_network,
    torus,
)
from .predicates import (
    coloring_predicate,
    matched_edges,
    matching_predicate,
    mis_predicate,
)
from .protocols import (
    ColoringProtocol,
    FullReadColoring,
    FullReadMIS,
    FullReadMatching,
    MISProtocol,
    MatchingProtocol,
    matching_over_coloring,
    mis_over_coloring,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "BoundedFairScheduler",
    "Campaign",
    "CampaignOutcome",
    "CentralScheduler",
    "ColoringProtocol",
    "Configuration",
    "Coordinator",
    "ExperimentSpec",
    "ConvergenceError",
    "EnabledSetEngine",
    "FabricOutcome",
    "FullReadColoring",
    "FullReadMIS",
    "FullReadMatching",
    "GuardedAction",
    "IncrementalEngine",
    "JsonlSink",
    "MISProtocol",
    "MatchingProtocol",
    "Network",
    "Protocol",
    "RandomSubsetScheduler",
    "ResultService",
    "ResultStore",
    "RoundRobinScheduler",
    "ScanEngine",
    "Scenario",
    "Scheduler",
    "Simulator",
    "Sink",
    "SqliteSink",
    "StabilizationReport",
    "SynchronousScheduler",
    "__version__",
    "caterpillar",
    "chain",
    "clique",
    "coloring_predicate",
    "diff_bench",
    "diff_runs",
    "engine_registry",
    "figure11_graph",
    "figure9_path",
    "greedy_coloring",
    "grid",
    "hypercube",
    "is_silent",
    "iter_campaign_results",
    "load_campaign_results",
    "make_engine",
    "make_scheduler",
    "matched_edges",
    "protocol_registry",
    "register_engine",
    "register_protocol",
    "register_scenario",
    "register_scheduler",
    "register_topology",
    "scenario_registry",
    "scheduler_registry",
    "topology_registry",
    "matching_over_coloring",
    "matching_predicate",
    "mis_over_coloring",
    "mis_predicate",
    "random_connected",
    "random_regular",
    "random_tree",
    "ring",
    "run_fabric",
    "silence_witness",
    "star",
    "summarize",
    "theorem1_chain",
    "theorem1_gadget",
    "theorem2_gadget",
    "theorem2_network",
    "torus",
]
