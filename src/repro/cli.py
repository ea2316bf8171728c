"""Command-line interface.

Examples::

    python -m repro run coloring --topology ring --n 16
    python -m repro run mis --topology gnp --n 30 --seed 4 --render
    python -m repro run mis --topology ring --n 16 \\
        --scenario single-fault:fraction=0.5
    python -m repro stability matching --topology chain --n 12
    python -m repro demo thm1-splice
    python -m repro availability coloring --topology grid --n 25
    python -m repro campaign --protocols coloring mis matching \\
        --topologies ring:n=24 grid:rows=5,cols=5 gnp:n=30,p=0.2 \\
        --schedulers synchronous central locally-central \\
        --seeds 8 --workers 4 --out results.jsonl
    python -m repro campaign --from-json campaign.json --out results.jsonl
    python -m repro campaign --protocols coloring --topologies ring:n=16 \\
        --seeds 16 --out results.sqlite --sink sqlite
    python -m repro ingest results.jsonl shard-0.sqlite --store results.sqlite
    python -m repro query --store results.sqlite --group-by protocol,topology \\
        --metrics rounds,total_bits --where scheduler=synchronous
    python -m repro report --store results.sqlite
    python -m repro report --store results.sqlite --recipe paper-overhead
    python -m repro compare --store results.sqlite --runs run-a run-b
    python -m repro compare --bench BENCH_3.baseline.json BENCH_3.json --mode full
    python -m repro compare --bench-store bench.sqlite --mode tiny
    python -m repro fabric run --protocols coloring mis --topologies ring:n=16 \\
        --seeds 25 --workers 4 --shards 8 --store results.sqlite
    python -m repro serve --store results.sqlite --port 8349
    python -m repro prune --store results.sqlite --older-than 30
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import (
    matching_round_bound,
    matching_stability_bound,
    measure_stability,
    mis_round_bound,
    mis_stability_bound,
)
from .api import (
    Campaign,
    ExperimentSpec,
    drive_simulator,
    engine_registry,
    protocol_registry,
    scenario_registry,
    scheduler_registry,
    topology_registry,
)
from .api.campaign import iter_campaign_results
from .core.metrics import METRICS_TIERS
from .experiments import format_table
from .graphs import Network, greedy_coloring
from .obs.registry import TELEMETRY
from .results import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    REPORT_RECIPES,
    ResultStore,
    SINK_KINDS,
    campaign_summary_table,
    coerce_scalar,
    diff_bench,
    diff_runs_detailed,
    parse_where,
    query_csv,
    query_table,
    recipe_table,
    split_csv,
)
from .results.diff import check_threshold
from .impossibility import (
    theorem1_gadget_demo,
    theorem1_overlay_demo,
    theorem1_splice_demo,
    theorem2_demo,
    theorem2_gadget_demo,
)
from .viz import render_coloring, render_matching, render_mis

DEMOS: Dict[str, Callable] = {
    "thm1-overlay": theorem1_overlay_demo,
    "thm1-splice": theorem1_splice_demo,
    "thm1-gadget": lambda: theorem1_gadget_demo(3),
    "thm2": theorem2_demo,
    "thm2-gadget": lambda: theorem2_gadget_demo(3),
}


def topology_params_from_args(args) -> Dict[str, Any]:
    """Translate the CLI's ``--n``-centric vocabulary into registry params."""
    n = args.n
    makers: Dict[str, Callable[[], Dict[str, Any]]] = {
        "chain": lambda: {"n": n},
        "ring": lambda: {"n": n},
        "star": lambda: {"leaves": max(1, n - 1)},
        "clique": lambda: {"n": n},
        "grid": lambda: dict(zip(("rows", "cols"), _near_square(n))),
        "torus": lambda: dict(zip(("rows", "cols"), _near_square(max(n, 9)))),
        "tree": lambda: {"n": n, "seed": args.seed},
        "gnp": lambda: {"n": n, "p": args.p, "seed": args.seed},
        "regular": lambda: {"n": n if n % 2 == 0 else n + 1, "d": 3,
                            "seed": args.seed},
        "sparse": lambda: {"n": n, "seed": args.seed},
    }
    try:
        return makers[args.topology]()
    except KeyError:
        raise SystemExit(f"unknown topology {args.topology!r}; "
                         f"known: {sorted(makers)}")


def _seed_count(text: str) -> int:
    """``--seeds``: how many seeds (0..seeds-1) each grid point runs."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def scenario_from_args(args) -> Tuple[Optional[str], Dict[str, Any]]:
    """Parse ``--scenario name:key=value,...`` into registry terms."""
    entry = getattr(args, "scenario", None)
    if not entry:
        return None, {}
    name, params = parse_component(entry)
    if name not in scenario_registry:
        raise SystemExit(f"unknown scenario {name!r}; "
                         f"known: {scenario_registry.names()}")
    return name, params


def spec_from_args(args, max_rounds: int = 50_000) -> ExperimentSpec:
    if args.protocol not in protocol_registry:
        raise SystemExit(f"unknown protocol {args.protocol!r}; "
                         f"known: {protocol_registry.names()}")
    scheduler = getattr(args, "scheduler", None)
    if scheduler is not None and scheduler not in scheduler_registry:
        raise SystemExit(f"unknown scheduler {scheduler!r}; "
                         f"known: {scheduler_registry.names()}")
    scenario, scenario_params = scenario_from_args(args)
    try:
        return ExperimentSpec(
            protocol=args.protocol,
            topology=args.topology,
            topology_params=topology_params_from_args(args),
            scheduler=getattr(args, "scheduler", None) or "synchronous",
            seed=args.seed,
            max_rounds=max_rounds,
            engine=getattr(args, "engine", None) or "incremental",
            metrics=getattr(args, "metrics", None) or "full",
            scenario=scenario,
            scenario_params=scenario_params,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def build_topology(args) -> Network:
    try:
        return topology_registry.build(
            args.topology, **topology_params_from_args(args)
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _near_square(n: int):
    import math

    rows = max(1, int(math.isqrt(n)))
    cols = max(1, (n + rows - 1) // rows)
    return rows, cols


def build_protocol(name: str, network: Network):
    try:
        return protocol_registry.build(name, network)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _render(protocol_name: str, network, config) -> str:
    if "coloring" in protocol_name:
        return render_coloring(network, config)
    if "mis" in protocol_name:
        return render_mis(network, config)
    return render_matching(network, config)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    spec = spec_from_args(args, max_rounds=args.max_rounds)
    if getattr(args, "telemetry", False) or getattr(args, "spans_out", None):
        args.telemetry = True
        TELEMETRY.enable()
    sim = spec.build_simulator()
    profile_path = getattr(args, "profile", None)
    if profile_path:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            report = drive_simulator(sim, max_rounds=args.max_rounds)
        finally:
            profiler.disable()
            profiler.dump_stats(profile_path)
            print(f"cProfile stats written to {profile_path} "
                  f"(inspect with python -m pstats)")
    else:
        import time as _time

        t0 = _time.perf_counter()
        report = drive_simulator(sim, max_rounds=args.max_rounds)
        TELEMETRY.record_span(
            "cli.run", _time.perf_counter() - t0,
            protocol=args.protocol, n=sim.network.n,
            steps=report.steps, rounds=report.rounds,
        )
    # Read protocol/network after the run: churn may have replaced them.
    protocol, network = sim.protocol, sim.network
    print(f"{protocol.name} on {args.topology} "
          f"(n={network.n}, m={network.m}, Δ={network.max_degree})")
    print(f"  stabilized={report.stabilized} rounds={report.rounds} "
          f"steps={report.steps}")
    print(f"  k-efficiency={sim.metrics.observed_k_efficiency()} "
          f"max-bits/step={sim.metrics.max_bits_in_step:.2f}")
    runtime = sim.scenario_runtime
    if runtime is not None:
        metrics = sim.metrics
        print(f"  scenario {spec.scenario!r}: "
              f"{len(runtime.applied)} events applied, "
              f"{metrics.faults_injected} faults, "
              f"mean recovery {metrics.mean_recovery_rounds:.1f} rounds, "
              f"post-fault bits {metrics.post_fault_bits:.1f}")
        for applied in runtime.applied:
            print(f"    @step {applied.step} (round {applied.round}): "
                  f"{applied.description}")
    if args.protocol == "mis":
        print(f"  Lemma 4 round bound: "
              f"{mis_round_bound(network, greedy_coloring(network))}")
    if args.protocol == "matching":
        print(f"  Lemma 9 round bound: {matching_round_bound(network)}")
    if args.render:
        print(_render(args.protocol, network, sim.config))
    if getattr(args, "telemetry", False):
        snap = TELEMETRY.snapshot()
        counters = ", ".join(f"{name}={value}" for name, value
                             in sorted(snap["counters"].items()) if value)
        print(f"  telemetry: {counters or '(no events)'}")
        spans_out = getattr(args, "spans_out", None)
        if spans_out:
            written = TELEMETRY.export_spans_jsonl(spans_out)
            print(f"  {written} span records -> {spans_out}")
    return 0


def cmd_stability(args) -> int:
    network = build_topology(args)
    protocol = build_protocol(args.protocol, network)
    m = measure_stability(protocol, network, seed=args.seed,
                          suffix_rounds=args.suffix_rounds)
    print(f"{protocol.name}: {m.x}/{network.n} processes are "
          f"eventually-{m.k}-stable "
          f"(silence after {m.rounds_to_silence} rounds)")
    if args.protocol == "mis":
        bound, exact = mis_stability_bound(network)
        print(f"  Theorem 6 bound ⌊(L_max+1)/2⌋ = {bound}"
              f"{'' if exact else ' (heuristic L_max)'}")
    if args.protocol == "matching":
        print(f"  Theorem 8 bound 2⌈m/(2Δ-1)⌉ = "
              f"{matching_stability_bound(network)}")
    return 0


def cmd_demo(args) -> int:
    try:
        demo = DEMOS[args.name]()
    except KeyError:
        raise SystemExit(f"unknown demo {args.name!r}; known: {sorted(DEMOS)}")
    report = demo.verify(rounds=args.rounds, seed=args.seed)
    print(f"{demo.name}: trap edge {demo.trap_edge}")
    print(f"  silent={report.silent} legitimate={report.legitimate} "
          f"comm-changed={report.comm_changed}")
    print(f"  demonstrates impossibility: "
          f"{report.demonstrates_impossibility}")
    return 0 if report.demonstrates_impossibility else 1


def cmd_availability(args) -> int:
    """Periodic-fault availability, as a spec-driven scenario run."""
    spec = spec_from_args(args).variant(
        scenario="periodic-faults",
        scenario_params={
            "period_rounds": args.fault_period,
            "fraction": args.fault_fraction,
            "total_rounds": args.total_rounds,
        },
    )
    result = spec.run()
    print(f"{result.protocol}: {result.faults_injected} faults over "
          f"{args.total_rounds} rounds  [spec key {spec.key()}]")
    print(f"  availability: {result.availability:.1%} "
          f"(mean recovery {result.mean_recovery_rounds:.1f} rounds, "
          f"post-fault bits {result.post_fault_bits:.1f})")
    return 0


def _coerce(text: str):
    """Parse a CLI parameter value: int, float, bool, or string."""
    # Shared with the fabric HTTP service — same coercion both ways in.
    return coerce_scalar(text)


def parse_component(entry: str) -> Tuple[str, Dict[str, Any]]:
    """Parse ``"gnp:n=30,p=0.2"`` into ``("gnp", {"n": 30, "p": 0.2})``."""
    name, _, tail = entry.partition(":")
    params: Dict[str, Any] = {}
    if tail:
        for pair in tail.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise SystemExit(
                    f"bad component {entry!r}: expected name:key=value,..."
                )
            params[key.strip()] = _coerce(value.strip())
    return name.strip(), params


def _campaign_from_args(args) -> Campaign:
    """Build the campaign a grid-shaped command describes.

    Shared by ``repro campaign`` and ``repro fabric run / plan`` so the
    grid vocabulary (axis flags, ``--from-json``, overrides) means the
    same thing everywhere.
    """
    if args.from_json:
        try:
            campaign = Campaign.from_json_file(args.from_json)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load campaign {args.from_json!r}: {exc}")
        overrides = {}
        if args.engine:
            overrides["engine"] = args.engine
        if args.metrics:
            overrides["metrics"] = args.metrics
        if getattr(args, "scenario", None):
            name, params = scenario_from_args(args)
            overrides["scenario"] = name
            overrides["scenario_params"] = params
        if overrides:
            campaign = Campaign(
                spec.variant(**overrides) for spec in campaign.specs
            )
        return campaign
    scenario, scenario_params = scenario_from_args(args)
    return Campaign.grid(
        protocols=[parse_component(p) for p in args.protocols],
        topologies=[parse_component(t) for t in args.topologies],
        schedulers=[parse_component(s) for s in args.schedulers],
        seeds=range(args.seeds),
        max_rounds=args.max_rounds,
        engine=args.engine or "incremental",
        metrics=args.metrics or "full",
        scenario=scenario,
        scenario_params=scenario_params,
    )


def cmd_campaign(args) -> int:
    campaign = _campaign_from_args(args)
    if args.fabric:
        # Same grid, fabric execution: sharded worker processes with
        # crash recovery, merged into a sqlite store (--out).
        if not args.out:
            raise SystemExit("--fabric needs --out STORE.sqlite")
        from .fabric import run_fabric

        outcome = run_fabric(
            campaign, args.out,
            run_id=args.run or "campaign",
            workers=args.workers or 4,
            shards=args.shards,
            resume=not args.no_resume,
            progress=None if args.quiet else (lambda m: print(f"  {m}")),
        )
        print(outcome.describe())
        with _open_store(args.out) as store:
            print(campaign_summary_table(store.iter_results(outcome.run_id)))
        return 0 if outcome.ok else 1
    print(f"campaign: {len(campaign)} specs "
          f"({'process pool of ' + str(args.workers) if args.workers >= 2 else 'serial'})")

    def narrate(spec, result):
        if not args.quiet:
            print(f"  {spec.key()}: rounds={result.rounds} "
                  f"steps={result.steps} k-eff={result.k_efficiency} "
                  f"stabilized={result.legitimate and result.silent}")

    profile_path = getattr(args, "profile", None)
    profiler = None
    if profile_path:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        outcome = campaign.run(
            out=args.out,
            sink=args.sink,
            workers=args.workers,
            resume=not args.no_resume,
            progress=narrate,
            run_id=args.run,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
            print(f"cProfile stats written to {profile_path} "
                  f"(inspect with python -m pstats)")

    print(f"done: {outcome.executed} executed, {outcome.skipped} resumed"
          + (f" -> {args.out}" if args.out else ""))
    # The same renderer `repro report` applies to a stored run, so a
    # warehouse-backed report reproduces this table exactly.
    print(campaign_summary_table(outcome))
    return 0 if all(r.legitimate and r.silent for r in outcome.results) else 1


# ----------------------------------------------------------------------
# Results warehouse subcommands (ingest / query / report / compare)
# ----------------------------------------------------------------------
def _split_csv(text: str) -> List[str]:
    """Parse a ``--group-by``/``--metrics`` comma list."""
    return split_csv(text)


def _parse_where(entries: List[str]) -> Dict[str, Any]:
    """Parse ``--where col=value ...`` filters (values coerced)."""
    try:
        return parse_where(entries)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _is_sqlite_file(path: str) -> bool:
    """Sniff the SQLite magic header (how ingest autodetects sources)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(16) == b"SQLite format 3\x00"
    except OSError:
        return False


def cmd_ingest(args) -> int:
    """Bulk-load campaign sinks — JSONL files or other stores — into a
    results store.  This is also the fabric's multi-host merge path:
    each host's shard store ingests into the canonical one."""
    try:
        store = ResultStore(args.store)
    except ValueError as exc:  # e.g. --store pointed at a JSONL file
        raise SystemExit(str(exc))
    with store:
        for source in args.sources:
            try:
                if _is_sqlite_file(source):
                    run_id, count = store.ingest_store(
                        source, src_run_id=args.from_run,
                        run_id=args.run, label=args.label,
                    )
                else:
                    run_id, count = store.ingest_jsonl(
                        source, run_id=args.run, label=args.label
                    )
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot ingest {source!r}: {exc}")
            print(f"ingested {count} trials from {source} "
                  f"into run {run_id!r} of {args.store}")
            # Without an explicit --run, later sources join the first
            # one's fresh run instead of scattering over several.
            args.run = args.run or run_id
    return 0


def _open_store(path) -> ResultStore:
    """Open an existing store for reading (typos must not create one)."""
    try:
        return ResultStore(path, create=False)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_query(args) -> int:
    """Grouped statistics (mean/median/CI95) over a stored run."""
    group_by = _split_csv(args.group_by)
    metrics = _split_csv(args.metrics)
    with _open_store(args.store) as store:
        try:
            groups = store.query(
                metrics=metrics,
                where=_parse_where(args.where),
                group_by=group_by,
                run_id=args.run,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.json:
            print(json.dumps([
                {"group": g.group, "count": g.count,
                 "metrics": {m: agg.to_dict()
                             for m, agg in g.aggregates.items()}}
                for g in groups
            ], indent=2, sort_keys=True))
        elif args.csv:
            # Same renderer the service's ?format=csv uses — full
            # precision, proper quoting.
            print(query_csv(groups, group_by, metrics), end="")
        else:
            print(query_table(
                groups, group_by, metrics,
                title=f"query ({len(groups)} groups)",
                markdown=args.markdown, precision=args.precision,
            ))
    return 0


def cmd_report(args) -> int:
    """The campaign summary table, from a store run or a JSONL sink."""
    if args.list_recipes:
        for name in sorted(REPORT_RECIPES):
            print(REPORT_RECIPES[name].describe())
        return 0
    if args.jsonl:
        try:
            print(campaign_summary_table(iter_campaign_results(args.jsonl),
                                         markdown=args.markdown))
        except OSError as exc:
            raise SystemExit(f"cannot read sink {args.jsonl!r}: {exc}")
        return 0
    if not args.store:
        raise SystemExit("report needs --store (or --jsonl)")
    with _open_store(args.store) as store:
        if args.list_runs:
            rows = [[r.run_id, r.label or "-", r.created_at,
                     r.git_rev or "-", r.trials,
                     r.wall_time_s if r.wall_time_s is not None else "-"]
                    for r in store.runs()]
            print(format_table(
                ["run", "label", "created", "git", "trials", "wall s"],
                rows, title=f"runs in {args.store}",
                markdown=args.markdown,
            ))
            return 0
        if args.recipe:
            try:
                print(recipe_table(store, args.recipe, run_id=args.run,
                                   markdown=args.markdown))
            except ValueError as exc:
                raise SystemExit(str(exc))
            return 0
        try:
            table = campaign_summary_table(store.iter_results(args.run),
                                           markdown=args.markdown)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(table)
    return 0


def cmd_compare(args) -> int:
    """Diff two stored runs (or two BENCH_*.json files) with a
    regression threshold gate; exits 1 when anything regressed."""
    modes = [bool(args.bench), bool(args.runs), bool(args.bench_store)]
    if sum(modes) != 1:
        raise SystemExit("compare needs exactly one of "
                         "--runs RUN_A RUN_B (with --store), "
                         "--bench BASELINE CANDIDATE, or "
                         "--bench-store STORE")
    # Bench payloads are throughput measurements with real run-to-run
    # noise; their default gate is looser than run means over seeds.
    threshold = args.threshold if args.threshold is not None else (
        0.25 if (args.bench or args.bench_store) else 0.10
    )
    try:
        check_threshold(threshold)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.bench_store:
        # Trajectory gate: candidate = the newest recorded emission,
        # baseline = the one before it (what CI restored from cache).
        pair = (args.bench_name, args.mode or "full")
        with _open_store(args.bench_store) as store:
            trajectory = store.bench_trajectory(*pair)
            known = store.bench_pairs()
        if not trajectory:
            # A typo'd name or mode would otherwise gate nothing.
            held = ", ".join(f"({b}, {m})" for b, m in known) or "none"
            print(f"bench gate: ({pair[0]}, {pair[1]}) was never recorded "
                  f"in {args.bench_store}; it holds: {held}")
            return 1
        if len(trajectory) < 2:
            # A gate needs history; the first emission *is* the
            # baseline, so pass and let the next run compare against it.
            print(f"bench gate: 1 recorded emission for ({pair[0]}, "
                  f"{pair[1]}) — no baseline yet, nothing to gate")
            return 0
        rows = diff_bench(trajectory[-2], trajectory[-1],
                          threshold=threshold)
        label_a = f"{args.bench_name}[-2]"
        label_b = f"{args.bench_name}[-1]"
    elif args.bench:
        payloads = []
        for path in args.bench:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payloads.append(json.load(fh))
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot read bench file {path!r}: {exc}")
        rows = diff_bench(payloads[0], payloads[1], mode=args.mode,
                          threshold=threshold)
        label_a, label_b = args.bench
    else:
        if not args.store:
            raise SystemExit("--runs needs --store")
        with _open_store(args.store) as store:
            try:
                rows, only_a, only_b = diff_runs_detailed(
                    store, args.runs[0], args.runs[1],
                    metrics=_split_csv(args.metrics),
                    group_by=_split_csv(args.group_by),
                    threshold=threshold,
                )
            except ValueError as exc:
                raise SystemExit(str(exc))
        label_a, label_b = args.runs
        for group in only_a:
            print(f"  only in {label_a}: {group}")
        for group in only_b:
            print(f"  only in {label_b}: {group}")
    if not rows:
        # A gate that compared nothing validated nothing: fail loudly
        # (disjoint group spaces, or a bench mode with no shared leaves).
        print(f"compare {label_a} -> {label_b}: no comparable cells")
        return 1
    regressed = [row for row in rows if row.regressed]
    shown = rows if args.all else regressed
    for row in shown:
        print("  " + row.describe())
    print(f"compare {label_a} -> {label_b}: {len(rows)} cells, "
          f"{len(regressed)} regressed "
          f"(threshold {threshold:.0%})")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# Fabric subcommands (fabric run / plan / worker, serve, prune)
# ----------------------------------------------------------------------
def cmd_fabric_run(args) -> int:
    """Run a campaign grid through the sharded fabric coordinator."""
    from .fabric import run_fabric

    campaign = _campaign_from_args(args)
    outcome = run_fabric(
        campaign, args.store,
        run_id=args.run,
        label=args.label,
        workers=args.workers,
        shards=args.shards,
        strategy=args.strategy,
        workdir=args.workdir,
        resume=not args.no_resume,
        heartbeat_timeout_s=args.heartbeat_timeout,
        max_retries=args.max_retries,
        keep_shards=args.keep_shards,
        chaos_kills=args.chaos_kill,
        progress=None if args.quiet else (lambda m: print(f"  {m}")),
    )
    print(outcome.describe())
    if not outcome.ok:
        for key in outcome.missing[:5]:
            print(f"  missing: {key}")
        if len(outcome.missing) > 5:
            print(f"  ... and {len(outcome.missing) - 5} more")
        return 1
    return 0


def cmd_fabric_plan(args) -> int:
    """Write shard files only — the multi-host half of the fabric.

    Hand each file to a host (``repro fabric worker --shard-file ...``,
    filesystem shared or files copied), then merge the shard stores
    with ``repro ingest``.
    """
    from .fabric import build_plan

    campaign = _campaign_from_args(args)
    tasks = build_plan(campaign.specs, args.shards, args.workdir,
                       args.run, strategy=args.strategy)
    from .fabric import shard_file_path

    for task in tasks:
        path = task.write(shard_file_path(args.workdir, task.index))
        print(f"shard {task.index}: {len(task.specs)} specs -> {path}")
    print(f"{len(tasks)} shard files in {args.workdir}; run each with "
          f"`repro fabric worker --shard-file FILE`, then merge with "
          f"`repro ingest SHARD.sqlite... --store STORE --run {args.run}`")
    return 0


def cmd_fabric_worker(args) -> int:
    """Execute one shard file (the per-host / per-process entry)."""
    from .fabric import run_worker_file

    return run_worker_file(args.shard_file, quiet=args.quiet,
                           profile=getattr(args, "profile", None))


def cmd_serve(args) -> int:
    """Serve a results store over HTTP (read-only, WAL-live)."""
    from .fabric import ENDPOINTS, ResultService

    # The serving process is observability infrastructure: its own
    # request counters belong on /metrics, so flip the registry on.
    TELEMETRY.enable()
    try:
        service = ResultService(args.store, host=args.host,
                                port=args.port, quiet=args.quiet,
                                plan_dir=getattr(args, "plan_dir", None))
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"serving {args.store} at {service.url}")
    for path, text in sorted(ENDPOINTS.items()):
        print(f"  {service.url}{path.rstrip('/')}/  — {text}")
    print("Ctrl-C to stop")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_top(args) -> int:
    """The refreshing one-screen live view of a campaign in flight."""
    # Local import — repro.obs.top pulls in the fabric heartbeat reader.
    from .obs.top import run_top

    return run_top(
        args.target,
        interval_s=args.interval,
        iterations=1 if args.once else None,
        clear=not args.once,
        stall_timeout_s=args.stall_timeout,
    )


def cmd_prune(args) -> int:
    """Drop superseded runs from a store (latest-per-label guarded)."""
    import fnmatch

    with _open_store(args.store) as store:
        selected: List[str] = list(args.runs)
        for info in store.runs():
            if (args.older_than is not None
                    and info.age_s() > args.older_than * 86400.0):
                selected.append(info.run_id)
            if (args.label is not None
                    and fnmatch.fnmatch(info.label or "", args.label)):
                selected.append(info.run_id)
        selected = list(dict.fromkeys(selected))
        if not selected:
            print("nothing to prune")
            return 0
        if args.dry_run:
            for run_id in selected:
                print(f"would prune {run_id!r} "
                      f"({store.trial_count(run_id)} trials)")
            return 0
        try:
            dropped = store.prune(selected, force=args.force,
                                  vacuum=not args.no_vacuum)
        except ValueError as exc:
            raise SystemExit(str(exc))
    total = sum(dropped.values())
    for run_id, count in dropped.items():
        print(f"pruned {run_id!r} ({count} trials)")
    print(f"{len(dropped)} runs, {total} trials dropped"
          + ("" if args.no_vacuum else "; store vacuumed"))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing silent protocols "
                    "(Devismes-Masuzawa-Tixeuil, ICDCS 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("protocol", help=" | ".join(protocol_registry.names()))
        p.add_argument("--topology", default="ring")
        p.add_argument("--n", type=int, default=12)
        p.add_argument("--p", type=float, default=0.25,
                       help="edge probability for gnp")
        p.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="run a protocol to silence")
    add_common(run)
    run.add_argument("--scheduler", default=None,
                     help=" | ".join(scheduler_registry.names()))
    run.add_argument("--engine", default="incremental",
                     choices=engine_registry.names(),
                     help="enabled-set engine (incremental dirty-set "
                          "updates, full-scan fallback, or the "
                          "self-auditing debug mode)")
    run.add_argument("--metrics", default="full", choices=METRICS_TIERS,
                     help="metrics tier: full (each step also "
                          "builds its record), aggregate (identical "
                          "measures, no records), or off (throughput "
                          "only — the communication measures print "
                          "as 0)")
    run.add_argument("--scenario", default=None,
                     help="fault/churn scenario, name:key=value,... "
                          f"(known: {', '.join(scenario_registry.names())})")
    run.add_argument("--max-rounds", type=int, default=100_000)
    run.add_argument("--profile", default=None, metavar="PSTATS",
                     help="profile the run under cProfile and dump the "
                          "stats to this path (inspect with "
                          "python -m pstats)")
    run.add_argument("--render", action="store_true")
    run.add_argument("--telemetry", action="store_true",
                     help="enable the telemetry registry for this run and "
                          "print the counter snapshot (results are "
                          "byte-identical either way)")
    run.add_argument("--spans-out", default=None, metavar="JSONL",
                     help="export buffered span records to this JSONL "
                          "file after the run (implies --telemetry)")
    run.set_defaults(fn=cmd_run)

    stab = sub.add_parser("stability", help="measure ♦-(x,1)-stability")
    add_common(stab)
    stab.add_argument("--suffix-rounds", type=int, default=30)
    stab.set_defaults(fn=cmd_stability)

    demo = sub.add_parser("demo", help="run an impossibility demonstration")
    demo.add_argument("name", help=" | ".join(sorted(DEMOS)))
    demo.add_argument("--rounds", type=int, default=25)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(fn=cmd_demo)

    avail = sub.add_parser("availability",
                           help="periodic faults, measure availability")
    add_common(avail)
    avail.add_argument("--fault-period", type=int, default=20)
    avail.add_argument("--fault-fraction", type=float, default=0.2)
    avail.add_argument("--total-rounds", type=int, default=150)
    avail.set_defaults(fn=cmd_availability)

    def add_grid_arguments(p):
        """The campaign-grid vocabulary, shared with `fabric run/plan`."""
        p.add_argument("--protocols", nargs="+", default=["coloring"])
        p.add_argument("--topologies", nargs="+", default=["ring:n=12"])
        p.add_argument("--schedulers", nargs="+", default=["synchronous"],
                       help=" | ".join(scheduler_registry.names()))
        p.add_argument("--seeds", type=_seed_count, default=4,
                       help="number of seeds (0..seeds-1) per grid point")
        p.add_argument("--engine", default=None,
                       choices=engine_registry.names(),
                       help="enabled-set engine applied to every spec "
                            "(with --from-json: overrides the loaded "
                            "specs' engines)")
        p.add_argument("--metrics", default=None, choices=METRICS_TIERS,
                       help="metrics tier applied to every spec (with "
                            "--from-json: overrides the loaded specs' "
                            "tiers); aggregate gives the results of "
                            "full without building step records")
        p.add_argument("--scenario", default=None,
                       help="fault/churn scenario applied to every spec, "
                            "name:key=value,... (with --from-json: "
                            "overrides the loaded specs' scenarios); "
                            f"known: {', '.join(scenario_registry.names())}")
        p.add_argument("--max-rounds", type=int, default=50_000)
        p.add_argument("--from-json", default=None,
                       help="load specs (or {'grid': ...}) from a JSON "
                            "file instead of the axis flags")

    camp = sub.add_parser(
        "campaign",
        help="run a protocols x topologies x schedulers x seeds grid",
        description="Each axis entry is name or name:key=value,key=value "
                    "(e.g. gnp:n=30,p=0.2). With --out, one JSON line is "
                    "written per trial and completed trials are skipped "
                    "on re-run (resume).",
    )
    add_grid_arguments(camp)
    camp.add_argument("--workers", type=int, default=0,
                      help=">=2 fans trials out over a process pool "
                           "(with --fabric: fabric worker count, "
                           "default 4)")
    camp.add_argument("--out", default=None,
                      help="sink path (JSONL file or sqlite store, "
                           "per --sink)")
    camp.add_argument("--sink", default="jsonl", choices=SINK_KINDS,
                      help="sink format for --out: jsonl (one JSON "
                           "line per trial) or sqlite (a queryable "
                           "results store; see `repro query/report`). "
                           "Resume works identically with either.")
    camp.add_argument("--run", default=None,
                      help="store run id to write into (sqlite sinks "
                           "only; default 'campaign')")
    camp.add_argument("--no-resume", action="store_true",
                      help="re-run specs already present in --out")
    camp.add_argument("--fabric", action="store_true",
                      help="execute through the sharded fabric "
                           "(worker subprocesses with crash recovery; "
                           "--out becomes a sqlite store). Equivalent "
                           "to `repro fabric run`.")
    camp.add_argument("--shards", type=int, default=None,
                      help="fabric shard count (default: one per "
                           "worker; more = finer recovery units)")
    camp.add_argument("--profile", default=None, metavar="PSTATS",
                      help="profile the campaign driver under cProfile "
                           "and dump the stats to this path (serial "
                           "execution profiles the trials themselves; "
                           "pool/fabric workers are separate processes)")
    camp.add_argument("--quiet", action="store_true",
                      help="suppress per-trial lines")
    camp.set_defaults(fn=cmd_campaign)

    fab = sub.add_parser(
        "fabric",
        help="sharded distributed campaign execution (see docs/fabric.md)",
        description="Shard a campaign grid over worker processes with "
                    "heartbeat stall detection, bounded requeue, and "
                    "store-level merge. `run` does everything locally; "
                    "`plan` + `worker` + `ingest` split the same run "
                    "across hosts.",
    )
    fabsub = fab.add_subparsers(dest="fabric_command", required=True)

    fabrun = fabsub.add_parser(
        "run", help="shard a grid over local worker processes")
    add_grid_arguments(fabrun)
    fabrun.add_argument("--store", required=True,
                        help="canonical results store (sqlite)")
    fabrun.add_argument("--run", default="campaign",
                        help="store run id (default: campaign)")
    fabrun.add_argument("--label", default=None, help="run label")
    fabrun.add_argument("--workers", type=int, default=4,
                        help="concurrent worker processes")
    fabrun.add_argument("--shards", type=int, default=None,
                        help="work units (default: one per worker)")
    fabrun.add_argument("--strategy", default="hash",
                        choices=("hash", "round-robin"),
                        help="spec-to-shard assignment")
    fabrun.add_argument("--workdir", default=None,
                        help="shard file/store directory "
                             "(default: STORE.fabric/)")
    fabrun.add_argument("--heartbeat-timeout", type=float, default=15.0,
                        help="seconds of worker silence before a "
                             "stall kill + requeue")
    fabrun.add_argument("--max-retries", type=int, default=2,
                        help="relaunches allowed per shard")
    fabrun.add_argument("--no-resume", action="store_true",
                        help="re-run specs already in the store run")
    fabrun.add_argument("--keep-shards", action="store_true",
                        help="keep the workdir after a clean finish")
    fabrun.add_argument("--chaos-kill", type=int, default=0,
                        metavar="N",
                        help="failure injection: hard-kill the first N "
                             "workers after one trial (recovery drill; "
                             "the CI smoke lane uses this)")
    fabrun.add_argument("--quiet", action="store_true",
                        help="suppress per-shard progress lines")
    fabrun.set_defaults(fn=cmd_fabric_run)

    fabplan = fabsub.add_parser(
        "plan", help="write shard files for multi-host execution")
    add_grid_arguments(fabplan)
    fabplan.add_argument("--workdir", required=True,
                         help="directory for shard files and stores")
    fabplan.add_argument("--run", default="campaign",
                         help="run id stamped into every shard")
    fabplan.add_argument("--shards", type=int, required=True,
                         help="number of shards to cut")
    fabplan.add_argument("--strategy", default="hash",
                         choices=("hash", "round-robin"))
    fabplan.set_defaults(fn=cmd_fabric_plan)

    fabwork = fabsub.add_parser(
        "worker", help="execute one shard file (per-host entry)")
    fabwork.add_argument("--shard-file", required=True,
                         help="ShardTask JSON from the coordinator or "
                              "`repro fabric plan`")
    fabwork.add_argument("--quiet", action="store_true")
    fabwork.add_argument("--profile", default=None, metavar="PSTATS",
                         help="profile the shard under cProfile; the "
                              "dump lands at PSTATS.shard-N.pstats so "
                              "per-worker profiles never collide")
    fabwork.set_defaults(fn=cmd_fabric_worker)

    serve = sub.add_parser(
        "serve",
        help="serve a results store over HTTP (live, read-only)",
        description="GET /runs /query /report /compare against a store "
                    "other processes may still be writing; WAL readers "
                    "see every committed trial. JSON by default, "
                    "markdown via ?format=markdown or Accept: "
                    "text/markdown.",
    )
    serve.add_argument("--store", required=True, help="results store path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8349,
                       help="0 picks an ephemeral port")
    serve.add_argument("--plan-dir", default=None,
                       help="fabric plan dir for /progress heartbeat "
                            "fan-in (default: STORE.fabric when it "
                            "exists)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    serve.set_defaults(fn=cmd_serve)

    top = sub.add_parser(
        "top",
        help="refreshing one-screen live view of a campaign in flight",
        description="TARGET is a fabric plan dir (heartbeats are read "
                    "from disk) or a running `repro serve` URL (its "
                    "/progress endpoint is polled). Shows workers, "
                    "trials/s, ETA and stalls; Ctrl-C to stop.",
    )
    top.add_argument("target",
                     help="plan dir (e.g. results.sqlite.fabric) or "
                          "service URL (e.g. http://127.0.0.1:8349)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen "
                          "clearing; for scripts and smoke tests)")
    top.add_argument("--stall-timeout", type=float, default=10.0,
                     help="heartbeats older than this many seconds "
                          "count as stalled (default 10)")
    top.set_defaults(fn=cmd_top)

    prune = sub.add_parser(
        "prune",
        help="drop superseded runs from a results store",
        description="Selects runs by id, age, or label glob (union), "
                    "deletes their trials, and VACUUMs. The newest run "
                    "of every label is protected unless --force — "
                    "pruning a grid's only current baseline is almost "
                    "always a mistake.",
    )
    prune.add_argument("--store", required=True, help="results store path")
    prune.add_argument("--runs", nargs="*", default=[],
                       help="run ids to drop")
    prune.add_argument("--older-than", type=float, default=None,
                       metavar="DAYS",
                       help="also drop runs created more than DAYS ago")
    prune.add_argument("--label", default=None, metavar="GLOB",
                       help="also drop runs whose label matches "
                            "(fnmatch glob)")
    prune.add_argument("--force", action="store_true",
                       help="allow dropping the latest run of a label")
    prune.add_argument("--dry-run", action="store_true",
                       help="list what would be dropped, touch nothing")
    prune.add_argument("--no-vacuum", action="store_true",
                       help="skip the VACUUM after deleting")
    prune.set_defaults(fn=cmd_prune)

    ing = sub.add_parser(
        "ingest",
        help="bulk-load campaign sinks (JSONL or sqlite) into a store",
        description="Each source is autodetected: a JSONL sink streams "
                    "line by line (a truncated trailing line is "
                    "tolerated); another sqlite store — e.g. a fabric "
                    "shard store from a remote host — streams row by "
                    "row. All sources land in one run unless --run "
                    "varies; re-ingesting the same keys is "
                    "last-writer-wins.",
    )
    ing.add_argument("sources", nargs="+",
                     help="JSONL sinks and/or sqlite stores to ingest")
    ing.add_argument("--store", required=True, help="results store path")
    ing.add_argument("--run", default=None,
                     help="run id to ingest into (default: a fresh run, "
                          "shared by all sources)")
    ing.add_argument("--from-run", default=None,
                     help="source run to read from sqlite sources "
                          "(default: the source's latest)")
    ing.add_argument("--label", default=None, help="run label")
    ing.set_defaults(fn=cmd_ingest)

    query = sub.add_parser(
        "query",
        help="grouped statistics (mean/median/CI95) over a results store",
        description="Aggregates stored trials per group: "
                    "mean, 95% confidence half-width, and median for "
                    "each requested measure.",
    )
    query.add_argument("--store", required=True, help="results store path")
    query.add_argument("--run", default=None,
                       help="run id (default: latest; '*' = all runs)")
    query.add_argument("--where", nargs="*", default=[], metavar="COL=VAL",
                       help="equality filters, e.g. protocol=coloring n=8")
    query.add_argument("--group-by", default=",".join(DEFAULT_GROUP_BY),
                       help="comma list of axis columns")
    query.add_argument("--metrics", default=",".join(DEFAULT_METRICS),
                       help="comma list of measure columns")
    query.add_argument("--precision", type=int, default=2,
                       help="float decimal places (tiny values switch "
                            "to scientific notation)")
    query.add_argument("--markdown", action="store_true",
                       help="emit a markdown table")
    query.add_argument("--csv", action="store_true",
                       help="emit CSV (full precision, same renderer as "
                            "the service's ?format=csv)")
    query.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead")
    query.set_defaults(fn=cmd_query)

    rep = sub.add_parser(
        "report",
        help="paper-style campaign summary from a stored run",
        description="Renders the same summary table `repro campaign` "
                    "prints, from a results store run (--store) or "
                    "directly from a JSONL sink (--jsonl).",
    )
    rep.add_argument("--store", default=None, help="results store path")
    rep.add_argument("--run", default=None,
                     help="run id (default: latest)")
    rep.add_argument("--jsonl", default=None,
                     help="render straight from a JSONL sink instead")
    rep.add_argument("--list-runs", action="store_true",
                     help="list the store's runs and their provenance")
    rep.add_argument("--recipe", default=None,
                     help="render a canned paper table instead "
                          "(see --list-recipes)")
    rep.add_argument("--list-recipes", action="store_true",
                     help="list the canned paper-table recipes")
    rep.add_argument("--markdown", action="store_true",
                     help="emit a markdown table")
    rep.set_defaults(fn=cmd_report)

    comp = sub.add_parser(
        "compare",
        help="diff two runs (or two BENCH_*.json) with a regression gate",
        description="Per group x metric: both means, delta, ratio, and "
                    "a regression verdict in the metric's bad "
                    "direction. Exits 1 when anything regressed — "
                    "usable as a CI gate.",
    )
    comp.add_argument("--store", default=None, help="results store path")
    comp.add_argument("--runs", nargs=2, metavar=("RUN_A", "RUN_B"),
                      default=None,
                      help="two run ids in the store to compare")
    comp.add_argument("--bench", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                      default=None,
                      help="two BENCH_*.json files to compare instead "
                           "(throughput-like: lower is a regression)")
    comp.add_argument("--bench-store", default=None, metavar="STORE",
                      help="gate the newest bench emission in a store's "
                           "trajectory against the one before it "
                           "(written by bench_engine.py --store); "
                           "passes on a single point, fails on none")
    comp.add_argument("--bench-name", default="BENCH_3",
                      help="trajectory to gate with --bench-store "
                           "(BENCH_3 = engine grid + hot loop, "
                           "BENCH_4 = scenario recovery)")
    comp.add_argument("--mode", default=None,
                      help="BENCH section (--bench: full | tiny) or "
                           "trajectory mode (--bench-store; "
                           "default full)")
    comp.add_argument("--metrics", default=",".join(("rounds", "steps",
                                                     "total_bits")),
                      help="comma list of measures (--runs only)")
    comp.add_argument("--group-by", default=",".join(DEFAULT_GROUP_BY),
                      help="comma list of axis columns (--runs only)")
    comp.add_argument("--threshold", type=float, default=None,
                      help="regression threshold as a fraction "
                           "(default: 0.10 for --runs, 0.25 for "
                           "--bench — throughput noise needs slack)")
    comp.add_argument("--all", action="store_true",
                      help="print every compared cell, not only "
                           "regressions")
    comp.set_defaults(fn=cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
