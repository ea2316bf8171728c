"""E10 — Step-loop throughput: engines and metrics tiers.

The 10k-node scale tier.  Two families of measurements:

* **Engine grid** — for COLORING / MIS / MATCHING on 10k-process rings,
  tori and sparse random graphs, raw simulator throughput (steps/sec)
  under the enabled-drawing central daemon across enabled-set engines
  (``incremental`` vs the ``scan`` fallback) × metrics tiers (``full``
  vs ``aggregate``), asserting the dirty-set speedup floor.
* **Flat hot loop** — 10k-node *synchronous* COLORING on the scalar
  loop (flat rows, pooled contexts) under the ``full`` and
  ``aggregate`` metrics tiers, measured with the engine grid and
  written beside it.  It asserts no ratio: the bench-gate trajectory
  (``repro compare --bench-store``) holds both rates against the
  previous emission.
* **Scenario churn + recovery** — the PR-4 gate: synchronous COLORING
  at the same scale with the canned ``churn`` scenario (periodic
  corruption + connectivity-safe node/edge churn, recovery cycles
  timed through the metrics collector) versus the identical
  scenario-free run.  Asserts the scenario machinery keeps a generous
  fraction of the plain hot-loop throughput, and that events actually
  fired.
* **Columnar engine, per step** — the BENCH_5 gate: 10k-node synchronous
  COLORING under the aggregate tier, ``engine="batch-resident"``
  stepped one :meth:`Simulator.step` at a time versus the scalar
  incremental loop, asserting ≥5x at full scale (a generous ≥1.5x in
  the ``--tiny`` smoke), plus a 1M-process sparse-topology tier
  (columnar only — the scalar loop would take minutes per step)
  reporting steps/sec and process-activations/sec.
* **Columnar engine, fused** — the BENCH_6 gate: the same 10k
  synchronous COLORING run stepped in fused
  :meth:`Simulator.run_steps` spans versus one
  :meth:`Simulator.step` at a time, asserting ≥3x at full scale
  (≥1.5x at ``--tiny``).  The 1M sparse tier reruns fused with the
  build cost split out — total simulator build, the ColumnStore build
  alone (< 10s) and fused steps/sec (≥ 5) are each gated separately,
  so a build regression cannot hide behind a stepping win or vice
  versa.
* **Run to silence** — COLORING, MIS and MATCHING each run to silence
  on a 10k-process sparse graph (average degree 3), synchronous
  daemon, ``engine="batch-resident"``, aggregate tier, each under an
  absolute wall-time ceiling (3,000 processes at ``--tiny``).  Only
  COLORING has a columnar silence verdict; MIS and MATCHING take the
  scalar silence walk at every step, so this gate catches a walk that
  stops being linear in n.  It writes no BENCH file.

Every other run (pytest or script) appends machine-readable results to
``BENCH_3.json`` — steps/sec per topology × protocol × engine × metrics
tier plus the two hot-loop rates — the scenario case to
``BENCH_4.json``, the batch-engine case (with the 1M-node tier at
full scale) to ``BENCH_5.json``, and the resident case to
``BENCH_6.json``, each keyed by mode (``full`` / ``tiny``).  Full runs
write the committed files at the repo root; ``--tiny`` runs write the
same files under the git-ignored ``bench-tiny/`` there, so smoke
numbers never land in the recorded trajectories.

Run as a pytest bench::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q           # full 10k tier
    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q --tiny   # CI smoke

or as a plain script::

    PYTHONPATH=src python benchmarks/bench_engine.py [--tiny] [--n 10000]

The script form can additionally append each emission to a results
store's bench trajectory (``--store bench.sqlite``), which ``repro
compare --bench-store`` and :func:`repro.results.diff_bench` gate for
regressions.  One function per BENCH file (``bench3_section`` …
``bench6_section``) assembles each section once, and :func:`emit_bench`
writes it to the JSON file and the store alike.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Tuple

from repro.api import ExperimentSpec
from repro.core import Simulator

FULL_N = 10_000
FULL_BUDGET_S = 1.5
TINY_N = 120
TINY_BUDGET_S = 0.1

PROTOCOLS = ("coloring", "mis", "matching")
ENGINES = ("incremental", "scan")
TIERS = ("full", "aggregate")

#: the speedup floor asserted at full scale on the ring (the measured
#: ratio is two orders of magnitude; 3x keeps the guard robust on
#: loaded CI machines)
MIN_SPEEDUP = 3.0

#: the repo root, where ``BENCH_<k>.json`` files live
BENCH_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: the git-ignored folder under :data:`BENCH_ROOT` that ``tiny`` emissions
#: go to
TINY_DIR = "bench-tiny"

#: BENCH_5 acceptance floor: the columnar engine, one step at a time, over
#: the scalar incremental loop on 10k-node synchronous coloring,
#: aggregate tier
MIN_BATCH_SPEEDUP = 5.0

#: generous --tiny floor (and a larger-than-TINY_N size below): column
#: setup amortizes over n, so the smoke runs at BATCH_TINY_N processes
#: where vectorization already clearly wins without flaking on loaded
#: CI runners
MIN_BATCH_SPEEDUP_TINY = 1.5
BATCH_TINY_N = 600

#: the 1M-process sparse tier (full mode only): columnar engine only —
#: one synchronous step touches every process, so a handful of steps
#: is enough for a stable rate
MILLION_N = 1_000_000
MILLION_STEPS = 5

#: BENCH_6 acceptance floor: the fused loop over per-step columnar
#: stepping on 10k-node synchronous coloring, aggregate tier
MIN_RESIDENT_SPEEDUP = 3.0

#: generous --tiny floor (same rationale as MIN_BATCH_SPEEDUP_TINY:
#: catch losing the fused loop outright without flaking on loaded
#: runners)
MIN_RESIDENT_SPEEDUP_TINY = 1.5

#: 1M-tier gates (full mode), asserted independently: the vectorized
#: build path must assemble the ColumnStore within the budget, and the
#: fused driver must sustain this many synchronous steps per second
MILLION_STORE_BUILD_BUDGET_S = 10.0
MILLION_MIN_STEPS_PER_SEC = 5.0

#: PR-10 telemetry gates.  The disabled-registry path is one branch
#: per fused span, far below what wall-clock timing can resolve, so
#: the disabled-path contract is enforced through the BENCH_6
#: trajectory gate (the resident rate now *includes* the guards; any
#: real cost shows up against the recorded baseline).  What is
#: measurable in-process is the cost of the registry switched ON —
#: one counter pair, one histogram observe and one span record per
#: fused chunk — gated here against the disabled rate.
MAX_OBS_ENABLED_OVERHEAD = 0.05

#: generous --tiny floor: at smoke sizes a fused chunk is microseconds
#: of work, so the fixed per-chunk recording cost looms larger and
#: loaded CI runners add noise; only a wholesale regression (recording
#: leaking into the per-step loop) should trip this
MAX_OBS_ENABLED_OVERHEAD_TINY = 0.35

#: generous floors for the churn+recovery scenario case: the scenario
#: run (periodic corruption + topology churn + recovery tracking —
#: recovery timing pays one exact silence check per round while
#: recovering, which dominates) must keep this fraction of the
#: scenario-free throughput.  Measured ≈0.22 at full scale and ≈0.12
#: at --tiny; the floors only catch a wholesale regression (e.g.
#: scenario bookkeeping leaking into scenario-free steps) without
#: flaking on loaded CI runners.
MIN_SCENARIO_RATIO = 0.12
MIN_SCENARIO_RATIO_TINY = 0.06

#: run-to-silence gate: absolute ceilings on ``run_until_silent`` wall
#: time per protocol (set-up excluded).  On a shared 2-vCPU host the
#: linear silence walk reaches silence in ≤1.1 s at 10k and ≤0.22 s at
#: 3,000 processes; the quadratic walk it replaced took 60 s (MIS) /
#: 271 s (MATCHING) at 10k and 4.2-4.4 s / 8.9-9.7 s at 3,000.
SILENCE_N = 10_000
SILENCE_CEILING_S = 10.0
SILENCE_TINY_N = 3_000
SILENCE_TINY_CEILING_S = 1.5


def topologies(n: int) -> List[Tuple[str, Dict]]:
    """The scale-tier topology grid at ``n`` processes."""
    side = max(3, round(n ** 0.5))
    return [
        ("ring", {"n": n}),
        ("torus", {"rows": side, "cols": side}),
        ("sparse", {"n": n, "avg_degree": 3.0, "seed": 7}),
    ]


def build_spec(protocol: str, topology: str, params: Dict, engine: str,
               metrics: str = "full") -> ExperimentSpec:
    """One scale-tier spec: enabled-drawing central daemon, given engine."""
    return ExperimentSpec(
        protocol=protocol,
        topology=topology,
        topology_params=params,
        scheduler="central",
        scheduler_params={"enabled_only": True},
        seed=1,
        engine=engine,
        metrics=metrics,
    )


def time_stepping(sim, budget_s: float) -> float:
    """Step ``sim`` for ~budget_s of wall time; returns steps/sec."""
    sim.step()  # warm caches outside the timed window
    steps = 0
    t0 = time.perf_counter()
    while True:
        sim.step()
        steps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return steps / elapsed


def steps_per_sec(spec: ExperimentSpec, budget_s: float) -> float:
    """Run ``spec``'s simulator for ~budget_s of wall time; steps/sec."""
    return time_stepping(spec.build_simulator(), budget_s)


def hot_loop_sims(n: int) -> Dict[str, Simulator]:
    """The hot-loop pair: 10k synchronous COLORING on the scalar loop
    under the ``full`` and ``aggregate`` tiers, replaying one seed."""
    def build(metrics):
        return ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": n},
            scheduler="synchronous", seed=1, metrics=metrics,
        ).build_simulator()

    return {
        "flat_full": build("full"),
        "flat_aggregate": build("aggregate"),
    }


def measure_hot_loop(n: int, budget_s: float) -> Dict[str, float]:
    """Steps/sec of the hot-loop pair."""
    return {
        label: time_stepping(sim, budget_s)
        for label, sim in hot_loop_sims(n).items()
    }


def measure_grid(n: int, budget_s: float,
                 tiers: Tuple[str, ...] = TIERS) -> List[Dict]:
    """Steps/sec per topology × protocol × engine × metrics tier."""
    rows = []
    for topo_name, params in topologies(n):
        for protocol in PROTOCOLS:
            for engine in ENGINES:
                for metrics in tiers:
                    rate = steps_per_sec(
                        build_spec(protocol, topo_name, params, engine,
                                   metrics),
                        budget_s,
                    )
                    rows.append({
                        "topology": topo_name,
                        "protocol": protocol,
                        "engine": engine,
                        "metrics": metrics,
                        "steps_per_sec": round(rate, 2),
                    })
    return rows


def scenario_sims(n: int):
    """The scenario gate pair: 10k synchronous COLORING, plain vs the
    canned churn+recovery scenario (corruption every period, one safe
    topology mutation cycling through all four churn operations,
    recovery cycles timed).  Both sides come from the spec layer, so
    the bench measures exactly what spec-driven scenario runs pay."""
    spec = ExperimentSpec(
        protocol="coloring", topology="ring", topology_params={"n": n},
        scheduler="synchronous", seed=1, metrics="aggregate",
    )
    churned = spec.variant(
        scenario="churn",
        scenario_params={"period_rounds": 10, "fraction": 0.05, "degree": 2},
    )
    return {
        "plain": spec.build_simulator(),
        "scenario": churned.build_simulator(),
    }


def measure_scenario(n: int, budget_s: float) -> Dict[str, float]:
    """Steps/sec of the plain vs churn+recovery pair plus the ratio and
    the number of scenario events that actually fired."""
    sims = scenario_sims(n)
    rates = {
        label: time_stepping(sim, budget_s) for label, sim in sims.items()
    }
    runtime = sims["scenario"].scenario_runtime
    metrics = sims["scenario"].metrics
    return {
        "plain": rates["plain"],
        "scenario": rates["scenario"],
        "ratio": rates["scenario"] / rates["plain"],
        "events_applied": float(len(runtime.applied)),
        "faults_injected": float(metrics.faults_injected),
        "recoveries_timed": float(len(metrics.recovery_rounds)),
    }


def measure_run_to_silence(n: int) -> Dict[str, Dict[str, float]]:
    """Per protocol: seconds for a sparse ``n``-process synchronous
    ``batch-resident`` run to reach silence, its steps, and whether it
    ended silent and legitimate."""
    out = {}
    for protocol in PROTOCOLS:
        sim = ExperimentSpec(
            protocol=protocol,
            topology="sparse",
            topology_params={"n": n, "avg_degree": 3.0, "seed": 7},
            scheduler="synchronous",
            seed=1,
            engine="batch-resident",
            metrics="aggregate",
        ).build_simulator()
        assert sim.engine.batch_active, protocol
        t0 = time.perf_counter()
        report = sim.run_until_silent()
        out[protocol] = {
            "seconds": time.perf_counter() - t0,
            "steps": report.steps,
            "stabilized": report.stabilized,
        }
    return out


def identical_prefix(protocol: str, topology: str, params: Dict,
                     steps: int = 50) -> bool:
    """Cheap determinism guard: all engines replay the same steps."""
    runs = []
    for engine in ("incremental", "scan", "batch-resident"):
        sim = build_spec(protocol, topology, params, engine).build_simulator()
        runs.append([sim.step() for _ in range(steps)])
    return all(run == runs[0] for run in runs[1:])


def measure_batch(n: int, budget_s: float) -> Dict[str, float]:
    """The PR-7 acceptance pair: synchronous COLORING at ``n``
    processes, aggregate tier, scalar incremental loop vs the columnar
    engine, both one ``Simulator.step`` at a time.  Returns both rates
    (the columnar one under its historical ``batch`` key) plus the
    speedup."""
    def build(engine):
        return ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": n},
            scheduler="synchronous", seed=1, engine=engine,
            metrics="aggregate",
        ).build_simulator()

    rates = {
        "incremental": time_stepping(build("incremental"), budget_s),
        "batch": time_stepping(build("batch-resident"), budget_s),
    }
    rates["speedup"] = rates["batch"] / rates["incremental"]
    return rates


def time_stepping_resident(sim, budget_s: float, chunk: int = 64) -> float:
    """Fused-driver analogue of :func:`time_stepping`: run the resident
    engine in ``chunk``-step fused spans for ~budget_s; steps/sec (the
    speedup floors catch a run that stops fusing)."""
    sim.run_steps(1)  # warm caches outside the timed window
    steps = 0
    t0 = time.perf_counter()
    while True:
        sim.run_steps(chunk)
        steps += chunk
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return steps / elapsed


def measure_resident(n: int, budget_s: float) -> Dict[str, float]:
    """The PR-8 acceptance pair: synchronous COLORING at ``n``
    processes, aggregate tier, the columnar engine one
    ``Simulator.step`` at a time (historical key ``batch``) vs its
    fused loop.  Returns both rates plus the speedup."""
    def build(engine):
        return ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": n},
            scheduler="synchronous", seed=1, engine=engine,
            metrics="aggregate",
        ).build_simulator()

    resident_sim = build("batch-resident")
    rates = {
        "batch": time_stepping(build("batch-resident"), budget_s),
        "resident": time_stepping_resident(resident_sim, budget_s),
    }
    rates["speedup"] = rates["resident"] / rates["batch"]
    return rates


def measure_obs_overhead(n: int, budget_s: float) -> Dict[str, float]:
    """Fused resident stepping with the telemetry registry off vs on.

    Same workload as :func:`measure_resident`'s resident arm; the
    registry state is restored (and the instruments dropped) on exit so
    the measurement never leaks into other cases.
    """
    from repro.obs.registry import TELEMETRY

    def build():
        return ExperimentSpec(
            protocol="coloring", topology="ring", topology_params={"n": n},
            scheduler="synchronous", seed=1, engine="batch-resident",
            metrics="aggregate",
        ).build_simulator()

    was_enabled = TELEMETRY.enabled
    disabled = enabled = 0.0
    try:
        # Alternating best-of-3 pairs: the real per-span cost is far
        # below single-shot wall-clock jitter, so one measurement per
        # arm flakes.  Interleaving cancels machine drift; max-of-k is
        # the noise-robust throughput estimate.
        for _ in range(3):
            TELEMETRY.disable()
            disabled = max(disabled,
                           time_stepping_resident(build(), budget_s))
            TELEMETRY.enable()
            enabled = max(enabled,
                          time_stepping_resident(build(), budget_s))
    finally:
        TELEMETRY.enabled = was_enabled
        TELEMETRY.reset()
    return {
        "disabled": disabled,
        "enabled": enabled,
        "enabled_overhead": 1.0 - enabled / disabled,
    }


def measure_million_resident(n: int = MILLION_N,
                             steps: int = MILLION_STEPS) -> Dict[str, float]:
    """The 1M-process sparse tier under the resident engine.

    Splits the build cost so each gate stands alone: ``build_s`` is the
    whole simulator construction (graph sample, configuration draw,
    engine activation), ``store_build_s`` re-times just the
    ColumnStore assembly (the < 10s gate), and ``steps_per_sec`` is
    the fused driver's synchronous rate (the ≥ 5 steps/s gate).
    """
    import gc

    from repro.core.columns import ColumnStore

    t0 = time.perf_counter()
    sim = ExperimentSpec(
        protocol="coloring", topology="sparse",
        topology_params={"n": n, "avg_degree": 3.0, "seed": 7},
        scheduler="synchronous", seed=1, engine="batch-resident",
        metrics="aggregate",
    ).build_simulator()
    build_s = time.perf_counter() - t0
    # The simulator build leaves ~GBs of freshly allocated objects;
    # collect first so the store-build gate times the build, not a GC
    # pass that happens to land inside the window.
    gc.collect()
    t0 = time.perf_counter()
    store = ColumnStore.try_build(sim.network, sim.config, sim.engine.specs_of)
    store_build_s = time.perf_counter() - t0
    assert store is not None, "1M store build fell back"
    del store
    gc.collect()
    sim.run_steps(1)  # warm outside the timed window
    t0 = time.perf_counter()
    sim.run_steps(steps)
    elapsed = time.perf_counter() - t0
    rate = steps / elapsed
    return {
        "n": float(n),
        "steps_timed": float(steps),
        "build_s": build_s,
        "store_build_s": store_build_s,
        "steps_per_sec": rate,
        "activations_per_sec": rate * n,
    }


def measure_million(n: int = MILLION_N,
                    steps: int = MILLION_STEPS) -> Dict[str, float]:
    """The 1M-process sparse tier: columnar synchronous COLORING, one
    ``Simulator.step`` at a time.

    Every step activates all ``n`` processes, so the per-step rate is
    stable after very few steps; reports steps/sec and the derived
    process-activations/sec (the number the paper-scale claim is
    about).  Build time is reported separately — constructing the
    million-node sparse graph dominates wall time, not stepping.
    """
    t0 = time.perf_counter()
    sim = ExperimentSpec(
        protocol="coloring", topology="sparse",
        topology_params={"n": n, "avg_degree": 3.0, "seed": 7},
        scheduler="synchronous", seed=1, engine="batch-resident",
        metrics="aggregate",
    ).build_simulator()
    build_s = time.perf_counter() - t0
    sim.step()  # warm the column store outside the timed window
    t0 = time.perf_counter()
    for _ in range(steps):
        sim.step()
    elapsed = time.perf_counter() - t0
    rate = steps / elapsed
    return {
        "n": float(n),
        "steps_timed": float(steps),
        "build_s": build_s,
        "steps_per_sec": rate,
        "activations_per_sec": rate * n,
    }


def _speedup_rows(grid: List[Dict]) -> List[List]:
    """Fold the grid into incremental-vs-scan rows at the full tier."""
    by_cell = {
        (r["topology"], r["protocol"], r["engine"]): r["steps_per_sec"]
        for r in grid if r["metrics"] == "full"
    }
    rows = []
    for topo_name, _params in topologies(0):  # names only; n irrelevant
        for protocol in PROTOCOLS:
            fast = by_cell.get((topo_name, protocol, "incremental"))
            slow = by_cell.get((topo_name, protocol, "scan"))
            if fast is None or slow is None:
                continue
            rows.append([
                topo_name, protocol, f"{fast:,.0f}", f"{slow:,.0f}",
                fast / slow,
            ])
    return rows


def _rounded(values: Dict[str, float], digits: int = 3) -> Dict[str, float]:
    return {k: round(v, digits) for k, v in values.items()}


def bench3_section(n: int, budget_s: float, grid: List[Dict],
                   hot_loop: Dict[str, float]) -> Dict:
    """``BENCH_3``: the engine grid plus the two hot-loop rates."""
    return {"n": n, "budget_s": budget_s, "grid": grid,
            "hot_loop": _rounded(hot_loop, 2)}


def bench4_section(n: int, budget_s: float,
                   scenario: Dict[str, float]) -> Dict:
    """``BENCH_4``: the churn+recovery scenario case."""
    return {"n": n, "budget_s": budget_s,
            "churn_recovery": _rounded(scenario)}


def bench5_section(n: int, budget_s: float, batch: Dict[str, float],
                   million: Dict[str, float] = None) -> Dict:
    """``BENCH_5``: the per-step columnar case (and the 1M tier)."""
    section = {"n": n, "budget_s": budget_s,
               "batch_vs_incremental": _rounded(batch)}
    if million is not None:
        section["million_sparse"] = _rounded(million)
    return section


def bench6_section(n: int, budget_s: float, resident: Dict[str, float],
                   million: Dict[str, float] = None,
                   obs: Dict[str, float] = None) -> Dict:
    """``BENCH_6``: the fused case, its telemetry overhead, and the 1M
    tier with its two gate thresholds beside the measured values, so
    the artifact is self-describing."""
    section = {"n": n, "budget_s": budget_s,
               "resident_vs_batch": _rounded(resident)}
    if obs is not None:
        section["telemetry_overhead"] = _rounded(obs)
    if million is not None:
        section["million_sparse"] = _rounded(million)
        section["million_gates"] = {
            "store_build_budget_s": MILLION_STORE_BUILD_BUDGET_S,
            "store_build_ok": million["store_build_s"]
            < MILLION_STORE_BUILD_BUDGET_S,
            "min_steps_per_sec": MILLION_MIN_STEPS_PER_SEC,
            "steps_per_sec_ok": million["steps_per_sec"]
            >= MILLION_MIN_STEPS_PER_SEC,
        }
    return section


def emit_bench(mode: str, sections: Dict[str, Dict], write_json: bool = True,
               store: str = None) -> None:
    """The one writer of bench sections (``{"BENCH_3": section, ...}``).

    Each section's keys are merged into the ``mode`` entry of its
    ``BENCH_<k>.json`` (the pytest cases may each write part of one
    section): at the repo root for ``full``, under :data:`TINY_DIR` for
    ``tiny``, which leaves the committed files as they are.  The same
    section is appended to the ``(bench, mode)`` trajectory of the
    results store at ``store``, if given.
    """
    folder = BENCH_ROOT / TINY_DIR if mode == "tiny" else BENCH_ROOT
    for bench, section in sections.items() if write_json else ():
        folder.mkdir(exist_ok=True)
        path = folder / f"{bench}.json"
        payload: Dict = {}
        if path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError):
                payload = {}
        merged = payload.get(mode)
        if not isinstance(merged, dict):
            merged = {}
        merged.update(section)
        payload[mode] = merged
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    if store:
        from repro.results import ResultStore

        with ResultStore(store) as results:
            for bench, section in sections.items():
                results.record_bench(bench, mode, section)


def _emit(rows: List[List], n: int) -> None:
    from conftest import print_table

    print_table(
        f"E10  engine throughput, n={n} (enabled-drawing central daemon)",
        ["topology", "protocol", "incremental steps/s", "scan steps/s",
         "speedup"],
        [row[:4] + [f"{row[4]:.1f}x"] for row in rows],
    )


# ----------------------------------------------------------------------
# Pytest entry points
# ----------------------------------------------------------------------
def test_engines_replay_identically(tiny):
    n = TINY_N if tiny else 600  # equivalence check needs steps, not scale
    for topo_name, params in topologies(n):
        assert identical_prefix("mis", topo_name, params), topo_name
    assert identical_prefix("coloring", "ring", {"n": n})
    assert identical_prefix("matching", "ring", {"n": n})


def test_engine_speedup_grid(tiny):
    n = TINY_N if tiny else FULL_N
    budget = TINY_BUDGET_S if tiny else FULL_BUDGET_S
    grid = measure_grid(n, budget)
    hot = measure_hot_loop(n, budget)
    emit_bench("tiny" if tiny else "full",
               {"BENCH_3": bench3_section(n, budget, grid, hot)})
    rows = _speedup_rows(grid)
    _emit(rows, n)
    print(
        f"\nflat hot loop, n={n} (synchronous coloring): "
        f"full {hot['flat_full']:,.1f} steps/s, "
        f"aggregate {hot['flat_aggregate']:,.1f} steps/s"
    )
    assert all(speedup > 0 for *_front, speedup in rows)
    if not tiny:
        # The acceptance bar: >= 3x on the 10k ring under the central
        # daemon, for every protocol.
        ring_rows = [row for row in rows if row[0] == "ring"]
        assert ring_rows and all(row[4] >= MIN_SPEEDUP for row in ring_rows)


def test_scenario_churn_recovery(tiny):
    """PR-4 gate: the churn+recovery scenario keeps a generous fraction
    of the plain hot-loop throughput, and its events actually fire.

    The scenario run pays for periodic corruption, four-operation
    topology churn (full protocol/engine/pool rebinds), and recovery
    timing; the floor only guards against wholesale regressions (e.g.
    scenario bookkeeping leaking into scenario-free steps).
    """
    n = TINY_N if tiny else FULL_N
    budget = TINY_BUDGET_S if tiny else FULL_BUDGET_S
    result = measure_scenario(n, budget)
    emit_bench("tiny" if tiny else "full",
               {"BENCH_4": bench4_section(n, budget, result)})
    print(
        f"\nchurn+recovery scenario, n={n} (synchronous coloring): "
        f"plain {result['plain']:,.1f} steps/s, "
        f"scenario {result['scenario']:,.1f} steps/s "
        f"({result['ratio']:.2f}x), "
        f"{result['events_applied']:.0f} events applied"
    )
    assert result["events_applied"] >= 1
    floor = MIN_SCENARIO_RATIO_TINY if tiny else MIN_SCENARIO_RATIO
    assert result["ratio"] >= floor


def test_batch_engine_speedup(tiny):
    """BENCH_5 gate: the columnar engine, stepped one step at a time, ≥5x
    the scalar incremental loop on 10k-node synchronous coloring (≥1.5x
    at smoke sizes), with the 1M-process sparse tier completing at full
    scale."""
    n = BATCH_TINY_N if tiny else FULL_N
    budget = TINY_BUDGET_S if tiny else FULL_BUDGET_S
    rates = measure_batch(n, budget)
    million = None if tiny else measure_million()
    emit_bench("tiny" if tiny else "full",
               {"BENCH_5": bench5_section(n, budget, rates, million)})
    print(
        f"\ncolumnar engine, n={n} (synchronous coloring, aggregate tier): "
        f"incremental {rates['incremental']:,.1f} steps/s, "
        f"per-step columnar {rates['batch']:,.1f} steps/s "
        f"({rates['speedup']:.2f}x)"
    )
    if million is not None:
        print(
            f"1M sparse tier: {million['steps_per_sec']:.2f} steps/s "
            f"({million['activations_per_sec']:,.0f} activations/s, "
            f"build {million['build_s']:.1f}s)"
        )
        assert million["steps_per_sec"] > 0
    floor = MIN_BATCH_SPEEDUP_TINY if tiny else MIN_BATCH_SPEEDUP
    assert rates["speedup"] >= floor


def test_resident_engine_speedup(tiny):
    """BENCH_6 gate: the fused loop ≥3x per-step columnar stepping on
    10k-node synchronous coloring (≥1.5x at smoke sizes); at
    full scale the 1M sparse tier must assemble its ColumnStore inside
    the 10s budget and sustain ≥5 fused steps/s — both gated
    separately."""
    n = BATCH_TINY_N if tiny else FULL_N
    budget = TINY_BUDGET_S if tiny else FULL_BUDGET_S
    rates = measure_resident(n, budget)
    million = None if tiny else measure_million_resident()
    emit_bench("tiny" if tiny else "full",
               {"BENCH_6": bench6_section(n, budget, rates, million)})
    print(
        f"\nfused loop, n={n} (synchronous coloring, aggregate tier): "
        f"per-step {rates['batch']:,.1f} steps/s, "
        f"fused {rates['resident']:,.1f} steps/s "
        f"({rates['speedup']:.2f}x)"
    )
    if million is not None:
        print(
            f"1M sparse tier (resident): {million['steps_per_sec']:.2f} "
            f"steps/s ({million['activations_per_sec']:,.0f} activations/s, "
            f"build {million['build_s']:.1f}s, "
            f"store build {million['store_build_s']:.1f}s)"
        )
        assert million["store_build_s"] < MILLION_STORE_BUILD_BUDGET_S
        assert million["steps_per_sec"] >= MILLION_MIN_STEPS_PER_SEC
    floor = MIN_RESIDENT_SPEEDUP_TINY if tiny else MIN_RESIDENT_SPEEDUP
    assert rates["speedup"] >= floor


def test_obs_overhead(tiny):
    """PR-10 gate: telemetry switched ON costs at most a few percent of
    fused resident throughput (the switched-OFF path — one branch per
    fused span — is covered by the BENCH_6 trajectory gate, whose
    resident rate now includes the guards)."""
    n = BATCH_TINY_N if tiny else FULL_N
    budget = TINY_BUDGET_S if tiny else FULL_BUDGET_S
    rates = measure_obs_overhead(n, budget)
    emit_bench("tiny" if tiny else "full",
               {"BENCH_6": {"telemetry_overhead": _rounded(rates)}})
    print(
        f"\ntelemetry overhead, n={n} (fused resident, aggregate tier): "
        f"disabled {rates['disabled']:,.1f} steps/s, "
        f"enabled {rates['enabled']:,.1f} steps/s "
        f"({rates['enabled_overhead']:.1%} overhead)"
    )
    ceiling = (MAX_OBS_ENABLED_OVERHEAD_TINY if tiny
               else MAX_OBS_ENABLED_OVERHEAD)
    assert rates["enabled_overhead"] <= ceiling


def test_run_to_silence_every_protocol(tiny):
    """Every protocol reaches silence at scale within an absolute
    ceiling: 10k sparse processes (3,000 at --tiny), synchronous
    daemon, batch-resident engine, aggregate tier."""
    n = SILENCE_TINY_N if tiny else SILENCE_N
    ceiling = SILENCE_TINY_CEILING_S if tiny else SILENCE_CEILING_S
    results = measure_run_to_silence(n)
    for protocol, result in results.items():
        print(
            f"\nrun to silence, n={n} sparse ({protocol}, synchronous, "
            f"batch-resident): {result['seconds']:.3f} s for "
            f"{result['steps']} steps (ceiling {ceiling:.1f} s)"
        )
    for protocol, result in results.items():
        assert result["stabilized"], protocol
        assert result["seconds"] <= ceiling, (protocol, result)


# ----------------------------------------------------------------------
# Script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke sizes (CI)")
    parser.add_argument("--n", type=int, default=None,
                        help=f"network size (default {FULL_N}, "
                             f"or {TINY_N} with --tiny)")
    parser.add_argument("--budget", type=float, default=None,
                        help="seconds of stepping per (engine, cell)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the BENCH_*.json files")
    parser.add_argument("--store", default=None,
                        help="also append this emission to a results "
                             "store's bench trajectory (repro compare "
                             "gates BENCH payloads against it)")
    parser.add_argument("--profile", default=None, metavar="PSTATS",
                        help="run the measurement pass under cProfile "
                             "and dump the stats to this path (inspect "
                             "with python -m pstats)")
    args = parser.parse_args(argv)

    n = args.n or (TINY_N if args.tiny else FULL_N)
    budget = args.budget or (TINY_BUDGET_S if args.tiny else FULL_BUDGET_S)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    grid = measure_grid(n, budget)
    hot = measure_hot_loop(n, budget)
    scenario = measure_scenario(n, budget)
    batch_n = BATCH_TINY_N if args.tiny else n
    batch = measure_batch(batch_n, budget)
    resident = measure_resident(batch_n, budget)
    obs = measure_obs_overhead(batch_n, budget)
    million = None if args.tiny else measure_million()
    million_res = None if args.tiny else measure_million_resident()
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(f"cProfile stats written to {args.profile}")
    mode = "tiny" if args.tiny else "full"
    emit_bench(mode, {
        "BENCH_3": bench3_section(n, budget, grid, hot),
        "BENCH_4": bench4_section(n, budget, scenario),
        "BENCH_5": bench5_section(batch_n, budget, batch, million),
        "BENCH_6": bench6_section(batch_n, budget, resident, million_res,
                                  obs),
    }, write_json=not args.no_json, store=args.store)
    if args.store:
        print(f"bench trajectories appended to {args.store}")
    print(f"engine grid at n={n}, {budget:.2f}s per cell:")
    for row in grid:
        print(f"  {row['topology']:8s} {row['protocol']:10s} "
              f"{row['engine']:11s} {row['metrics']:9s} "
              f"{row['steps_per_sec']:>12,.0f} steps/s")
    print(f"flat hot loop (synchronous coloring, n={n}):")
    print(f"  full metrics                          "
          f"{hot['flat_full']:>12,.1f} steps/s")
    print(f"  aggregate metrics                     "
          f"{hot['flat_aggregate']:>12,.1f} steps/s")
    ring_ok = all(
        r2 / r1 >= MIN_SPEEDUP
        for r1, r2 in [(
            next(r["steps_per_sec"] for r in grid
                 if r["topology"] == "ring" and r["protocol"] == proto
                 and r["engine"] == "scan" and r["metrics"] == "full"),
            next(r["steps_per_sec"] for r in grid
                 if r["topology"] == "ring" and r["protocol"] == proto
                 and r["engine"] == "incremental" and r["metrics"] == "full"),
        ) for proto in PROTOCOLS]
    )
    print(f"churn+recovery scenario (synchronous coloring, n={n}):")
    print(f"  plain                                 "
          f"{scenario['plain']:>12,.1f} steps/s")
    print(f"  churn scenario                        "
          f"{scenario['scenario']:>12,.1f} steps/s "
          f"({scenario['ratio']:.2f}x, "
          f"{scenario['events_applied']:.0f} events)")
    print(f"columnar engine (synchronous coloring, n={batch_n}, aggregate):")
    print(f"  scalar incremental                    "
          f"{batch['incremental']:>12,.1f} steps/s")
    print(f"  columnar, per step                    "
          f"{batch['batch']:>12,.1f} steps/s ({batch['speedup']:.2f}x)")
    if million is not None:
        print(f"  1M sparse tier (per step)             "
              f"{million['steps_per_sec']:>12,.2f} steps/s "
              f"({million['activations_per_sec']:,.0f} activations/s)")
    print(f"fused loop (synchronous coloring, n={batch_n}, aggregate):")
    print(f"  columnar, per step                    "
          f"{resident['batch']:>12,.1f} steps/s")
    print(f"  columnar, fused                       "
          f"{resident['resident']:>12,.1f} steps/s "
          f"({resident['speedup']:.2f}x)")
    if million_res is not None:
        print(f"  1M sparse tier (fused)                "
              f"{million_res['steps_per_sec']:>12,.2f} steps/s "
              f"(build {million_res['build_s']:.1f}s, "
              f"store build {million_res['store_build_s']:.1f}s)")
    print(f"telemetry overhead (fused resident, n={batch_n}):")
    print(f"  registry off                          "
          f"{obs['disabled']:>12,.1f} steps/s")
    print(f"  registry on                           "
          f"{obs['enabled']:>12,.1f} steps/s "
          f"({obs['enabled_overhead']:.1%} overhead)")
    scenario_ok = scenario["ratio"] >= (
        MIN_SCENARIO_RATIO_TINY if args.tiny else MIN_SCENARIO_RATIO
    ) and scenario["events_applied"] >= 1
    batch_ok = batch["speedup"] >= (
        MIN_BATCH_SPEEDUP_TINY if args.tiny else MIN_BATCH_SPEEDUP
    )
    resident_ok = resident["speedup"] >= (
        MIN_RESIDENT_SPEEDUP_TINY if args.tiny else MIN_RESIDENT_SPEEDUP
    )
    if million_res is not None:
        resident_ok = (
            resident_ok
            and million_res["store_build_s"] < MILLION_STORE_BUILD_BUDGET_S
            and million_res["steps_per_sec"] >= MILLION_MIN_STEPS_PER_SEC
        )
    obs_ok = obs["enabled_overhead"] <= (
        MAX_OBS_ENABLED_OVERHEAD_TINY if args.tiny
        else MAX_OBS_ENABLED_OVERHEAD
    )
    if not args.tiny and not ring_ok:
        print(f"FAIL: ring speedup below the {MIN_SPEEDUP}x floor")
        return 1
    if not scenario_ok:
        print("FAIL: churn+recovery scenario below its throughput floor")
        return 1
    if not batch_ok:
        print("FAIL: per-step columnar engine below its speedup floor")
        return 1
    if not resident_ok:
        print("FAIL: fused loop below its speedup floor or 1M gates")
        return 1
    if not obs_ok:
        print("FAIL: enabled-telemetry overhead above its ceiling")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
