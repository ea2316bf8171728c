"""Campaigns: grids of :class:`ExperimentSpec` run serially or in
parallel, streamed to JSONL, resumable.

A campaign is the paper's experimental method as data — protocols ×
topologies × schedulers × seeds — with an executor that:

* runs specs serially or on a :class:`~concurrent.futures.ProcessPoolExecutor`
  (each spec carries its own seed, so parallel results are bit-identical
  to serial results);
* streams one JSON line per finished trial to a sink file the moment it
  completes, so an interrupted campaign loses at most in-flight trials;
* on restart, skips every spec whose key already appears in the sink.

Usage::

    campaign = Campaign.grid(
        protocols=["coloring", "mis", "matching"],
        topologies=[("ring", {"n": 24}), ("grid", {"rows": 5, "cols": 5})],
        schedulers=["synchronous", "central", "locally-central"],
        seeds=range(32),
    )
    outcome = campaign.run(jsonl_path="results.jsonl", workers=8)
    for spec, result in outcome:
        ...
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..experiments.runner import TrialResult
from ..obs.registry import TELEMETRY
from .spec import ExperimentSpec

#: A grid axis entry: "coloring", ("gnp", {"n": 30, "p": 0.2}), or
#: {"name": "gnp", "params": {...}}.
ComponentSpec = Union[str, Tuple[str, Mapping[str, Any]], Mapping[str, Any]]


def _normalize_component(item: ComponentSpec) -> Tuple[str, Dict[str, Any]]:
    if isinstance(item, str):
        return item, {}
    if isinstance(item, tuple):
        name, params = item
        return name, dict(params or {})
    if isinstance(item, Mapping):
        return item["name"], dict(item.get("params") or {})
    raise TypeError(f"bad component spec: {item!r}")


def _run_spec_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point: spec dict in, result dict out."""
    spec = ExperimentSpec.from_dict(payload)
    return spec.run().to_dict()


@dataclass
class CampaignOutcome:
    """What :meth:`Campaign.run` returns.

    ``results`` is aligned row-for-row with ``specs`` (campaign order,
    independent of completion order under parallel execution).
    ``executed``/``skipped`` count fresh runs vs. resume hits.
    """

    specs: List[ExperimentSpec]
    results: List[Any]  # TrialResult rows, aligned with ``specs``
    executed: int = 0
    skipped: int = 0

    def __iter__(self) -> Iterator[Tuple[ExperimentSpec, Any]]:
        return iter(zip(self.specs, self.results))

    def __len__(self) -> int:
        return len(self.specs)


class Campaign:
    """An ordered collection of specs plus the machinery to run them."""

    def __init__(self, specs: Iterable[ExperimentSpec]):
        self.specs: List[ExperimentSpec] = list(specs)
        seen: set = set()
        dupes = set()
        for spec in self.specs:
            key = spec.key()
            (dupes if key in seen else seen).add(key)
        if dupes:
            raise ValueError(f"duplicate specs in campaign: {sorted(dupes)}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        protocols: Sequence[ComponentSpec],
        topologies: Sequence[ComponentSpec],
        schedulers: Sequence[ComponentSpec] = ("synchronous",),
        seeds: Iterable[int] = (0,),
        max_rounds: int = 50_000,
        engine: str = "incremental",
        metrics: str = "full",
        scenario: Optional[str] = None,
        scenario_params: Optional[Mapping[str, Any]] = None,
    ) -> "Campaign":
        """The full cross product of the four axes, in a stable order.

        ``engine`` and ``metrics`` apply to every spec in the grid
        (run-time strategies, not experiment axes — all engines produce
        identical results, and the ``aggregate`` tier reports the same
        final measures as ``full`` at a fraction of the step cost).
        ``scenario``/``scenario_params`` attach one named fault/churn
        scenario to every spec; sweep scenario parameters by
        concatenating grids (see ``examples/scenario_churn.py``).  Each
        seed reaches its spec as given, so a seed that is not an int is
        refused there.
        """
        specs = []
        for proto_name, proto_params in map(_normalize_component, protocols):
            for topo_name, topo_params in map(_normalize_component, topologies):
                for sched_name, sched_params in map(
                    _normalize_component, schedulers
                ):
                    for seed in seeds:
                        specs.append(ExperimentSpec(
                            protocol=proto_name,
                            protocol_params=proto_params,
                            topology=topo_name,
                            topology_params=topo_params,
                            scheduler=sched_name,
                            scheduler_params=sched_params,
                            seed=seed,
                            max_rounds=max_rounds,
                            engine=engine,
                            metrics=metrics,
                            scenario=scenario,
                            scenario_params=dict(scenario_params or {}),
                        ))
        return cls(specs)

    @classmethod
    def from_dicts(cls, dicts: Iterable[Mapping[str, Any]]) -> "Campaign":
        return cls(ExperimentSpec.from_dict(d) for d in dicts)

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        """Parse a JSON document — either a list of spec objects or
        ``{"grid": {...Campaign.grid kwargs...}}``."""
        data = json.loads(text)
        if isinstance(data, Mapping) and "grid" in data:
            return cls.grid(**data["grid"])
        if isinstance(data, list):
            return cls.from_dicts(data)
        raise ValueError(
            "campaign JSON must be a list of specs or {'grid': {...}}"
        )

    @classmethod
    def from_json_file(cls, path: Union[str, os.PathLike]) -> "Campaign":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.specs]

    def to_json(self) -> str:
        return json.dumps(self.to_dicts(), indent=2, sort_keys=True)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.specs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        jsonl_path: Optional[Union[str, os.PathLike]] = None,
        workers: int = 0,
        resume: bool = True,
        progress: Optional[Callable[[ExperimentSpec, Any], None]] = None,
        sink: Union[str, Any] = "jsonl",
        out: Optional[Union[str, os.PathLike]] = None,
        run_id: Optional[str] = None,
    ) -> CampaignOutcome:
        """Execute every spec; returns results aligned with the specs.

        Parameters
        ----------
        jsonl_path:
            Back-compat alias for ``out`` (the sink destination).
        workers:
            ``0``/``1`` runs serially in-process; ``>= 2`` fans out over
            a process pool of that many workers.  Results are identical
            either way because every spec carries its own seed.
        resume:
            When the sink already holds rows for some spec keys, return
            those rows instead of re-running the specs.
        progress:
            Optional ``(spec, result)`` callback, invoked on completion
            (resumed rows included), in completion order.
        sink:
            Sink kind for ``out`` — ``"jsonl"`` (one JSON line per
            trial, the historical format) or ``"sqlite"`` (a
            :class:`~repro.results.ResultStore` run; queryable,
            concurrent-writer safe) — or a ready-made
            :class:`~repro.results.Sink` instance.  Resume-by-key works
            identically across kinds.
        out:
            Sink destination path.  ``None`` (and no ``jsonl_path`` and
            no sink instance) keeps results in memory only.
        run_id:
            Store run to write into (``sink="sqlite"`` only; the sink's
            default is ``"campaign"``).  Naming runs is what makes
            serial-vs-fabric and before-vs-after comparisons possible
            in one store (``repro compare --runs``).
        """
        # Function-local by design: api and results reference each
        # other (the sink protocol lives with the warehouse), and this
        # is the one upward edge — see docs/architecture.md.
        from ..results.sinks import Sink, make_sink

        path = out if out is not None else jsonl_path
        if isinstance(sink, Sink):
            sink_obj: Optional[Sink] = sink
        elif path is None:
            sink_obj = None
        else:
            # Without resume the sink is started over, not appended to —
            # otherwise re-run rows would shadow (and double-count) old
            # ones.
            sink_kwargs: Dict[str, Any] = {}
            if run_id is not None:
                if sink != "sqlite":
                    raise ValueError(
                        "run_id requires sink='sqlite' (JSONL files "
                        "have no run namespace)")
                sink_kwargs["run_id"] = run_id
            sink_obj = make_sink(sink, path, append=resume, **sink_kwargs)

        completed: Dict[str, Any] = {}
        if resume and sink_obj is not None:
            completed = sink_obj.completed()

        by_key: Dict[str, Any] = {}
        skipped = 0
        pending: List[ExperimentSpec] = []
        for spec in self.specs:
            key = spec.key()
            if key in completed:
                by_key[key] = completed[key]
                skipped += 1
                if progress is not None:
                    progress(spec, completed[key])
            else:
                pending.append(spec)

        from ..results.sinks import SqliteSink

        t_start = time.perf_counter()
        try:
            if workers and workers >= 2 and len(pending) > 1:
                runner = self._run_pool(pending, workers)
            else:
                runner = self._run_serial(pending)
            for spec, result in runner:
                key = spec.key()
                by_key[key] = result
                if sink_obj is not None:
                    sink_obj.write(key, spec, result)
                if progress is not None:
                    progress(spec, result)
            wall = time.perf_counter() - t_start
            # Sqlite sinks get a per-campaign telemetry row regardless of
            # the registry switch: the summary is cheap, already computed,
            # and is what `/progress` and `repro top` fall back to after
            # the fact.  Recorded here, while the store is still open.
            if isinstance(sink_obj, SqliteSink):
                sink_obj.store.record_telemetry(sink_obj.run_id, {
                    "trials": len(self.specs),
                    "executed": len(pending),
                    "resumed": skipped,
                    "workers": workers,
                    "wall_time_s": wall,
                    "trials_per_s": (len(pending) / wall) if wall > 0
                                    else None,
                }, source="campaign")
        finally:
            if sink_obj is not None:
                sink_obj.close()

        if TELEMETRY.enabled:
            TELEMETRY.counter("campaign.executed").inc(len(pending))
            TELEMETRY.counter("campaign.resumed").inc(skipped)
            TELEMETRY.record_span(
                "campaign.run", wall, trials=len(self.specs),
                executed=len(pending), resumed=skipped, workers=workers,
            )

        return CampaignOutcome(
            specs=list(self.specs),
            results=[by_key[s.key()] for s in self.specs],
            executed=len(pending),
            skipped=skipped,
        )

    def run_fabric(self, store: Union[str, os.PathLike], **kwargs: Any):
        """Execute this campaign through the fabric coordinator.

        Shards the grid over worker subprocesses with crash recovery
        and merges per-shard stores into ``store`` — trial-for-trial
        identical to :meth:`run` with a sqlite sink, just distributed.
        Keyword arguments pass through to
        :class:`~repro.fabric.Coordinator` (``workers``, ``shards``,
        ``run_id``, ``resume``, ...); returns its
        :class:`~repro.fabric.FabricOutcome`.
        """
        # Same deliberate upward edge as the sink import in run().
        from ..fabric import run_fabric

        return run_fabric(self, store, **kwargs)

    @staticmethod
    def _run_serial(pending: Sequence[ExperimentSpec]):
        for spec in pending:
            yield spec, spec.run()

    @staticmethod
    def _run_pool(pending: Sequence[ExperimentSpec], workers: int):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_spec_payload, spec.to_dict()): spec
                for spec in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    yield futures[future], TrialResult.from_dict(
                        future.result()
                    )


# ----------------------------------------------------------------------
# JSONL sink readers (streaming)
# ----------------------------------------------------------------------
def _iter_sink_records(path) -> Iterator[Dict[str, Any]]:
    """Stream the well-formed ``{"key", "spec", "result"}`` records of a
    JSONL sink, one line at a time.

    The single tolerant reader shared by resume, ingest and the loaders
    below.  A half-written trailing line (what a hard-killed campaign
    leaves behind) is skipped instead of raising mid-file — that trial
    simply re-runs on resume — and so are blank lines; nothing is ever
    held beyond the current record, so sinks of any size stream in
    constant memory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                # Touch the fields now so malformed records are skipped
                # here, not deep inside a consumer.
                record["key"], record["spec"], record["result"]
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
            yield record


def _read_sink(path) -> Dict[str, Dict[str, Any]]:
    """Map of spec key -> result dict from a (possibly truncated) sink.

    Duplicate keys (two append sessions racing on one file) resolve
    last-writer-wins, matching the sqlite sink's insert-or-replace.
    """
    return {rec["key"]: rec["result"] for rec in _iter_sink_records(path)}


def iter_campaign_results(path) -> Iterator[Tuple[ExperimentSpec, Any]]:
    """Stream a sink file back as ``(spec, TrialResult)`` pairs.

    A generator: rows parse one at a time in file order, so arbitrarily
    large sinks can be folded (or ingested into a
    :class:`~repro.results.ResultStore`) without ever materializing the
    whole campaign in memory.
    """
    for record in _iter_sink_records(path):
        try:
            yield (
                ExperimentSpec.from_dict(record["spec"]),
                TrialResult.from_dict(record["result"]),
            )
        except (ValueError, KeyError, TypeError):
            continue


def load_campaign_results(path) -> List[Tuple[ExperimentSpec, Any]]:
    """Read a sink file back as a list of ``(spec, TrialResult)`` pairs
    (the eager form of :func:`iter_campaign_results`)."""
    return list(iter_campaign_results(path))
