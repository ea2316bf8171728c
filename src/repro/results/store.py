"""The results warehouse: a queryable SQLite store of campaign trials.

Campaign sinks so far were append-only JSONL — durable and resumable,
but aggregation meant slurping the whole file into memory.  The
:class:`ResultStore` keeps the same unit of truth (one spec + one
result row per trial, keyed by ``ExperimentSpec.key()``) in SQLite
(stdlib ``sqlite3``, WAL mode for concurrent writers), organized into
*runs* with provenance metadata (git revision, host, python, wall
time), and adds what flat files cannot do:

* **streaming bulk ingest** from existing campaign JSONL sinks
  (:meth:`ResultStore.ingest_jsonl`) and direct per-trial writes
  (:meth:`ResultStore.write`, used by the campaign's sqlite sink) —
  neither ever holds more than one batch of rows in Python memory;
* **resume parity** with the JSONL sink: :meth:`completed` answers
  "which spec keys already have results" exactly like re-reading a
  JSONL sink does;
* **grouped statistics** (:meth:`query`): filter with ``where=``,
  group by experiment axes, and get mean / median / stdev / CI95 per
  requested measure — computed one group at a time off an ordered
  cursor, never materializing the full row set;
* **run bookkeeping** for cross-run comparison
  (:mod:`repro.results.diff`) and benchmark trajectories
  (:meth:`record_bench` / :meth:`bench_trajectory`).

The trial table stores both the flattened grouping/measure columns
(for SQL) and the exact spec/result JSON blobs (for faithful
round-trips back into :class:`~repro.api.ExperimentSpec` /
:class:`~repro.experiments.TrialResult` pairs).
"""

from __future__ import annotations

import calendar
import json
import os
import sqlite3
import subprocess
import time
import uuid
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..experiments.runner import TrialResult
from .stats import Aggregate, summarize

#: Experiment-axis columns usable in ``where=`` and ``group_by=``.
AXIS_COLUMNS = (
    "run_id", "key", "protocol", "topology", "scheduler", "scenario", "seed",
)

#: Numeric measure columns usable in ``metrics=`` (and ``where=``).
MEASURE_COLUMNS = (
    "n", "m", "delta", "steps", "rounds", "k_efficiency",
    "max_bits_per_step", "total_bits", "legitimate", "silent",
    "faults_injected", "availability", "mean_recovery_rounds",
    "post_fault_bits",
)

#: Default grouping of :meth:`ResultStore.query` — the paper's table axes.
DEFAULT_GROUP_BY = ("protocol", "topology", "scheduler")

#: Default measures of :meth:`ResultStore.query` — the headline claims.
DEFAULT_METRICS = ("rounds", "steps", "k_efficiency", "total_bits")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    label       TEXT,
    created_at  TEXT NOT NULL,
    git_rev     TEXT,
    host        TEXT,
    python      TEXT,
    wall_time_s REAL,
    meta        TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS trials (
    run_id   TEXT NOT NULL,
    key      TEXT NOT NULL,
    protocol TEXT NOT NULL,
    topology TEXT NOT NULL,
    scheduler TEXT NOT NULL,
    scenario TEXT,
    seed     INTEGER NOT NULL,
    n        INTEGER, m INTEGER, delta INTEGER,
    steps    INTEGER, rounds INTEGER,
    k_efficiency INTEGER,
    max_bits_per_step REAL,
    total_bits REAL,
    legitimate INTEGER,
    silent     INTEGER,
    faults_injected INTEGER,
    availability REAL,
    mean_recovery_rounds REAL,
    post_fault_bits REAL,
    spec     TEXT NOT NULL,
    result   TEXT NOT NULL,
    PRIMARY KEY (run_id, key)
);
CREATE INDEX IF NOT EXISTS trials_by_group
    ON trials (run_id, protocol, topology, scheduler);
CREATE TABLE IF NOT EXISTS bench (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    bench       TEXT NOT NULL,
    mode        TEXT NOT NULL,
    recorded_at TEXT NOT NULL,
    git_rev     TEXT,
    payload     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS telemetry (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id      TEXT NOT NULL,
    source      TEXT NOT NULL,
    recorded_at TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS telemetry_by_run ON telemetry (run_id, id);
"""


def _git_rev() -> Optional[str]:
    """Current short git revision, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _now_iso() -> str:
    """Wall-clock timestamp in ISO-8601 UTC."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def iso_to_epoch(stamp: str) -> float:
    """Parse a ``runs.created_at`` ISO-8601 UTC stamp to epoch seconds."""
    return float(calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")))


@dataclass(frozen=True)
class RunInfo:
    """One row of the ``runs`` table: provenance of a stored campaign."""

    run_id: str
    label: Optional[str]
    created_at: str
    git_rev: Optional[str]
    host: Optional[str]
    python: Optional[str]
    wall_time_s: Optional[float]
    trials: int

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since this run was created (``repro prune`` ages)."""
        now = time.time() if now is None else now
        return now - iso_to_epoch(self.created_at)


@dataclass(frozen=True)
class GroupStats:
    """One group of :meth:`ResultStore.query`: axis values + aggregates."""

    #: grouping-column name -> value (e.g. ``{"protocol": "coloring"}``)
    group: Dict[str, Any]
    #: measure name -> :class:`~repro.results.stats.Aggregate`
    aggregates: Dict[str, Aggregate]

    @property
    def count(self) -> int:
        """Number of trials in the group."""
        return next(iter(self.aggregates.values())).count


class ResultStore:
    """SQLite-backed warehouse of campaign trials (see module docs)."""

    def __init__(self, path: Union[str, os.PathLike], timeout: float = 30.0,
                 create: bool = True):
        self.path = os.fspath(path)
        if not create and not os.path.exists(self.path):
            # Read-only consumers (query/report/compare) must not
            # litter empty stores at mistyped paths.
            raise ValueError(f"results store {self.path!r} does not exist")
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=timeout)
        try:
            # WAL lets one writer and many readers coexist (campaign
            # workers stream while `repro query` reads); NORMAL sync
            # matches the JSONL sink's durability (an OS crash may lose
            # the tail, a process crash loses nothing).
            self._enable_wal(timeout)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            # Pointing --store at a JSONL sink is the expected mix-up;
            # answer with the same clean error family as a missing path.
            self._conn.close()
            self._conn = None
            raise ValueError(
                f"{self.path!r} is not a results store: {exc}"
            ) from exc

    def _enable_wal(self, timeout: float) -> None:
        """Switch the journal to WAL, retrying while the file is locked.

        While another process is creating the same store, SQLite can
        answer this pragma with "database is locked" at once instead of
        waiting out the busy timeout; retry within ``timeout`` so the
        race never surfaces as a false "is not a results store".
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def begin_run(
        self,
        run_id: Optional[str] = None,
        label: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Create (or revisit) a run row; returns its id.

        The row records provenance — git revision, bench host, python —
        at creation time.  Calling ``begin_run`` again with the same id
        (a resumed campaign) keeps the original row untouched.
        """
        import platform

        if run_id is None:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            run_id = f"{label or 'run'}-{stamp}-{uuid.uuid4().hex[:6]}"
        self._conn.execute(
            "INSERT OR IGNORE INTO runs "
            "(run_id, label, created_at, git_rev, host, python, meta) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (run_id, label, _now_iso(), _git_rev(), platform.node(),
             platform.python_version(), json.dumps(dict(meta or {}))),
        )
        self._conn.commit()
        return run_id

    def finish_run(self, run_id: str, wall_time_s: float) -> None:
        """Record the run's wall-clock duration."""
        self._conn.execute(
            "UPDATE runs SET wall_time_s = ? WHERE run_id = ?",
            (wall_time_s, run_id),
        )
        self._conn.commit()

    def runs(self) -> List[RunInfo]:
        """All stored runs, oldest first, with their trial counts."""
        rows = self._conn.execute(
            "SELECT r.run_id, r.label, r.created_at, r.git_rev, r.host, "
            "       r.python, r.wall_time_s, "
            "       (SELECT COUNT(*) FROM trials t WHERE t.run_id = r.run_id) "
            "FROM runs r ORDER BY r.rowid"
        ).fetchall()
        return [RunInfo(*row) for row in rows]

    def latest_run_id(self) -> Optional[str]:
        """The most recently created run id (None on an empty store).

        Ordered by insertion (rowid), not ``created_at`` — the ISO
        stamp has one-second resolution, so back-to-back ingests would
        otherwise tie and resolve by accident of id string order.
        """
        row = self._conn.execute(
            "SELECT run_id FROM runs ORDER BY rowid DESC LIMIT 1"
        ).fetchone()
        return row[0] if row else None

    def has_run(self, run_id: str) -> bool:
        """Whether ``run_id`` exists in the runs table."""
        return self._conn.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone() is not None

    def _resolve_run(self, run_id: Optional[str]) -> str:
        if run_id is not None:
            # An explicit id must exist: a typo'd run must fail loudly,
            # not read back as an empty campaign.
            if not self.has_run(run_id):
                known = [info.run_id for info in self.runs()]
                raise ValueError(
                    f"unknown run id {run_id!r} in {self.path!r}; "
                    f"stored runs: {known}"
                )
            return run_id
        latest = self.latest_run_id()
        if latest is None:
            raise ValueError(f"store {self.path!r} holds no runs")
        return latest

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @staticmethod
    def _trial_row(run_id: str, key: str, spec: Mapping[str, Any],
                   result: Mapping[str, Any]) -> Tuple:
        """Flatten one (spec, result) record into a trials-table row."""
        return (
            run_id, key,
            spec["protocol"], spec["topology"],
            spec.get("scheduler", "synchronous"),
            spec.get("scenario"), int(spec.get("seed", 0)),
            result.get("n"), result.get("m"), result.get("delta"),
            result.get("steps"), result.get("rounds"),
            result.get("k_efficiency"),
            result.get("max_bits_per_step"), result.get("total_bits"),
            int(bool(result.get("legitimate"))),
            int(bool(result.get("silent"))),
            result.get("faults_injected", 0),
            result.get("availability", 1.0),
            result.get("mean_recovery_rounds", 0.0),
            result.get("post_fault_bits", 0.0),
            json.dumps(spec, sort_keys=True),
            json.dumps(result, sort_keys=True),
        )

    _INSERT = (
        "INSERT OR REPLACE INTO trials VALUES "
        "(" + ", ".join("?" * 23) + ")"
    )

    def write(self, run_id: str, key: str, spec: Mapping[str, Any],
              result: Mapping[str, Any]) -> None:
        """Persist one finished trial (insert-or-replace by key).

        Committed immediately: like the JSONL sink's flush-per-line, an
        interrupted campaign loses at most in-flight trials.
        """
        self._conn.execute(self._INSERT,
                           self._trial_row(run_id, key, spec, result))
        self._conn.commit()

    def write_many(
        self,
        run_id: str,
        records: Iterable[Tuple[str, Mapping[str, Any], Mapping[str, Any]]],
        batch: int = 1000,
    ) -> int:
        """Bulk-insert ``(key, spec_dict, result_dict)`` records.

        Streams: only ``batch`` flattened rows exist in memory at a
        time, so arbitrarily large JSONL sinks ingest in bounded space.
        Returns the number of rows written.  Duplicate keys follow
        last-writer-wins, matching how a JSONL sink is read back.
        """
        count = 0
        rows: List[Tuple] = []
        for key, spec, result in records:
            rows.append(self._trial_row(run_id, key, spec, result))
            if len(rows) >= batch:
                self._conn.executemany(self._INSERT, rows)
                self._conn.commit()
                count += len(rows)
                rows.clear()
        if rows:
            self._conn.executemany(self._INSERT, rows)
            self._conn.commit()
            count += len(rows)
        return count

    def ingest_jsonl(
        self,
        path: Union[str, os.PathLike],
        run_id: Optional[str] = None,
        label: Optional[str] = None,
    ) -> Tuple[str, int]:
        """Bulk-ingest an existing campaign JSONL sink into a run.

        Streams the file line by line (tolerating the truncated
        trailing line a hard-killed campaign leaves behind) and writes
        in batches; returns ``(run_id, rows_ingested)``.
        """
        from ..api.campaign import _iter_sink_records

        run_id = self.begin_run(
            run_id=run_id,
            label=label or os.path.basename(os.fspath(path)),
        )
        t0 = time.perf_counter()
        count = self.write_many(
            run_id,
            ((rec["key"], rec["spec"], rec["result"])
             for rec in _iter_sink_records(path)),
        )
        self.finish_run(run_id, time.perf_counter() - t0)
        return run_id, count

    def ingest_store(
        self,
        path: Union[str, os.PathLike],
        src_run_id: Optional[str] = None,
        run_id: Optional[str] = None,
        label: Optional[str] = None,
    ) -> Tuple[str, int]:
        """Merge one run of another store into a run of this store.

        The sqlite twin of :meth:`ingest_jsonl` — and the merge path of
        the campaign fabric, which streams per-shard stores back into
        the canonical one.  ``src_run_id`` defaults to the source's
        latest run; ``run_id`` defaults to a fresh run here.  Rows
        stream batch by batch (bounded memory) and duplicate keys are
        last-writer-wins, exactly like every other ingest.
        """
        with ResultStore(path, create=False) as src:
            src_run = src._resolve_run(src_run_id)
            run_id = self.begin_run(
                run_id=run_id,
                label=label or os.path.basename(os.fspath(path)),
            )
            t0 = time.perf_counter()
            count = self.write_many(run_id, src.raw_trials(src_run))
        self.finish_run(run_id, time.perf_counter() - t0)
        return run_id, count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def completed(self, run_id: str) -> Dict[str, Any]:
        """Spec-key -> :class:`TrialResult` map of a run (resume surface).

        Exactly what re-reading a JSONL sink yields, so campaigns
        resume identically off either sink.
        """
        return {
            key: TrialResult.from_dict(json.loads(blob))
            for key, blob in self._conn.execute(
                "SELECT key, result FROM trials WHERE run_id = ?", (run_id,)
            )
        }

    def completed_keys(self, run_id: str) -> Set[str]:
        """The spec keys that already hold a result in ``run_id``."""
        return {
            row[0] for row in self._conn.execute(
                "SELECT key FROM trials WHERE run_id = ?", (run_id,)
            )
        }

    def pending_keys(self, run_id: str, keys: Iterable[str]) -> List[str]:
        """Order-preserving subset of ``keys`` not yet stored in ``run_id``.

        The fabric's claim surface: a worker (or the coordinator
        requeueing a dead worker's shard) claims exactly the keys the
        store has not committed — completed work is never re-run.
        """
        done = self.completed_keys(run_id)
        return [key for key in keys if key not in done]

    def raw_trials(
        self, run_id: Optional[str] = None,
    ) -> Iterator[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
        """Stream a run's ``(key, spec dict, result dict)`` rows.

        Insertion order, one row at a time — the exact record shape
        :meth:`write_many` consumes, so store-to-store merges
        (:meth:`ingest_store`) round-trip without re-deriving anything.
        """
        run_id = self._resolve_run(run_id)
        cursor = self._conn.execute(
            "SELECT key, spec, result FROM trials WHERE run_id = ? "
            "ORDER BY rowid", (run_id,),
        )
        for key, spec_blob, result_blob in cursor:
            yield key, json.loads(spec_blob), json.loads(result_blob)

    def iter_results(self, run_id: Optional[str] = None) -> Iterator[Tuple]:
        """Stream a run back as ``(ExperimentSpec, TrialResult)`` pairs.

        Rows come back in insertion order (the campaign's completion
        order), one at a time — the sqlite twin of
        :func:`repro.api.iter_campaign_results`.
        """
        from ..api.spec import ExperimentSpec

        run_id = self._resolve_run(run_id)
        cursor = self._conn.execute(
            "SELECT spec, result FROM trials WHERE run_id = ? ORDER BY rowid",
            (run_id,),
        )
        for spec_blob, result_blob in cursor:
            yield (ExperimentSpec.from_dict(json.loads(spec_blob)),
                   TrialResult.from_dict(json.loads(result_blob)))

    def trial_count(self, run_id: Optional[str] = None) -> int:
        """Number of trials stored for a run."""
        run_id = self._resolve_run(run_id)
        return self._conn.execute(
            "SELECT COUNT(*) FROM trials WHERE run_id = ?", (run_id,)
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # Query / statistics
    # ------------------------------------------------------------------
    def query(
        self,
        metrics: Sequence[str] = DEFAULT_METRICS,
        where: Optional[Mapping[str, Any]] = None,
        group_by: Sequence[str] = DEFAULT_GROUP_BY,
        run_id: Optional[str] = None,
    ) -> List[GroupStats]:
        """Grouped statistics over stored trials.

        Parameters
        ----------
        metrics:
            Measure columns to aggregate (:data:`MEASURE_COLUMNS`);
            each group carries one :class:`Aggregate` per metric.
        where:
            Equality filters, column -> value or column -> list of
            values (``IN``).  Columns may be axes or measures.
        group_by:
            Axis columns to group on (:data:`AXIS_COLUMNS` minus
            ``run_id``, plus ``n``); ``key`` makes one group per trial
            spec.  Empty sequence = one global group.
        run_id:
            Restrict to one run (default: the latest).  Pass the
            sentinel ``"*"`` to aggregate across every stored run.

        Rows stream off an ``ORDER BY group_by`` cursor and are folded
        one group at a time, so memory is bounded by the largest single
        group, not the table.
        """
        if not metrics:
            raise ValueError("query needs at least one metric")
        groupable = set(AXIS_COLUMNS[1:]) | {"n"}
        for col in group_by:
            if col not in groupable:
                raise ValueError(
                    f"cannot group by {col!r}; choose from "
                    f"{sorted(groupable)}"
                )
        known = set(AXIS_COLUMNS) | set(MEASURE_COLUMNS)
        for col in metrics:
            if col not in MEASURE_COLUMNS:
                raise ValueError(
                    f"unknown metric {col!r}; choose from "
                    f"{sorted(MEASURE_COLUMNS)}"
                )

        clauses: List[str] = []
        params: List[Any] = []
        if run_id != "*":
            clauses.append("run_id = ?")
            params.append(self._resolve_run(run_id))
        for col, value in (where or {}).items():
            if col not in known:
                raise ValueError(f"unknown where column {col!r}")
            if isinstance(value, (list, tuple, set)):
                values = list(value)
                clauses.append(
                    f"{col} IN ({', '.join('?' * len(values))})"
                )
                params.extend(values)
            else:
                clauses.append(f"{col} = ?")
                params.append(value)

        select_cols = list(group_by) + list(metrics)
        sql = f"SELECT {', '.join(select_cols) or '1'} FROM trials"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        if group_by:
            sql += f" ORDER BY {', '.join(group_by)}"

        n_group = len(group_by)
        out: List[GroupStats] = []
        current_key: Optional[Tuple] = None
        columns: Dict[str, List[float]] = {}

        def flush() -> None:
            if current_key is None:
                return
            out.append(GroupStats(
                group=dict(zip(group_by, current_key)),
                aggregates={m: summarize(columns[m]) for m in metrics},
            ))

        for row in self._conn.execute(sql, params):
            gkey = tuple(row[:n_group])
            if gkey != current_key:
                flush()
                current_key = gkey
                columns = {m: [] for m in metrics}
            for metric, value in zip(metrics, row[n_group:]):
                columns[metric].append(0.0 if value is None else float(value))
        flush()
        return out

    # ------------------------------------------------------------------
    # Retention (repro prune)
    # ------------------------------------------------------------------
    def latest_run_ids_by_label(self) -> Dict[Optional[str], str]:
        """The newest run id (by insertion) of every distinct label.

        A label is the store's grid identity — campaigns and fabric
        runs stamp one per grid — so "the latest run of each label" is
        the set of rows every comparison baseline still needs.
        """
        latest: Dict[Optional[str], str] = {}
        for info in self.runs():  # oldest first; later rows overwrite
            latest[info.label] = info.run_id
        return latest

    def delete_run(self, run_id: str) -> int:
        """Drop one run and its trials; returns the trial count dropped.

        Low-level: no protection checks — use :meth:`prune` for the
        guarded path.  Unknown ids raise.
        """
        run_id = self._resolve_run(run_id)
        count = self.trial_count(run_id)
        self._conn.execute("DELETE FROM trials WHERE run_id = ?", (run_id,))
        self._conn.execute("DELETE FROM telemetry WHERE run_id = ?",
                           (run_id,))
        self._conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
        self._conn.commit()
        return count

    def vacuum(self) -> None:
        """Reclaim the space deleted runs leave behind (``VACUUM``)."""
        self._conn.commit()
        self._conn.execute("VACUUM")

    def prune(
        self,
        run_ids: Sequence[str],
        force: bool = False,
        vacuum: bool = True,
    ) -> Dict[str, int]:
        """Drop superseded runs, guarding the latest of every label.

        Refuses (``ValueError``) when the selection includes the newest
        run of any label unless ``force`` — pruning a grid's only
        up-to-date baseline is almost always a mistake.  Returns
        ``run_id -> trials dropped`` and, by default, vacuums once at
        the end.
        """
        run_ids = list(dict.fromkeys(run_ids))  # dedup, keep order
        _ = [self._resolve_run(run_id) for run_id in run_ids]  # loud typos
        protected = set(self.latest_run_ids_by_label().values())
        blocked = [r for r in run_ids if r in protected]
        if blocked and not force:
            raise ValueError(
                f"refusing to prune the latest run of a label: {blocked} "
                f"(pass force=True / --force to override)"
            )
        dropped = {run_id: self.delete_run(run_id) for run_id in run_ids}
        if dropped and vacuum:
            self.vacuum()
        return dropped

    # ------------------------------------------------------------------
    # Telemetry snapshots
    # ------------------------------------------------------------------
    def record_telemetry(self, run_id: str, payload: Mapping[str, Any],
                         source: str = "campaign") -> None:
        """Append one campaign-level telemetry snapshot to a run.

        Snapshots land *next to* the trials they describe — throughput,
        requeue/stall counts, wall time — so a store is enough to
        reconstruct how a campaign ran, not just what it measured.
        ``source`` names the layer that took the snapshot ("campaign",
        "fabric", ...).
        """
        self._conn.execute(
            "INSERT INTO telemetry (run_id, source, recorded_at, payload) "
            "VALUES (?, ?, ?, ?)",
            (run_id, source, _now_iso(),
             json.dumps(dict(payload), sort_keys=True)),
        )
        self._conn.commit()

    def telemetry_snapshots(
        self, run_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """A run's telemetry snapshots, oldest first.

        Each row: ``{source, recorded_at, payload}`` with the payload
        already decoded.
        """
        run_id = self._resolve_run(run_id)
        return [
            {"source": source, "recorded_at": stamp,
             "payload": json.loads(blob)}
            for source, stamp, blob in self._conn.execute(
                "SELECT source, recorded_at, payload FROM telemetry "
                "WHERE run_id = ? ORDER BY id", (run_id,),
            )
        ]

    # ------------------------------------------------------------------
    # Benchmark trajectories
    # ------------------------------------------------------------------
    def record_bench(self, bench: str, mode: str,
                     payload: Mapping[str, Any]) -> None:
        """Append one benchmark emission (e.g. a ``BENCH_3.json``
        section) to the trajectory of ``(bench, mode)``."""
        self._conn.execute(
            "INSERT INTO bench (bench, mode, recorded_at, git_rev, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            (bench, mode, _now_iso(), _git_rev(),
             json.dumps(payload, sort_keys=True)),
        )
        self._conn.commit()

    def bench_trajectory(self, bench: str, mode: str) -> List[Dict[str, Any]]:
        """All recorded payloads of ``(bench, mode)``, oldest first."""
        return [
            json.loads(blob) for (blob,) in self._conn.execute(
                "SELECT payload FROM bench WHERE bench = ? AND mode = ? "
                "ORDER BY id", (bench, mode),
            )
        ]

    def bench_pairs(self) -> List[Tuple[str, str]]:
        """Every ``(bench, mode)`` pair with a recorded emission."""
        return list(self._conn.execute(
            "SELECT DISTINCT bench, mode FROM bench ORDER BY bench, mode"
        ))
