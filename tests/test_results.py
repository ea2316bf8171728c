"""Tests for the results warehouse: store, sinks, stats, report, diff.

Covers the acceptance contracts of the subsystem:

* ``repro report`` on a stored campaign reproduces the exact table
  text of rendering the in-memory outcome directly;
* a 50k-row JSONL sink ingests and aggregates through SQLite in
  bounded memory (streamed batches, group-at-a-time query folding);
* jsonl and sqlite sinks are interchangeable: same results, same
  resume behavior, same duplicate-key semantics;
* cross-run diff and BENCH payload gates flag regressions in the
  right direction only.
"""

import json
import math
import sqlite3
import statistics
import tracemalloc
import types
import urllib.error
import urllib.request

import pytest

from repro.api import Campaign, ExperimentSpec, iter_campaign_results, \
    load_campaign_results
from repro.api.campaign import _read_sink
from repro.cli import main
from repro.experiments import TrialResult
from repro.experiments.tables import _fmt, format_table
from repro.fabric import ResultService
from repro.results import (
    Aggregate,
    JsonlSink,
    ResultStore,
    SqliteSink,
    campaign_summary_table,
    diff_bench,
    diff_runs,
    diff_runs_detailed,
    flatten_bench,
    gate,
    make_sink,
    missing_groups,
    query_table,
    summarize,
)

GRID = dict(
    protocols=["coloring", "mis"],
    topologies=[("ring", {"n": 8})],
    schedulers=["synchronous"],
    seeds=range(3),
)


@pytest.fixture
def campaign():
    return Campaign.grid(**GRID)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
class TestStats:
    def test_summarize_matches_statistics_module(self):
        values = [3.0, 5.0, 7.0, 11.0]
        agg = summarize(values)
        assert agg.count == 4
        assert agg.mean == pytest.approx(statistics.fmean(values))
        assert agg.median == pytest.approx(statistics.median(values))
        assert agg.stdev == pytest.approx(statistics.stdev(values))
        assert (agg.minimum, agg.maximum) == (3.0, 11.0)
        expected_half = 1.959963984540054 * agg.stdev / math.sqrt(4)
        assert agg.ci95 == pytest.approx(expected_half, rel=1e-9)
        assert agg.ci95_low == pytest.approx(agg.mean - agg.ci95)
        assert agg.ci95_high == pytest.approx(agg.mean + agg.ci95)

    def test_single_value_has_degenerate_interval(self):
        agg = summarize([42])
        assert agg.count == 1 and agg.stdev == 0.0 and agg.ci95 == 0.0
        assert agg.mean == agg.median == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_to_dict_round_trips_fields(self):
        d = summarize([1.0, 2.0]).to_dict()
        assert set(d) == {"count", "mean", "median", "stdev", "min", "max",
                          "ci95"}


# ----------------------------------------------------------------------
# Table formatting (the _fmt satellite)
# ----------------------------------------------------------------------
class TestTableFormatting:
    def test_tiny_floats_go_scientific_not_zero(self):
        assert _fmt(0.0004) == "4.00e-04"
        assert _fmt(-0.0004) == "-4.00e-04"
        assert "0.00" != _fmt(0.0004)

    def test_zero_and_normal_floats_stay_fixed_point(self):
        assert _fmt(0.0) == "0.00"
        assert _fmt(2.5) == "2.50"
        assert _fmt(0.01) == "0.01"

    def test_precision_parameter(self):
        assert _fmt(0.0004, precision=4) == "0.0004"
        assert _fmt(3.14159, precision=4) == "3.1416"

    def test_bool_before_float(self):
        assert _fmt(True) == "yes" and _fmt(False) == "no"

    def test_format_table_markdown_mode(self):
        out = format_table(["a", "b"], [[1, 0.0004]], title="T",
                           markdown=True)
        lines = out.splitlines()
        assert lines[0] == "**T**"
        assert lines[2].startswith("| a | b |")
        assert "4.00e-04" in lines[4]

    def test_format_table_markdown_without_title(self):
        out = format_table(["a"], [[1]], markdown=True)
        assert out.splitlines()[0] == "| a |"


# ----------------------------------------------------------------------
# Streaming sink readers (the iterator satellite)
# ----------------------------------------------------------------------
class TestStreamingReaders:
    def test_iter_campaign_results_is_lazy(self, tmp_path, campaign):
        sink = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=sink)
        it = iter_campaign_results(sink)
        assert isinstance(it, types.GeneratorType)
        spec, result = next(it)
        assert isinstance(spec, ExperimentSpec)
        assert isinstance(result, TrialResult)
        assert list(it)  # the rest still streams out

    def test_iter_matches_load(self, tmp_path, campaign):
        sink = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=sink)
        assert list(iter_campaign_results(sink)) == \
            load_campaign_results(sink)

    def test_truncated_trailing_line_skipped_everywhere(self, tmp_path,
                                                        campaign):
        sink = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=sink)
        lines = sink.read_text().splitlines()
        sink.write_text("\n".join(lines[:-1]) + "\n"
                        + lines[-1][: len(lines[-1]) // 2])
        assert len(load_campaign_results(sink)) == len(campaign) - 1
        assert len(_read_sink(sink)) == len(campaign) - 1
        # Resume re-runs exactly the truncated trial.
        outcome = campaign.run(jsonl_path=sink)
        assert outcome.skipped == len(campaign) - 1
        assert outcome.executed == 1

    def test_duplicate_keys_last_writer_wins(self, tmp_path, campaign):
        sink = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=sink)
        # A second append session re-writes the first key with doctored
        # rounds (simulating two writers racing on one file).
        first = json.loads(sink.read_text().splitlines()[0])
        doctored = dict(first)
        doctored["result"] = dict(first["result"], rounds=999)
        with open(sink, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doctored, sort_keys=True) + "\n")
        rows = _read_sink(sink)
        assert rows[first["key"]]["rounds"] == 999
        # The duplicate still counts once for resume.
        outcome = campaign.run(jsonl_path=sink)
        assert outcome.skipped == len(campaign)


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------
class TestResultStore:
    def test_wal_mode_and_schema(self, tmp_path):
        store = ResultStore(tmp_path / "w.sqlite")
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        tables = {row[0] for row in store._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        assert {"runs", "trials", "bench"} <= tables
        store.close()

    def test_run_metadata_recorded(self, tmp_path):
        with ResultStore(tmp_path / "w.sqlite") as store:
            run_id = store.begin_run(label="meta-test")
            store.finish_run(run_id, 1.25)
            (info,) = store.runs()
            assert info.run_id == run_id
            assert info.label == "meta-test"
            assert info.wall_time_s == pytest.approx(1.25)
            assert info.created_at  # ISO stamp
            assert info.python and info.host  # provenance captured
            assert info.trials == 0

    def test_write_and_iter_results_round_trip(self, tmp_path, campaign):
        outcome = campaign.run()
        with ResultStore(tmp_path / "w.sqlite") as store:
            run_id = store.begin_run(run_id="rt")
            for spec, result in outcome:
                store.write(run_id, spec.key(), spec.to_dict(),
                            result.to_dict())
            pairs = list(store.iter_results("rt"))
        assert pairs == list(outcome)

    def test_ingest_jsonl_round_trip(self, tmp_path, campaign):
        sink = tmp_path / "r.jsonl"
        outcome = campaign.run(jsonl_path=sink)
        with ResultStore(tmp_path / "w.sqlite") as store:
            run_id, count = store.ingest_jsonl(sink)
            assert count == len(campaign)
            assert store.trial_count(run_id) == len(campaign)
            assert [r for _s, r in store.iter_results(run_id)] == \
                outcome.results
            assert store.completed_keys(run_id) == \
                {s.key() for s in campaign}

    def test_ingest_tolerates_truncated_trailing_line(self, tmp_path,
                                                      campaign):
        sink = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=sink)
        text = sink.read_text()
        sink.write_text(text + '{"key": "half-written...')
        with ResultStore(tmp_path / "w.sqlite") as store:
            _run, count = store.ingest_jsonl(sink)
            assert count == len(campaign)

    def test_duplicate_key_ingest_is_last_writer_wins(self, tmp_path,
                                                      campaign):
        sink = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=sink)
        first = json.loads(sink.read_text().splitlines()[0])
        doctored = dict(first)
        doctored["result"] = dict(first["result"], rounds=999)
        with open(sink, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doctored, sort_keys=True) + "\n")
        with ResultStore(tmp_path / "w.sqlite") as store:
            run_id, count = store.ingest_jsonl(sink)
            # write_many counts every applied write; the table holds
            # one row per key.
            assert count == len(campaign) + 1
            assert store.trial_count(run_id) == len(campaign)
            winner = dict(store.completed(run_id))[first["key"]]
            assert winner.rounds == 999

    def test_latest_run_and_resolution(self, tmp_path):
        with ResultStore(tmp_path / "w.sqlite") as store:
            assert store.latest_run_id() is None
            with pytest.raises(ValueError, match="no runs"):
                store.trial_count()
            store.begin_run(run_id="a")
            store.begin_run(run_id="b")
            assert store.latest_run_id() == "b"

    def test_latest_run_is_insertion_ordered_not_id_ordered(self, tmp_path):
        # Back-to-back runs share a 1-second created_at stamp; the
        # latest must be the last *inserted*, not the max id string.
        with ResultStore(tmp_path / "w.sqlite") as store:
            store.begin_run(run_id="zzz-first")
            store.begin_run(run_id="aaa-second")
            assert store.latest_run_id() == "aaa-second"
            assert [r.run_id for r in store.runs()] == \
                ["zzz-first", "aaa-second"]

    def test_missing_store_rejected_without_create(self, tmp_path):
        missing = tmp_path / "nope.sqlite"
        with pytest.raises(ValueError, match="does not exist"):
            ResultStore(missing, create=False)
        assert not missing.exists()

    def test_unknown_diff_run_ids_raise(self, tmp_path, campaign):
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path) as store:
            with pytest.raises(ValueError, match="unknown run"):
                diff_runs(store, "campaign", "typo")
            with pytest.raises(ValueError, match="unknown run"):
                missing_groups(store, "typo", "campaign")

    def test_empty_metrics_rejected(self, tmp_path, campaign):
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path) as store:
            with pytest.raises(ValueError, match="at least one metric"):
                store.query(metrics=())

    def test_explicit_unknown_run_id_raises(self, tmp_path, campaign):
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path) as store:
            with pytest.raises(ValueError, match="unknown run id"):
                list(store.iter_results("typo"))
            with pytest.raises(ValueError, match="unknown run id"):
                store.query(metrics=("rounds",), run_id="typo")
            with pytest.raises(ValueError, match="unknown run id"):
                store.trial_count("typo")

    def test_non_sqlite_file_is_a_clean_error(self, tmp_path):
        not_a_db = tmp_path / "results.jsonl"
        not_a_db.write_text('{"key": "k", "spec": {}, "result": {}}\n'
                            * 100)
        with pytest.raises(ValueError, match="not a results store"):
            ResultStore(not_a_db)

    def test_locked_wal_switch_is_retried(self, tmp_path, monkeypatch):
        # A second process creating the same store can get "database is
        # locked" from the journal-mode pragma at once; that is a race
        # to wait out, not a foreign file.
        connect = sqlite3.connect

        class LockedOnce:
            def __init__(self, conn):
                self._conn = conn
                self.locked = True

            def execute(self, sql, *args):
                if self.locked and sql.startswith("PRAGMA journal_mode"):
                    self.locked = False
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(sqlite3, "connect",
                            lambda *a, **kw: LockedOnce(connect(*a, **kw)))
        with ResultStore(tmp_path / "w.sqlite") as store:
            assert not store._conn.locked
            assert store._conn.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_concurrent_connections_can_read_mid_write(self, tmp_path,
                                                       campaign):
        # WAL: a second connection reads committed rows while the first
        # stays open for writing.
        path = tmp_path / "w.sqlite"
        writer = ResultStore(path)
        run_id = writer.begin_run(run_id="war")
        outcome = campaign.run()
        pairs = list(outcome)
        spec, result = pairs[0]
        writer.write(run_id, spec.key(), spec.to_dict(), result.to_dict())
        with ResultStore(path) as reader:
            assert reader.trial_count("war") == 1
        writer.close()


class TestQuery:
    @pytest.fixture
    def store(self, tmp_path, campaign):
        sink = tmp_path / "r.jsonl"
        self.outcome = campaign.run(jsonl_path=sink)
        store = ResultStore(tmp_path / "w.sqlite")
        self.run_id, _ = store.ingest_jsonl(sink, run_id="q")
        yield store
        store.close()

    def test_group_aggregates_match_manual_fold(self, store, campaign):
        groups = store.query(metrics=("rounds", "total_bits"),
                             group_by=("protocol",), run_id="q")
        by_proto = {}
        for spec, result in self.outcome:
            by_proto.setdefault(spec.protocol, []).append(result)
        assert {g.group["protocol"] for g in groups} == set(by_proto)
        for g in groups:
            expected = [r.rounds for r in by_proto[g.group["protocol"]]]
            assert g.count == len(expected)
            assert g.aggregates["rounds"].mean == \
                pytest.approx(statistics.fmean(expected))
            assert g.aggregates["rounds"].median == \
                pytest.approx(statistics.median(expected))

    def test_where_filters(self, store):
        groups = store.query(metrics=("rounds",), group_by=("protocol",),
                             where={"protocol": "mis"}, run_id="q")
        assert [g.group["protocol"] for g in groups] == ["mis"]
        none = store.query(metrics=("rounds",), group_by=("protocol",),
                           where={"seed": 99}, run_id="q")
        assert none == []

    def test_where_in_list(self, store):
        groups = store.query(metrics=("rounds",), group_by=("seed",),
                             where={"seed": [0, 2]}, run_id="q")
        assert [g.group["seed"] for g in groups] == [0, 2]

    def test_empty_group_by_is_one_global_group(self, store, campaign):
        (g,) = store.query(metrics=("rounds",), group_by=(), run_id="q")
        assert g.count == len(campaign)

    def test_group_by_key_is_one_group_per_trial(self, store, campaign):
        groups = store.query(metrics=("rounds",), group_by=("key",),
                             run_id="q")
        assert sorted(g.group["key"] for g in groups) == \
            sorted(spec.key() for spec in campaign)
        assert all(g.count == 1 for g in groups)

    def test_unknown_columns_rejected(self, store):
        with pytest.raises(ValueError, match="cannot group by"):
            store.query(group_by=("color",), run_id="q")
        with pytest.raises(ValueError, match="cannot group by"):
            store.query(group_by=("run_id",), run_id="q")
        with pytest.raises(ValueError, match="unknown metric"):
            store.query(metrics=("speed",), run_id="q")
        with pytest.raises(ValueError, match="unknown where column"):
            store.query(where={"DROP TABLE": 1}, run_id="q")

    def test_query_table_renders_groups(self, store):
        groups = store.query(metrics=("rounds",), group_by=("protocol",),
                             run_id="q")
        out = query_table(groups, ("protocol",), ("rounds",), title="Q")
        assert out.splitlines()[0] == "Q"
        assert "rounds mean" in out and "coloring" in out


class TestLargeIngestStreams:
    @staticmethod
    def _write_big_sink(path, n_rows):
        """Synthesize an n_rows sink without running n_rows trials."""
        base_spec = ExperimentSpec(protocol="coloring", topology="ring",
                                   topology_params={"n": 8})
        spec_dict = base_spec.to_dict()
        result_dict = TrialResult(
            protocol="COLORING", scheduler="synchronous", n=8, m=8,
            delta=2, seed=0, steps=5, rounds=5, k_efficiency=1,
            max_bits_per_step=2.0, total_bits=60.0, legitimate=True,
            silent=True,
        ).to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n_rows):
                spec_dict["seed"] = i
                result_dict["seed"] = i
                result_dict["rounds"] = i % 17
                fh.write(json.dumps({
                    "key": f"coloring/ring/synchronous/s{i}/{i:012x}",
                    "spec": spec_dict,
                    "result": result_dict,
                }) + "\n")

    def test_50k_rows_ingest_and_aggregate(self, tmp_path):
        """The acceptance scale: 50k rows in, exact aggregates out."""
        n_rows = 50_000
        sink = tmp_path / "big.jsonl"
        self._write_big_sink(sink, n_rows)
        assert sink.stat().st_size > 10 * 1024 * 1024  # a real file

        with ResultStore(tmp_path / "big.sqlite") as store:
            _run, count = store.ingest_jsonl(sink, run_id="big")
            groups = store.query(metrics=("rounds",),
                                 group_by=("protocol",), run_id="big")
        assert count == n_rows
        (g,) = groups
        assert g.count == n_rows
        assert g.aggregates["rounds"].mean == pytest.approx(
            statistics.fmean(i % 17 for i in range(n_rows)))

    def test_ingest_and_query_memory_is_bounded(self, tmp_path):
        """Peak traced memory stays below the sink's own size.

        Ingest holds one 1000-row batch; the query folds one group's
        metric column.  Materializing every parsed record at once
        would cost several times the file size (dict overhead), so
        ``peak < file_bytes`` separates streaming from slurping.
        Traced at 10k rows — tracemalloc multiplies runtime, and the
        per-row bound is scale-independent; the 50k acceptance run
        above exercises the full volume untraced.
        """
        n_rows = 10_000
        sink = tmp_path / "big.jsonl"
        self._write_big_sink(sink, n_rows)
        file_bytes = sink.stat().st_size

        store = ResultStore(tmp_path / "big.sqlite")
        tracemalloc.start()
        _run, count = store.ingest_jsonl(sink, run_id="big")
        groups = store.query(metrics=("rounds",), group_by=("protocol",),
                             run_id="big")
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        store.close()

        assert count == n_rows and groups[0].count == n_rows
        assert peak < file_bytes, (
            f"ingest+query peaked at {peak/1e6:.1f}MB for a "
            f"{file_bytes/1e6:.1f}MB sink — not streaming")


# ----------------------------------------------------------------------
# Sinks: jsonl ≡ sqlite
# ----------------------------------------------------------------------
class TestSinkParity:
    def test_results_identical_across_sinks(self, tmp_path, campaign):
        jsonl = campaign.run(out=tmp_path / "r.jsonl", sink="jsonl")
        sqlite_ = campaign.run(out=tmp_path / "r.sqlite", sink="sqlite")
        memory = campaign.run()
        assert jsonl.results == sqlite_.results == memory.results

    def test_resume_parity(self, tmp_path, campaign):
        half = Campaign(campaign.specs[: len(campaign) // 2])
        for kind, path in (("jsonl", tmp_path / "r.jsonl"),
                           ("sqlite", tmp_path / "r.sqlite")):
            half.run(out=path, sink=kind)
            resumed = campaign.run(out=path, sink=kind)
            assert resumed.skipped == len(half), kind
            assert resumed.executed == len(campaign) - len(half), kind
            assert resumed.results == campaign.run().results, kind

    def test_no_resume_starts_sqlite_run_over(self, tmp_path, campaign):
        path = tmp_path / "r.sqlite"
        campaign.run(out=path, sink="sqlite")
        outcome = campaign.run(out=path, sink="sqlite", resume=False)
        assert outcome.executed == len(campaign)
        with ResultStore(path) as store:
            assert store.trial_count("campaign") == len(campaign)

    def test_sqlite_sink_reruns_overwrite_by_key(self, tmp_path, campaign):
        path = tmp_path / "r.sqlite"
        campaign.run(out=path, sink="sqlite")
        campaign.run(out=path, sink="sqlite", resume=False)
        with ResultStore(path) as store:
            # Two append sessions, one row per key — INSERT OR REPLACE.
            assert store.trial_count("campaign") == len(campaign)

    def test_sink_instance_passthrough(self, tmp_path, campaign):
        sink = SqliteSink(tmp_path / "r.sqlite", run_id="custom")
        campaign.run(sink=sink)
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert store.trial_count("custom") == len(campaign)

    def test_make_sink_resolves_kinds(self, tmp_path):
        assert isinstance(make_sink("jsonl", tmp_path / "a.jsonl"),
                          JsonlSink)
        assert isinstance(make_sink("sqlite", tmp_path / "a.sqlite"),
                          SqliteSink)
        with pytest.raises(ValueError, match="unknown sink kind"):
            make_sink("parquet", tmp_path / "a.parquet")

    def test_sqlite_sink_records_wall_time(self, tmp_path, campaign):
        campaign.run(out=tmp_path / "r.sqlite", sink="sqlite")
        with ResultStore(tmp_path / "r.sqlite") as store:
            (info,) = store.runs()
            assert info.wall_time_s is not None and info.wall_time_s > 0


# ----------------------------------------------------------------------
# Report: stored run reproduces the live table (acceptance)
# ----------------------------------------------------------------------
class TestReport:
    def test_stored_report_equals_in_memory_table(self, tmp_path, campaign,
                                                  capsys):
        path = tmp_path / "r.sqlite"
        outcome = campaign.run(out=path, sink="sqlite")
        expected = campaign_summary_table(outcome)
        assert main(["report", "--store", str(path)]) == 0
        printed = capsys.readouterr().out
        assert expected in printed
        # And the jsonl route renders the same text.
        jsonl = tmp_path / "r.jsonl"
        campaign.run(out=jsonl, sink="jsonl")
        assert main(["report", "--jsonl", str(jsonl)]) == 0
        assert expected in capsys.readouterr().out

    def test_campaign_cli_and_report_cli_print_same_table(self, tmp_path,
                                                          capsys):
        path = tmp_path / "r.sqlite"
        assert main(["campaign", "--protocols", "coloring",
                     "--topologies", "ring:n=8", "--seeds", "2",
                     "--out", str(path), "--sink", "sqlite",
                     "--quiet"]) == 0
        campaign_out = capsys.readouterr().out
        table = campaign_out[campaign_out.index("campaign summary"):]
        assert main(["report", "--store", str(path)]) == 0
        assert capsys.readouterr().out.strip() == table.strip()

    def test_report_list_runs(self, tmp_path, campaign, capsys):
        path = tmp_path / "r.sqlite"
        campaign.run(out=path, sink="sqlite")
        assert main(["report", "--store", str(path), "--list-runs"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "trials" in out

    def test_report_without_source_fails(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["report"])


# ----------------------------------------------------------------------
# Ingest + query through the CLI
# ----------------------------------------------------------------------
class TestWarehouseCli:
    def test_ingest_then_query(self, tmp_path, campaign, capsys):
        jsonl = tmp_path / "r.jsonl"
        store = tmp_path / "w.sqlite"
        campaign.run(jsonl_path=jsonl)
        assert main(["ingest", str(jsonl), "--store", str(store),
                     "--run", "r1"]) == 0
        assert f"ingested {len(campaign)} trials" in capsys.readouterr().out
        assert main(["query", "--store", str(store), "--run", "r1",
                     "--group-by", "protocol",
                     "--metrics", "rounds,total_bits"]) == 0
        out = capsys.readouterr().out
        assert "rounds mean" in out and "coloring" in out and "mis" in out

    def test_query_json_mode(self, tmp_path, campaign, capsys):
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        assert main(["query", "--store", str(store), "--group-by",
                     "protocol", "--metrics", "rounds", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {g["group"]["protocol"] for g in payload} == \
            {"coloring", "mis"}
        assert all("ci95" in g["metrics"]["rounds"] for g in payload)

    def test_query_where_filter(self, tmp_path, campaign, capsys):
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        assert main(["query", "--store", str(store), "--group-by",
                     "protocol", "--metrics", "rounds",
                     "--where", "protocol=mis"]) == 0
        out = capsys.readouterr().out
        assert "mis" in out and "coloring" not in out

    def test_bad_where_is_a_clean_error(self, tmp_path, campaign):
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        with pytest.raises(SystemExit, match="bad (--)?where"):
            main(["query", "--store", str(store), "--where", "protocol"])

    def test_compare_runs_detects_doctored_regression(self, tmp_path,
                                                      campaign, capsys):
        store_path = tmp_path / "w.sqlite"
        campaign.run(out=store_path, sink="sqlite")
        with ResultStore(store_path) as store:
            store.begin_run(run_id="worse")
            for spec, result in campaign.run():
                doctored = result.to_dict()
                doctored["rounds"] = doctored["rounds"] * 10 + 50
                store.write("worse", spec.key(), spec.to_dict(), doctored)
        assert main(["compare", "--store", str(store_path),
                     "--runs", "campaign", "worse",
                     "--metrics", "rounds"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        # Identical runs pass the gate.
        assert main(["compare", "--store", str(store_path),
                     "--runs", "campaign", "campaign",
                     "--metrics", "rounds"]) == 0

    def test_compare_bench_files(self, tmp_path, capsys):
        a = {"full": {"n": 100, "budget_s": 1.0,
                      "hot_loop": {"baseline": 10.0, "flat_aggregate": 40.0,
                                   "speedup_aggregate": 4.0}}}
        b = json.loads(json.dumps(a))
        b["full"]["hot_loop"]["flat_aggregate"] = 10.0
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compare", "--bench", str(pa), str(pb),
                     "--mode", "full", "--threshold", "0.25"]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["compare", "--bench", str(pa), str(pa),
                     "--mode", "full"]) == 0

    def test_compare_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["compare"])

    def test_typoed_run_id_fails_the_gate_loudly(self, tmp_path, campaign):
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        with pytest.raises(SystemExit, match="unknown run"):
            main(["compare", "--store", str(store),
                  "--runs", "campaing", "campaign"])

    def test_read_commands_do_not_create_stores(self, tmp_path):
        missing = tmp_path / "typo.sqlite"
        for argv in (["report", "--store", str(missing)],
                     ["query", "--store", str(missing)],
                     ["compare", "--store", str(missing),
                      "--runs", "a", "b"]):
            with pytest.raises(SystemExit, match="does not exist"):
                main(argv)
            assert not missing.exists()

    def test_empty_metrics_is_a_clean_error(self, tmp_path, campaign):
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        with pytest.raises(SystemExit, match="at least one metric"):
            main(["query", "--store", str(store), "--metrics", ""])

    def test_report_jsonl_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read sink"):
            main(["report", "--jsonl", str(tmp_path / "missing.jsonl")])

    def test_report_and_query_reject_typoed_run_id(self, tmp_path,
                                                   campaign):
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        with pytest.raises(SystemExit, match="unknown run id"):
            main(["report", "--store", str(store), "--run", "typo"])
        with pytest.raises(SystemExit, match="unknown run id"):
            main(["query", "--store", str(store), "--run", "typo"])

    def test_store_pointed_at_jsonl_is_a_clean_error(self, tmp_path,
                                                     campaign):
        jsonl = tmp_path / "r.jsonl"
        campaign.run(jsonl_path=jsonl)
        with pytest.raises(SystemExit, match="not a results store"):
            main(["report", "--store", str(jsonl)])

    def test_bench_threshold_defaults_looser_than_runs(self, tmp_path,
                                                       capsys):
        # A 20% throughput drop: inside the 25% bench default, outside
        # an (incorrectly shared) 10% one.
        a = {"full": {"hot_loop": {"flat_aggregate": 100.0}}}
        b = {"full": {"hot_loop": {"flat_aggregate": 80.0}}}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compare", "--bench", str(pa), str(pb),
                     "--mode", "full"]) == 0
        capsys.readouterr()

    def test_compare_with_nothing_comparable_fails(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps({"full": {"x": 1.0}}))
        pb.write_text(json.dumps({"full": {"y": 1.0}}))
        assert main(["compare", "--bench", str(pa), str(pb),
                     "--mode", "full"]) == 1
        assert "no comparable cells" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Diff semantics
# ----------------------------------------------------------------------
class TestDiff:
    def _store_with_two_runs(self, tmp_path, campaign, scale):
        path = tmp_path / "w.sqlite"
        outcome = campaign.run(out=path, sink="sqlite")
        store = ResultStore(path)
        store.begin_run(run_id="b")
        for spec, result in outcome:
            doctored = result.to_dict()
            doctored["rounds"] = max(1, round(doctored["rounds"] * scale))
            doctored["availability"] = 0.5
            store.write("b", spec.key(), spec.to_dict(), doctored)
        return store

    def test_direction_aware_regression(self, tmp_path, campaign):
        store = self._store_with_two_runs(tmp_path, campaign, scale=3.0)
        rows = diff_runs(store, "campaign", "b",
                         metrics=("rounds", "availability"),
                         threshold=0.10)
        by_metric = {}
        for row in rows:
            by_metric.setdefault(row.metric, []).append(row)
        # rounds grew 3x -> regression; availability fell -> regression.
        assert any(r.regressed for r in by_metric["rounds"])
        assert all(r.regressed for r in by_metric["availability"])
        assert not gate(rows)
        store.close()

    def test_improvement_is_not_regression(self, tmp_path, campaign):
        store = self._store_with_two_runs(tmp_path, campaign, scale=0.3)
        rows = diff_runs(store, "campaign", "b", metrics=("rounds",),
                         threshold=0.10)
        assert all(not r.regressed for r in rows)
        assert gate(rows)
        store.close()

    def test_parity_gate_per_trial_and_both_orders(self, tmp_path,
                                                   campaign):
        """Trials that differ in opposite directions agree in cell
        means: the default grouping passes them and ``group_by=("key",)``
        does not.  At threshold 0 a uniformly lower run passes one order
        and fails the other."""
        path = tmp_path / "w.sqlite"
        outcome = list(campaign.run(out=path, sink="sqlite"))
        # +1 on a cell's first trial and -1 on its second: every cell
        # keeps its mean, two trials per cell differ.
        seen = {}
        offsets = {}
        for spec, _result in outcome:
            cell = (spec.protocol, spec.topology, spec.scheduler)
            i = seen[cell] = seen.get(cell, -1) + 1
            offsets[spec.key()] = {0: 1, 1: -1}.get(i, 0)
        with ResultStore(path) as store:
            for run_id, offset in (("offset", offsets.get),
                                   ("lower", lambda key: -1)):
                store.begin_run(run_id=run_id)
                for spec, result in outcome:
                    row = result.to_dict()
                    row["rounds"] += offset(spec.key())
                    store.write(run_id, spec.key(), spec.to_dict(), row)

            def passes(a, b, **grouping):
                return gate(diff_runs(store, a, b, metrics=("rounds",),
                                      threshold=0, **grouping))

            assert passes("campaign", "offset")
            assert not passes("campaign", "offset", group_by=("key",))
            assert passes("campaign", "lower", group_by=("key",))
            assert not passes("lower", "campaign", group_by=("key",))

    def test_missing_groups_reported_not_gated(self, tmp_path, campaign):
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path) as store:
            store.begin_run(run_id="partial")
            for spec, result in campaign.run():
                if spec.protocol != "mis":
                    store.write("partial", spec.key(), spec.to_dict(),
                                result.to_dict())
            rows = diff_runs(store, "campaign", "partial",
                             metrics=("rounds",))
            assert {r.group for r in rows} == {"coloring/ring/synchronous"}
            only_a, only_b = missing_groups(store, "campaign", "partial")
            assert only_a == ["mis/ring/synchronous"] and only_b == []

    def test_flatten_bench_grid_keys_by_identity(self):
        payload = {
            "grid": [
                {"topology": "ring", "protocol": "mis",
                 "engine": "incremental", "metrics": "full",
                 "steps_per_sec": 123.0},
            ],
            "hot_loop": {"baseline": 10.0},
            "n": 10_000, "budget_s": 1.5,
        }
        flat = flatten_bench(payload)
        assert flat == {
            "grid[ring/mis/incremental/full].steps_per_sec": 123.0,
            "hot_loop.baseline": 10.0,
        }

    def test_diff_bench_ignores_one_sided_leaves(self):
        rows = diff_bench({"x": 1.0, "only_a": 2.0},
                          {"x": 1.0, "only_b": 3.0})
        assert [r.group for r in rows] == ["x"]
        assert gate(rows)

    def test_diff_bench_seconds_lower_is_better_overhead_ungated(self):
        """Seconds regress when they grow; the signed telemetry overhead
        near zero is left to the bench's own absolute ceiling."""
        def payload(store_build_s, overhead):
            return {
                "million_sparse": {"store_build_s": store_build_s,
                                   "steps_per_sec": 9.0},
                "telemetry_overhead": {"enabled_overhead": overhead},
            }

        improved = diff_bench(payload(6.7, 0.04), payload(2.0, -0.016),
                              threshold=0.6)
        assert gate(improved)
        worse = diff_bench(payload(6.7, 0.04), payload(20.0, 0.04),
                           threshold=0.6)
        assert [r.group for r in worse if r.regressed] == [
            "million_sparse.store_build_s"]

    def test_bench_trajectory_round_trips(self, tmp_path):
        with ResultStore(tmp_path / "w.sqlite") as store:
            store.record_bench("BENCH_3", "tiny", {"hot_loop": {"x": 1.0}})
            store.record_bench("BENCH_3", "tiny", {"hot_loop": {"x": 2.0}})
            traj = store.bench_trajectory("BENCH_3", "tiny")
            assert [t["hot_loop"]["x"] for t in traj] == [1.0, 2.0]
            first, last = traj[0], traj[-1]
            rows = diff_bench(first, last, threshold=0.25)
            assert gate(rows)  # throughput doubled: an improvement


# ----------------------------------------------------------------------
# Regression thresholds: a finite fraction >= 0, or one clean error
# ----------------------------------------------------------------------
BAD_THRESHOLDS = ("nan", "inf", "-inf", "-0.5")


class TestThresholdValidation:
    """A NaN threshold passes any drop (every comparison with NaN is
    false) and a negative one fails identical inputs; both gates refuse
    them instead of answering."""

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_library_rejects(self, tmp_path, campaign, threshold):
        with pytest.raises(ValueError, match="threshold"):
            diff_bench({"x": 100.0}, {"x": 1.0}, threshold=float(threshold))
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path) as store:
            with pytest.raises(ValueError, match="threshold"):
                diff_runs_detailed(store, "campaign", "campaign",
                                   threshold=float(threshold))

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_cli_exits_with_one_line_in_every_mode(self, tmp_path,
                                                   campaign, threshold):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps({"full": {"x": 100.0}}))
        pb.write_text(json.dumps({"full": {"x": 1.0}}))
        store = tmp_path / "w.sqlite"
        campaign.run(out=store, sink="sqlite")
        bench_store = tmp_path / "bench.sqlite"
        with ResultStore(bench_store) as bench:
            for value in (100.0, 1.0):
                bench.record_bench("BENCH_3", "tiny", {"x": value})
        for argv in (["--bench", str(pa), str(pb), "--mode", "full"],
                     ["--store", str(store), "--runs", "campaign",
                      "campaign"],
                     ["--bench-store", str(bench_store), "--mode", "tiny"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["compare", *argv, f"--threshold={threshold}"])
            message = excinfo.value.code
            assert isinstance(message, str), argv
            assert "threshold" in message and "\n" not in message, argv

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_service_answers_400(self, tmp_path, campaign, threshold):
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultService(str(path)) as service:
            url = (service.url + "/compare?runs=campaign,campaign"
                   f"&threshold={threshold}")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 400
            assert "threshold" in json.loads(
                excinfo.value.read())["error"]
            excinfo.value.close()


# ----------------------------------------------------------------------
# Retention: repro prune (latest-of-label guarded)
# ----------------------------------------------------------------------
class TestPrune:
    def _store_with_runs(self, tmp_path, campaign):
        path = tmp_path / "w.sqlite"
        for run_id in ("old", "mid", "new"):
            campaign.run(out=path, sink="sqlite", run_id=run_id)
        return path

    def test_latest_of_label_is_protected(self, tmp_path, campaign):
        path = self._store_with_runs(tmp_path, campaign)
        with ResultStore(path) as store:
            # All three runs share label None; "new" is its latest.
            with pytest.raises(ValueError, match="latest run of a label"):
                store.prune(["new"])
            dropped = store.prune(["old", "mid"])
            assert dropped == {"old": len(campaign), "mid": len(campaign)}
            assert [r.run_id for r in store.runs()] == ["new"]

    def test_force_overrides_protection(self, tmp_path, campaign):
        path = self._store_with_runs(tmp_path, campaign)
        with ResultStore(path) as store:
            store.prune(["new"], force=True)
            assert {r.run_id for r in store.runs()} == {"old", "mid"}

    def test_unknown_run_is_loud(self, tmp_path, campaign):
        path = self._store_with_runs(tmp_path, campaign)
        with ResultStore(path) as store:
            with pytest.raises(ValueError, match="ghost"):
                store.prune(["ghost"])

    def test_prune_reclaims_file_space(self, tmp_path, campaign):
        path = self._store_with_runs(tmp_path, campaign)
        before = path.stat().st_size
        with ResultStore(path) as store:
            store.prune(["old", "mid"], vacuum=True)
        assert path.stat().st_size <= before

    def test_cli_prune_by_id_age_and_dry_run(self, tmp_path, campaign,
                                             capsys):
        path = self._store_with_runs(tmp_path, campaign)
        rc = main(["prune", "--store", str(path), "--dry-run",
                   "--runs", "old"])
        assert rc == 0
        assert "would prune 'old'" in capsys.readouterr().out
        with ResultStore(path) as store:  # dry run touched nothing
            assert len(store.runs()) == 3
        rc = main(["prune", "--store", str(path), "--runs", "old", "mid"])
        assert rc == 0
        assert "2 runs" in capsys.readouterr().out
        # Every run is younger than 1 day -> age selection is empty.
        rc = main(["prune", "--store", str(path), "--older-than", "1"])
        assert rc == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_cli_prune_blocks_latest_without_force(self, tmp_path,
                                                   campaign):
        path = self._store_with_runs(tmp_path, campaign)
        with pytest.raises(SystemExit, match="latest run of a label"):
            main(["prune", "--store", str(path), "--runs", "new"])
        assert main(["prune", "--store", str(path), "--runs", "new",
                     "--force"]) == 0


# ----------------------------------------------------------------------
# Canned paper tables: repro report --recipe
# ----------------------------------------------------------------------
class TestReportRecipes:
    def test_registry_names(self):
        from repro.results import REPORT_RECIPES
        assert {"paper-overhead", "paper-stabilization",
                "paper-recovery"} <= set(REPORT_RECIPES)

    def test_paper_overhead_table_shape(self, tmp_path, campaign):
        from repro.results import recipe_table
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path, create=False) as store:
            table = recipe_table(store, "paper-overhead")
        header = table.splitlines()[1]
        for column in ("protocol", "topology",
                       "max_bits_per_step (mean ± 95%)"):
            assert column in header
        # One row per protocol x topology cell of the grid.
        assert "coloring" in table and "mis" in table

    def test_unknown_recipe_lists_known(self, tmp_path, campaign):
        from repro.results import recipe_table
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        with ResultStore(path, create=False) as store:
            with pytest.raises(ValueError, match="paper-overhead"):
                recipe_table(store, "nope")

    def test_register_recipe_collision_refused(self):
        from repro.results import ReportRecipe, register_recipe
        with pytest.raises(ValueError, match="already registered"):
            register_recipe(ReportRecipe(
                name="paper-overhead", title="dup",
                group_by=("protocol",), metrics=("rounds",)))

    def test_cli_recipe_and_list(self, tmp_path, campaign, capsys):
        path = tmp_path / "w.sqlite"
        campaign.run(out=path, sink="sqlite")
        rc = main(["report", "--store", str(path),
                   "--recipe", "paper-overhead", "--markdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("**") and "| protocol |" in out
        rc = main(["report", "--list-recipes"])
        assert rc == 0
        assert "paper-overhead" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="paper-stabilization"):
            main(["report", "--store", str(path), "--recipe", "nope"])


# ----------------------------------------------------------------------
# Store-to-store ingest and the claim surface
# ----------------------------------------------------------------------
class TestIngestStore:
    def test_ingest_store_round_trip(self, tmp_path, campaign):
        src = tmp_path / "src.sqlite"
        campaign.run(out=src, sink="sqlite", run_id="a")
        with ResultStore(tmp_path / "dst.sqlite") as dst:
            run_id, count = dst.ingest_store(src, src_run_id="a",
                                             run_id="merged")
            assert (run_id, count) == ("merged", len(campaign))
            src_rows = None
        with ResultStore(src, create=False) as s:
            src_rows = {k: r for k, _spec, r in s.raw_trials("a")}
        with ResultStore(tmp_path / "dst.sqlite", create=False) as dst:
            dst_rows = {k: r for k, _spec, r in dst.raw_trials("merged")}
        assert dst_rows == src_rows

    def test_cli_ingest_autodetects_mixed_sources(self, tmp_path,
                                                  campaign, capsys):
        jsonl = tmp_path / "trials.jsonl"
        half_a = Campaign(campaign.specs[:3])
        half_b = Campaign(campaign.specs[3:])
        half_a.run(out=jsonl)  # jsonl sink
        sqlite_src = tmp_path / "half.sqlite"
        half_b.run(out=sqlite_src, sink="sqlite", run_id="b")
        store = tmp_path / "merged.sqlite"
        rc = main(["ingest", str(jsonl), str(sqlite_src),
                   "--store", str(store), "--run", "all"])
        assert rc == 0
        assert capsys.readouterr().out.count("ingested") == 2
        with ResultStore(store, create=False) as merged:
            assert merged.trial_count("all") == len(campaign)

    def test_pending_keys_orders_and_filters(self, tmp_path, campaign):
        path = tmp_path / "w.sqlite"
        with ResultStore(path) as store:
            store.begin_run(run_id="r")
            keys = [s.key() for s in campaign.specs]
            assert store.pending_keys("r", keys) == keys
            spec = campaign.specs[2]
            store.write("r", spec.key(), spec.to_dict(),
                        spec.run().to_dict())
            pending = store.pending_keys("r", keys)
            assert pending == [k for k in keys if k != spec.key()]


# ----------------------------------------------------------------------
# Store-backed bench gate: compare --bench-store
# ----------------------------------------------------------------------
class TestBenchStoreGate:
    def _record(self, path, value):
        with ResultStore(path) as store:
            store.record_bench("BENCH_3", "tiny",
                               {"hot_loop": {"x": value}})

    def test_single_emission_passes_as_no_baseline(self, tmp_path,
                                                   capsys):
        path = tmp_path / "bench.sqlite"
        self._record(path, 100.0)
        rc = main(["compare", "--bench-store", str(path),
                   "--mode", "tiny"])
        assert rc == 0
        assert "no baseline yet" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--bench-name", "BENCH_9"),
                                            ("--mode", "tiyn")])
    def test_unrecorded_pair_fails_and_lists_the_held_pairs(
            self, tmp_path, capsys, flag, value):
        # A typo'd name or mode finds no emission: the gate must fail
        # instead of passing as "no baseline yet".
        path = tmp_path / "bench.sqlite"
        self._record(path, 100.0)
        self._record(path, 100.0)
        args = {"--bench-name": "BENCH_3", "--mode": "tiny"}
        args[flag] = value
        rc = main(["compare", "--bench-store", str(path),
                   *(item for pair in args.items() for item in pair)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "never recorded" in out
        assert "holds: (BENCH_3, tiny)" in out

    def test_gates_newest_against_previous(self, tmp_path, capsys):
        path = tmp_path / "bench.sqlite"
        self._record(path, 100.0)
        self._record(path, 95.0)  # within the 25% default
        assert main(["compare", "--bench-store", str(path),
                     "--mode", "tiny"]) == 0
        capsys.readouterr()
        self._record(path, 10.0)  # collapse -> regression
        assert main(["compare", "--bench-store", str(path),
                     "--mode", "tiny"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_gate_compares_last_two_only(self, tmp_path):
        # The old regression dropping out of the window must not keep
        # failing the gate forever.
        path = tmp_path / "bench.sqlite"
        for value in (100.0, 10.0, 10.5):
            self._record(path, value)
        assert main(["compare", "--bench-store", str(path),
                     "--mode", "tiny"]) == 0

    def test_tiny_emission_leaves_the_root_files(self, tmp_path,
                                                 monkeypatch):
        """``--tiny`` figures go under ``bench-tiny/``: the committed
        BENCH files stay byte-identical, and full runs still write
        them."""
        import importlib.util
        import os
        import shutil

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_engine_emit", os.path.join(root, "benchmarks",
                                              "bench_engine.py"))
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        names = [f"BENCH_{k}.json" for k in range(3, 7)]
        for name in names:
            shutil.copy(os.path.join(root, name), tmp_path / name)
        before = {name: (tmp_path / name).read_bytes() for name in names}
        monkeypatch.setattr(bench, "BENCH_ROOT", tmp_path)
        store = tmp_path / "bench.sqlite"
        bench.emit_bench("tiny", {name[:-5]: {"probe": {"x": 1.0}}
                                  for name in names}, store=str(store))
        assert {name: (tmp_path / name).read_bytes()
                for name in names} == before
        for name in names:
            payload = json.loads(
                (tmp_path / bench.TINY_DIR / name).read_text())
            assert payload == {"tiny": {"probe": {"x": 1.0}}}
        with ResultStore(store, create=False) as results:
            assert len(results.bench_trajectory("BENCH_3", "tiny")) == 1
        bench.emit_bench("full", {"BENCH_3": {"probe": {"x": 2.0}}})
        written = json.loads((tmp_path / "BENCH_3.json").read_text())
        assert written["full"]["probe"] == {"x": 2.0}

    def test_bench_engine_store_flag_records(self, tmp_path):
        import subprocess, sys, os
        env = os.environ.copy()
        src_root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        bench = os.path.join(os.path.dirname(src_root),
                             "benchmarks", "bench_engine.py")
        path = tmp_path / "bench.sqlite"
        proc = subprocess.run(
            [sys.executable, bench, "--tiny", "--budget", "0.02",
             "--no-json", "--store", str(path)],
            env=env, cwd=tmp_path, capture_output=True, timeout=300)
        out, err = proc.stdout.decode(), proc.stderr.decode()
        # The script still applies its timing floors, which 0.02 s
        # measurements cannot hold reliably (the pytest benches and the
        # bench-gate lane gate them); this test checks the recording, so
        # it accepts the script's own floor failure and nothing else.
        if proc.returncode != 0:
            assert proc.returncode == 1 and "\nFAIL: " in "\n" + out, out
            assert "Traceback" not in err, err
        with ResultStore(path, create=False) as store:
            for bench in ("BENCH_3", "BENCH_4", "BENCH_5", "BENCH_6"):
                assert len(store.bench_trajectory(bench, "tiny")) == 1, bench
