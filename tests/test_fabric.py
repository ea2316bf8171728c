"""Tests for the campaign fabric: plan, worker, coordinator, service.

Covers the subsystem's acceptance contracts:

* a >=100-spec grid sharded over 4 workers — with one worker
  chaos-killed mid-run and requeued — completes with zero duplicate
  keys and a trial set identical to the serial baseline;
* workers claim work by key (resume) and survive hard death at any
  point losing at most the in-flight trial;
* the HTTP service answers /runs /query /report /compare correctly
  against a store other processes are still writing into, with JSON
  and markdown negotiation;
* N concurrent writer processes into one WAL store lose nothing, and
  a mid-run reader sees monotonically growing counts.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import Campaign, ExperimentSpec
from repro.cli import main
from repro.fabric import (
    CHAOS_EXIT_CODE,
    Coordinator,
    Heartbeat,
    ResultService,
    ShardTask,
    build_plan,
    partition,
    read_heartbeat,
    run_fabric,
    run_shard,
    shard_of,
    write_heartbeat,
)
from repro.fabric.coordinator import _ShardState
from repro.results import ResultStore, SqliteSink

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _worker_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def small_grid(seeds=4):
    return Campaign.grid(
        protocols=["coloring"],
        topologies=[("ring", {"n": 6})],
        schedulers=["synchronous"],
        seeds=range(seeds),
    )


def serial_trials(campaign, tmp_path, run_id="serial"):
    """key -> result dict of a serial run (the parity baseline)."""
    path = tmp_path / f"{run_id}.sqlite"
    campaign.run(out=path, sink="sqlite", run_id=run_id)
    with ResultStore(path, create=False) as store:
        return {k: r for k, _s, r in store.raw_trials(run_id)}


# ----------------------------------------------------------------------
# Partitioning and shard plans
# ----------------------------------------------------------------------
class TestPartition:
    def test_disjoint_and_covering(self):
        specs = small_grid(seeds=12).specs
        for strategy in ("hash", "round-robin"):
            shards = partition(specs, 5, strategy=strategy)
            keys = [s.key() for shard in shards for s in shard]
            assert sorted(keys) == sorted(s.key() for s in specs)
            assert len(set(keys)) == len(keys)

    def test_round_robin_balances(self):
        shards = partition(small_grid(seeds=10).specs, 5, "round-robin")
        assert [len(s) for s in shards] == [2, 2, 2, 2, 2]

    def test_hash_assignment_stable_under_grid_growth(self):
        # The property that keeps partial shard stores valid when a
        # campaign grows: a spec's shard depends only on its own key.
        small = small_grid(seeds=4).specs
        grown = small_grid(seeds=8).specs
        for spec in small:
            assert shard_of(spec.key(), 4) == shard_of(spec.key(), 4)
            placed_small = [i for i, shard in
                            enumerate(partition(small, 4)) if
                            any(s.key() == spec.key() for s in shard)]
            placed_grown = [i for i, shard in
                            enumerate(partition(grown, 4)) if
                            any(s.key() == spec.key() for s in shard)]
            assert placed_small == placed_grown

    def test_bad_arguments(self):
        specs = small_grid().specs
        with pytest.raises(ValueError, match="at least one shard"):
            partition(specs, 0)
        with pytest.raises(ValueError, match="unknown partition strategy"):
            partition(specs, 2, "random")

    def test_shard_task_round_trip(self, tmp_path):
        tasks = build_plan(small_grid().specs, 2, tmp_path, "run-x")
        assert tasks, "a non-empty grid must produce tasks"
        for task in tasks:
            path = tmp_path / f"rt-{task.index}.json"
            task.write(path)
            loaded = ShardTask.read(path)
            assert loaded == task
            assert loaded.experiment_specs() == [
                ExperimentSpec.from_dict(d) for d in task.specs]

    def test_without_chaos_disarms(self):
        task = ShardTask(index=0, run_id="r", store_path="s",
                         heartbeat_path="h", specs=(),
                         chaos_exit_after=1)
        assert task.without_chaos().chaos_exit_after is None

    def test_build_plan_drops_empty_shards(self, tmp_path):
        # 2 specs over 64 shards: most shards are empty and get no task.
        tasks = build_plan(small_grid(seeds=2).specs, 64, tmp_path, "r")
        assert 1 <= len(tasks) <= 2
        assert all(task.specs for task in tasks)


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "hb.json"
        beat = Heartbeat(shard=3, pid=42, completed=5, total=9,
                         status="running", updated_at=time.time())
        write_heartbeat(path, beat)
        assert read_heartbeat(path) == beat

    def test_missing_and_garbage_read_as_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_heartbeat(bad) is None
        bad.write_text('{"shard": 1}')  # missing fields
        assert read_heartbeat(bad) is None

    def test_age_and_done(self):
        beat = Heartbeat(shard=0, pid=1, completed=1, total=1,
                         status="done", updated_at=100.0)
        assert beat.age_s(now=130.0) == pytest.approx(30.0)
        assert beat.done

    def test_concurrent_writers_never_collide(self, tmp_path):
        # A worker's timer thread and main thread share one process and
        # one heartbeat path; a per-process temp name let one thread's
        # os.replace move the other's temp file away mid-write.
        path = tmp_path / "hb.json"
        errors = []

        def hammer(shard):
            beat = Heartbeat(shard=shard, pid=os.getpid(), completed=0,
                             total=1, status="running",
                             updated_at=time.time())
            try:
                for _ in range(300):
                    write_heartbeat(path, beat)
            except OSError as exc:
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert read_heartbeat(path).shard in range(4)
        assert [p.name for p in tmp_path.iterdir()] == ["hb.json"]


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
class TestWorker:
    def test_run_shard_executes_and_heartbeats(self, tmp_path):
        [task] = build_plan(small_grid(seeds=3).specs, 1, tmp_path, "r")
        summary = run_shard(task)
        assert summary == {"completed": 3, "written": 3, "total": 3}
        beat = read_heartbeat(task.heartbeat_path)
        assert beat is not None and beat.done and beat.completed == 3
        with ResultStore(task.store_path, create=False) as store:
            assert store.trial_count("r") == 3

    def test_final_beat_survives_a_racing_pulse(self, tmp_path):
        # The timer thread beats "running" as fast as it can; none of
        # those beats may land after (and overwrite) the final "done".
        [task] = build_plan(small_grid(seeds=3).specs, 1, tmp_path, "r",
                            heartbeat_interval_s=1e-4)
        for _ in range(5):
            run_shard(task)
            assert read_heartbeat(task.heartbeat_path).done

    def test_failed_shard_final_beat_reads_failed(self, tmp_path):
        # The exception path joins the racing pulse too: the last
        # heartbeat a failed shard leaves is "failed", with its error.
        [task] = build_plan(small_grid(seeds=3).specs, 1, tmp_path, "r",
                            heartbeat_interval_s=1e-4)

        def boom(spec, result):
            raise RuntimeError("sink exploded")

        for _ in range(3):
            with pytest.raises(RuntimeError, match="sink exploded"):
                run_shard(task, progress=boom)
            beat = read_heartbeat(task.heartbeat_path)
            assert beat.status == "failed"
            assert beat.error == "RuntimeError: sink exploded"

    def test_run_shard_resumes_by_key(self, tmp_path):
        [task] = build_plan(small_grid(seeds=4).specs, 1, tmp_path, "r")
        specs = task.experiment_specs()
        sink = SqliteSink(task.store_path, run_id="r")
        for spec in specs[:2]:
            sink.write(spec.key(), spec, spec.run())
        sink.close()
        summary = run_shard(task)
        assert summary == {"completed": 4, "written": 2, "total": 4}

    def test_chaos_death_in_subprocess(self, tmp_path):
        # The hook hard-exits the process — only ever exercised through
        # a real subprocess, exactly like the coordinator does.
        [task] = build_plan(small_grid(seeds=4).specs, 1, tmp_path, "r")
        import dataclasses
        task = dataclasses.replace(task, chaos_exit_after=2)
        shard_file = tmp_path / "shard.json"
        task.write(shard_file)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.fabric.worker",
             "--shard-file", str(shard_file)],
            env=_worker_env(), capture_output=True, timeout=120)
        assert proc.returncode == CHAOS_EXIT_CODE
        # Death after 2 commits: exactly those 2 rows are durable.
        with ResultStore(task.store_path, create=False) as store:
            assert store.trial_count("r") == 2
        # A relaunch resumes by key and finishes the remainder (the
        # re-armed hook fires after 2 *fresh* trials — exactly the
        # remaining work, so the second run completes the shard).
        proc = subprocess.run(
            [sys.executable, "-m", "repro.fabric.worker",
             "--shard-file", str(shard_file)],
            env=_worker_env(), capture_output=True, timeout=120)
        with ResultStore(task.store_path, create=False) as store:
            assert store.trial_count("r") == 4

    def test_worker_cli_bad_shard_file(self, tmp_path, capsys):
        rc = main(["fabric", "worker",
                   "--shard-file", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot read shard file" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_acceptance_chaos_parity(self, tmp_path):
        """The subsystem's acceptance gate: 100 specs, 4 workers, one
        chaos-killed worker, zero duplicate keys, trial-for-trial
        identical to serial."""
        campaign = Campaign.grid(
            protocols=["coloring", "mis"],
            topologies=[("ring", {"n": 6})],
            schedulers=["synchronous", "central"],
            seeds=range(25),
        )
        assert len(campaign) == 100
        store_path = tmp_path / "fabric.sqlite"
        outcome = run_fabric(
            campaign, store_path, run_id="fabric",
            workers=4, shards=5, chaos_kills=1,
        )
        assert outcome.ok
        assert outcome.requeued >= 1, "the chaos kill must force a requeue"
        assert outcome.executed == 100
        with ResultStore(store_path, create=False) as store:
            assert store.trial_count("fabric") == 100
            assert len(store.completed_keys("fabric")) == 100
            fabric = {k: r for k, _s, r in store.raw_trials("fabric")}
        serial = serial_trials(campaign, tmp_path)
        assert fabric.keys() == serial.keys()
        assert fabric == serial

    def test_resume_skips_stored_work(self, tmp_path):
        campaign = small_grid(seeds=6)
        store_path = tmp_path / "store.sqlite"
        first = run_fabric(campaign, store_path, run_id="r", workers=2)
        assert first.ok and first.executed == 6
        second = run_fabric(campaign, store_path, run_id="r", workers=2)
        assert second.ok
        assert second.executed == 0 and second.resumed == 6

    def test_resume_after_partial_canonical_store(self, tmp_path):
        # Trials already merged into the canonical run are never
        # re-dispatched — the coordinator-level claim surface.
        campaign = small_grid(seeds=6)
        store_path = tmp_path / "store.sqlite"
        sink = SqliteSink(store_path, run_id="r")
        for spec in campaign.specs[:4]:
            sink.write(spec.key(), spec, spec.run())
        sink.close()
        outcome = run_fabric(campaign, store_path, run_id="r", workers=2)
        assert outcome.ok
        assert outcome.resumed == 4 and outcome.executed == 2

    def test_workdir_removed_on_success_kept_on_request(self, tmp_path):
        campaign = small_grid(seeds=2)
        store = tmp_path / "a.sqlite"
        workdir = tmp_path / "work"
        run_fabric(campaign, store, workdir=workdir, workers=1)
        assert not workdir.exists()
        run_fabric(campaign, tmp_path / "b.sqlite",
                   workdir=workdir, workers=1, keep_shards=True)
        assert workdir.exists()

    def test_gives_up_after_bounded_retries(self, tmp_path):
        # A shard that dies on every attempt (chaos re-armed via a
        # doctored coordinator) must exhaust retries, not loop forever.
        campaign = small_grid(seeds=4)
        coordinator = Coordinator(
            campaign, tmp_path / "store.sqlite", run_id="r",
            workers=1, shards=1, chaos_kills=1, max_retries=1,
            retry_backoff_s=0.0,
        )
        # Re-arm chaos on requeue so every attempt dies.
        original = ShardTask.without_chaos
        ShardTask.without_chaos = lambda self: self
        try:
            outcome = coordinator.run()
        finally:
            ShardTask.without_chaos = original
        assert not outcome.ok
        # Each attempt commits one fresh trial before dying.
        assert 0 < len(outcome.missing) < 4
        assert outcome.requeued == 1

    def test_stall_detection_logic(self, tmp_path):
        campaign = small_grid(seeds=1)
        coordinator = Coordinator(campaign, tmp_path / "s.sqlite",
                                  heartbeat_timeout_s=5.0)
        [task] = build_plan(campaign.specs, 1, tmp_path / "w", "r")
        state = _ShardState(task, "f", "l")
        now = time.monotonic()
        state.launched_at = now  # within startup grace
        assert not coordinator._stalled(state, now)
        state.launched_at = now - 60.0  # grace over, no heartbeat file
        assert coordinator._stalled(state, now)
        write_heartbeat(task.heartbeat_path, Heartbeat(
            shard=0, pid=1, completed=0, total=1,
            status="running", updated_at=time.time()))
        assert not coordinator._stalled(state, now)  # fresh beat
        write_heartbeat(task.heartbeat_path, Heartbeat(
            shard=0, pid=1, completed=0, total=1,
            status="running", updated_at=time.time() - 60.0))
        assert coordinator._stalled(state, now)  # stale beat

    def test_campaign_run_fabric_method(self, tmp_path):
        campaign = small_grid(seeds=3)
        outcome = campaign.run_fabric(tmp_path / "m.sqlite",
                                      run_id="m", workers=2)
        assert outcome.ok and outcome.total == 3

    def test_validates_worker_and_shard_counts(self, tmp_path):
        with pytest.raises(ValueError, match="at least one worker"):
            Coordinator(small_grid(), tmp_path / "s.sqlite", workers=0)
        with pytest.raises(ValueError, match="at least one shard"):
            Coordinator(small_grid(), tmp_path / "s.sqlite", shards=0)


# ----------------------------------------------------------------------
# CLI: fabric run / plan / worker + campaign --fabric
# ----------------------------------------------------------------------
class TestFabricCli:
    def test_fabric_run_then_compare_with_serial(self, tmp_path, capsys):
        store = tmp_path / "store.sqlite"
        rc = main(["fabric", "run",
                   "--protocols", "coloring",
                   "--topologies", "ring:n=6",
                   "--seeds", "6",
                   "--workers", "2", "--shards", "3",
                   "--store", str(store), "--run", "fabric",
                   "--chaos-kill", "1", "--quiet"])
        assert rc == 0
        rc = main(["campaign", "--protocols", "coloring",
                   "--topologies", "ring:n=6", "--seeds", "6",
                   "--out", str(store), "--sink", "sqlite",
                   "--run", "serial", "--quiet"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["compare", "--store", str(store),
                   "--runs", "fabric", "serial", "--threshold", "0"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 regressed" in out

    def test_campaign_fabric_flag(self, tmp_path, capsys):
        store = tmp_path / "store.sqlite"
        rc = main(["campaign", "--protocols", "mis",
                   "--topologies", "ring:n=6", "--seeds", "3",
                   "--out", str(store), "--fabric", "--workers", "2",
                   "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fabric run" in out
        assert "campaign summary" in out  # report rendered from store

    def test_campaign_fabric_needs_out(self):
        with pytest.raises(SystemExit, match="--fabric needs --out"):
            main(["campaign", "--fabric"])

    def test_plan_worker_ingest_round_trip(self, tmp_path, capsys):
        # The multi-host path: plan shard files, run each "host"
        # through the CLI worker, merge with multi-source ingest.
        workdir = tmp_path / "plan"
        store = tmp_path / "merged.sqlite"
        rc = main(["fabric", "plan", "--protocols", "coloring",
                   "--topologies", "ring:n=6", "--seeds", "5",
                   "--workdir", str(workdir), "--shards", "2",
                   "--run", "remote"])
        assert rc == 0
        shard_files = sorted(workdir.glob("shard-*.json"))
        assert shard_files
        for shard_file in shard_files:
            assert main(["fabric", "worker",
                         "--shard-file", str(shard_file)]) == 0
        shard_stores = [str(p) for p in sorted(workdir.glob("*.sqlite"))]
        rc = main(["ingest", *shard_stores,
                   "--store", str(store), "--run", "remote"])
        assert rc == 0
        with ResultStore(store, create=False) as merged:
            assert merged.trial_count("remote") == 5
        serial = serial_trials(small_grid(seeds=5), tmp_path)
        with ResultStore(store, create=False) as merged:
            remote = {k: r for k, _s, r in merged.raw_trials("remote")}
        assert remote == serial


# ----------------------------------------------------------------------
# HTTP service
# ----------------------------------------------------------------------
def _get(url, accept=None):
    request = urllib.request.Request(url)
    if accept:
        request.add_header("Accept", accept)
    with urllib.request.urlopen(request) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode())


@pytest.fixture
def served_store(tmp_path):
    store_path = tmp_path / "served.sqlite"
    small_grid(seeds=5).run(out=store_path, sink="sqlite", run_id="base")
    with ResultService(str(store_path)) as service:
        yield store_path, service


class TestResultService:
    def test_health_and_runs(self, served_store):
        _path, service = served_store
        status, ctype, body = _get(service.url + "/health")
        assert status == 200 and ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["ok"] and payload["trials"] == 5
        _status, _ctype, body = _get(service.url + "/runs")
        runs = json.loads(body)["runs"]
        assert [r["run_id"] for r in runs] == ["base"]
        assert runs[0]["trials"] == 5

    def test_query_matches_store(self, served_store):
        store_path, service = served_store
        _s, _c, body = _get(service.url +
                            "/query?metrics=rounds&group_by=protocol")
        groups = json.loads(body)["groups"]
        with ResultStore(store_path, create=False) as store:
            direct = store.query(metrics=["rounds"],
                                 group_by=["protocol"])
        assert len(groups) == len(direct) == 1
        assert groups[0]["count"] == direct[0].count
        assert (groups[0]["aggregates"]["rounds"]["mean"]
                == pytest.approx(direct[0].aggregates["rounds"].mean))

    def test_markdown_negotiation(self, served_store):
        _path, service = served_store
        # Accept header
        _s, ctype, body = _get(service.url + "/report?recipe=paper-overhead",
                               accept="text/markdown")
        assert ctype.startswith("text/markdown")
        assert body.startswith("**") and "| protocol |" in body
        # ?format= overrides Accept
        _s, ctype, _b = _get(
            service.url + "/query?format=json", accept="text/markdown")
        assert ctype.startswith("application/json")
        _s, ctype, _b = _get(service.url + "/runs?format=markdown")
        assert ctype.startswith("text/markdown")

    def test_report_recipe_json(self, served_store):
        _path, service = served_store
        _s, _c, body = _get(service.url + "/report?recipe=paper-overhead")
        payload = json.loads(body)
        assert payload["recipe"] == "paper-overhead"
        assert payload["group_by"] == ["protocol", "topology"]
        assert payload["groups"][0]["count"] == 5

    def test_compare_identical_runs(self, served_store):
        _path, service = served_store
        _s, _c, body = _get(service.url +
                            "/compare?runs=base,base&threshold=0")
        payload = json.loads(body)
        assert payload["regressed"] is False
        assert payload["rows"], "identical runs still produce cells"

    def test_error_statuses(self, served_store):
        _path, service = served_store
        for path, status, needle in [
            ("/nope", 404, "no such endpoint"),
            ("/report?recipe=nope", 400, "unknown recipe"),
            ("/query?where=broken", 400, "column=value"),
            ("/compare?runs=base", 400, "exactly two"),
            ("/query?format=yaml", 400, "unknown format"),
            ("/query?run=ghost", 400, "ghost"),
        ]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(service.url + path)
            assert excinfo.value.code == status
            assert needle in excinfo.value.read().decode()

    def test_live_writes_are_monotonic(self, tmp_path):
        # The live-dashboard contract: a reader polling while a
        # campaign writes sees committed trials only, and the count
        # never goes backwards.
        store_path = tmp_path / "live.sqlite"
        specs = small_grid(seeds=6).specs
        sink = SqliteSink(store_path, run_id="live")
        sink.write(specs[0].key(), specs[0], specs[0].run())
        with ResultService(str(store_path)) as service:
            seen = []
            for spec in specs[1:]:
                _s, _c, body = _get(service.url + "/health")
                seen.append(json.loads(body)["trials"])
                sink.write(spec.key(), spec, spec.run())
            sink.close()
            _s, _c, body = _get(service.url + "/health")
            seen.append(json.loads(body)["trials"])
        assert seen == sorted(seen), "trial counts must be monotone"
        assert seen[0] >= 1 and seen[-1] == 6

    def test_missing_store_refused(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            ResultService(str(tmp_path / "ghost.sqlite"))


# ----------------------------------------------------------------------
# Concurrent writers (the WAL contract, process-level)
# ----------------------------------------------------------------------
WRITER_SCRIPT = """
import sys
from repro.api import Campaign
from repro.results import SqliteSink

store_path, run_id, lo, hi = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
campaign = Campaign.grid(
    protocols=["coloring"],
    topologies=[("ring", {"n": 6})],
    schedulers=["synchronous"],
    seeds=range(lo, hi),
)
sink = SqliteSink(store_path, run_id=run_id)
for spec in campaign.specs:
    sink.write(spec.key(), spec, spec.run())
sink.close()
"""


class TestConcurrentWriters:
    def test_four_processes_one_store_no_lost_trials(self, tmp_path):
        store_path = tmp_path / "shared.sqlite"
        # Seed ranges are disjoint: 4 x 25 = 100 distinct keys.
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(store_path),
                 "shared", str(lo), str(lo + 25)],
                env=_worker_env(), stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT)
            for lo in range(0, 100, 25)
        ]
        # Mid-run reader: counts may lag but must never decrease.
        seen = []
        while any(proc.poll() is None for proc in procs):
            if store_path.exists():
                try:
                    with ResultStore(store_path, create=False) as store:
                        seen.append(store.trial_count("shared"))
                except ValueError:
                    pass  # first writer still creating the file
            time.sleep(0.05)
        for proc in procs:
            output = proc.stdout.read().decode()
            assert proc.returncode == 0, output
        assert seen == sorted(seen), "reader counts must be monotone"
        with ResultStore(store_path, create=False) as store:
            assert store.trial_count("shared") == 100
            assert len(store.completed_keys("shared")) == 100

    def test_writer_parity_with_serial(self, tmp_path):
        # Concurrency must not change any stored value, only interleave
        # the writes.
        store_path = tmp_path / "shared.sqlite"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(store_path),
                 "shared", str(lo), str(lo + 5)],
                env=_worker_env())
            for lo in range(0, 10, 5)
        ]
        for proc in procs:
            assert proc.wait(timeout=300) == 0
        serial = serial_trials(small_grid(seeds=10), tmp_path)
        with ResultStore(store_path, create=False) as store:
            shared = {k: r for k, _s, r in store.raw_trials("shared")}
        assert shared == serial
