"""The fabric worker: one process, one shard, one per-shard store.

A worker's whole life::

    task = ShardTask.read(shard_file)
    claim  = specs whose keys the shard store does not hold  (resume)
    for spec in claim: result = spec.run(); sink.write(...)  (commit-per-trial)
    heartbeat after every trial + on a timer                 (liveness)

Work claiming is the store's resume surface: the ``(run_id, key)``
rows already committed in the per-shard store are skipped, so a
requeued worker (after a crash, a kill, or a host reboot) re-runs only
what is missing — claim-by-key dedup, no coordination protocol needed.
Each trial commits individually through a
:class:`~repro.results.SqliteSink` (WAL journal), so death at any
instant loses at most the in-flight trial.

Runnable three ways, all equivalent: in-process
(:func:`run_shard`, what the tests use), ``repro fabric worker
--shard-file F`` (the CLI), or ``python -m repro.fabric.worker
--shard-file F`` (what the coordinator spawns, and the entry point for
remote hosts handed a shard file).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from typing import Dict, List, Optional

from ..obs.registry import TELEMETRY
from .heartbeat import Heartbeat, write_heartbeat
from .plan import ShardTask

#: Exit code of a chaos-injected hard death (``chaos_exit_after``).
CHAOS_EXIT_CODE = 23


def run_shard(task: ShardTask, progress=None) -> Dict[str, int]:
    """Run one shard to completion; returns ``{completed, written, total}``.

    ``completed`` counts every key present in the shard store when the
    worker finishes (resumed + fresh); ``written`` counts only the
    trials this invocation executed.  ``progress`` is an optional
    ``(spec, result)`` callback, mirroring :meth:`Campaign.run`.
    """
    from ..results.sinks import SqliteSink

    specs = task.experiment_specs()
    total = len(specs)
    sink = SqliteSink(task.store_path, run_id=task.run_id,
                      label=f"shard-{task.index}")
    try:
        claimed = set(sink.completed())  # claim-by-key: skip stored work
        counts = {"completed": sum(1 for s in specs if s.key() in claimed),
                  "written": 0}
        # Telemetry folded into the heartbeat payload: fresh-trial
        # throughput since the worker started and the latest commit
        # latency.  Measured unconditionally — the heartbeat is the
        # fabric's progress channel regardless of the obs registry.
        t_start = time.perf_counter()
        rates: Dict[str, Optional[float]] = {"trials_per_s": None,
                                             "commit_s": None}
        # The timer thread and the main thread both beat; one at a time.
        beat_lock = threading.Lock()

        def beat(status: str, error: Optional[str] = None) -> None:
            with beat_lock:
                write_heartbeat(task.heartbeat_path, Heartbeat(
                    shard=task.index, pid=os.getpid(),
                    completed=counts["completed"], total=total,
                    status=status, updated_at=time.time(), error=error,
                    trials_per_s=rates["trials_per_s"],
                    commit_s=rates["commit_s"],
                ))

        # A timer thread keeps the heartbeat fresh through trials that
        # run longer than the heartbeat timeout — a slow trial must not
        # read as a dead worker.
        stop = threading.Event()

        def pulse() -> None:
            while not stop.wait(task.heartbeat_interval_s):
                beat("running")

        def final_beat(status: str, error: Optional[str] = None) -> None:
            # A pulse landing after the final beat would overwrite it.
            stop.set()
            pulser.join()
            beat(status, error=error)

        beat("running")
        pulser = threading.Thread(target=pulse, daemon=True)
        pulser.start()
        try:
            for spec in specs:
                key = spec.key()
                if key in claimed:
                    continue
                trial_t0 = time.perf_counter()
                result = spec.run()
                commit_t0 = time.perf_counter()
                sink.write(key, spec, result)
                commit_t1 = time.perf_counter()
                counts["completed"] += 1
                counts["written"] += 1
                rates["commit_s"] = round(commit_t1 - commit_t0, 6)
                elapsed = commit_t1 - t_start
                if elapsed > 0:
                    rates["trials_per_s"] = round(
                        counts["written"] / elapsed, 3)
                if TELEMETRY.enabled:
                    TELEMETRY.counter("fabric.trials").inc()
                    TELEMETRY.histogram("fabric.trial_wall_s").observe(
                        commit_t0 - trial_t0)
                    TELEMETRY.histogram("fabric.commit_s").observe(
                        commit_t1 - commit_t0)
                beat("running")
                if progress is not None:
                    progress(spec, result)
                if (task.chaos_exit_after is not None
                        and counts["written"] >= task.chaos_exit_after):
                    # Failure injection: die like a crashed host — no
                    # sink close, no "done" beat, no exception path.
                    os._exit(CHAOS_EXIT_CODE)
        except Exception as exc:
            final_beat("failed", error=f"{type(exc).__name__}: {exc}")
            raise
        final_beat("done")
        return {"completed": counts["completed"],
                "written": counts["written"], "total": total}
    finally:
        sink.close()


def run_worker_file(shard_file: str, quiet: bool = False,
                    profile: Optional[str] = None) -> int:
    """CLI/process entry: run the shard described by ``shard_file``.

    ``profile`` enables cProfile around the whole shard; the .pstats
    dump lands at ``<profile>.shard-<index>.pstats`` so a multi-worker
    fabric run yields one distinguishable profile per worker.
    """
    try:
        task = ShardTask.read(shard_file)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read shard file {shard_file!r}: {exc}",
              file=sys.stderr)
        return 2
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        summary = run_shard(task)
    except Exception as exc:
        print(f"shard {task.index} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if profiler is not None:
            profiler.disable()
            dump = f"{profile}.shard-{task.index}.pstats"
            profiler.dump_stats(dump)
            if not quiet:
                print(f"profile written to {dump}", file=sys.stderr)
    if not quiet:
        print(f"shard {task.index}: {summary['written']} executed, "
              f"{summary['completed'] - summary['written']} resumed, "
              f"{summary['total']} total -> {task.store_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.fabric.worker`` — the spawn/remote entry."""
    parser = argparse.ArgumentParser(
        description="Run one fabric shard from its handoff file.")
    parser.add_argument("--shard-file", required=True,
                        help="ShardTask JSON written by the coordinator "
                             "or `repro fabric plan`")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the completion summary line")
    parser.add_argument("--profile", metavar="PATH",
                        help="cProfile the shard; dump to "
                             "PATH.shard-<index>.pstats")
    args = parser.parse_args(argv)
    return run_worker_file(args.shard_file, quiet=args.quiet,
                           profile=args.profile)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
