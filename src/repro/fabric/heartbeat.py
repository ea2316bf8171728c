"""Worker heartbeats: liveness and progress as one small file.

A fabric worker owns one heartbeat file (named in its
:class:`~repro.fabric.plan.ShardTask`) and rewrites it atomically —
temp file + ``os.replace`` — after every finished trial and on a
timer, so a reader never sees a torn write and a worker stuck inside
one long trial still looks alive.  The coordinator reads these files
to decide three things: is the worker making progress, has it finished
(``status="done"``), and has it gone quiet longer than the heartbeat
timeout (stall → kill → requeue).

Files, not sockets, on purpose: the same mechanism works for local
subprocesses and for remote hosts sharing a filesystem, and a
heartbeat that outlives its worker is exactly the evidence the
coordinator needs.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

#: Heartbeat lifecycle states a worker reports.
HEARTBEAT_STATUSES = ("running", "done", "failed")


@dataclass(frozen=True)
class Heartbeat:
    """One worker's most recent sign of life."""

    shard: int
    pid: int
    completed: int
    total: int
    status: str  # "running" | "done" | "failed"
    updated_at: float  # epoch seconds (time.time)
    error: Optional[str] = None
    #: telemetry fold-ins (PR 10) — optional so heartbeat files written
    #: by older workers (and files read by older coordinators) keep
    #: round-tripping: fresh-trial throughput since the worker started,
    #: and the store-commit latency of the most recent trial.
    trials_per_s: Optional[float] = None
    commit_s: Optional[float] = None

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the worker last wrote this heartbeat."""
        now = time.time() if now is None else now
        return now - self.updated_at

    @property
    def done(self) -> bool:
        """Whether the worker reported an orderly finish."""
        return self.status == "done"

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "shard": self.shard,
            "pid": self.pid,
            "completed": self.completed,
            "total": self.total,
            "status": self.status,
            "updated_at": self.updated_at,
            "error": self.error,
        }
        # Telemetry fields only appear once the worker has measured
        # something — files stay byte-compatible with pre-telemetry
        # readers that index strictly by the core keys.
        if self.trials_per_s is not None:
            out["trials_per_s"] = self.trials_per_s
        if self.commit_s is not None:
            out["commit_s"] = self.commit_s
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Heartbeat":
        return cls(
            shard=int(data["shard"]),
            pid=int(data["pid"]),
            completed=int(data["completed"]),
            total=int(data["total"]),
            status=data["status"],
            updated_at=float(data["updated_at"]),
            error=data.get("error"),
            trials_per_s=data.get("trials_per_s"),
            commit_s=data.get("commit_s"),
        )


def write_heartbeat(path: Union[str, os.PathLike],
                    heartbeat: Heartbeat) -> None:
    """Atomically replace the heartbeat file (write temp, rename).

    ``os.replace`` is atomic on POSIX and Windows, so a coordinator
    polling mid-write reads the previous complete heartbeat, never a
    truncated one.  Every call writes its own temp file in the target's
    directory, so concurrent writers (a worker's timer thread and its
    main thread) never rename each other's file away.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{uuid.uuid4().hex}"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(heartbeat.to_dict(), fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_heartbeat(path: Union[str, os.PathLike]) -> Optional[Heartbeat]:
    """The current heartbeat, or None when missing/unreadable.

    Tolerant by design: a worker that died before its first beat, or a
    file caught in an unexpected state, reads as "no heartbeat" — the
    coordinator treats that like a stale one once the grace period
    passes.
    """
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return Heartbeat.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError):
        return None
