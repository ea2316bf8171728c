"""Pluggable campaign sinks: where finished trials go, one at a time.

:meth:`Campaign.run <repro.api.Campaign.run>` streams every finished
trial to a sink the moment it completes.  A sink is three operations:

* ``completed()`` — the spec-key -> :class:`TrialResult` map already
  present (the resume surface);
* ``write(key, spec, result)`` — persist one finished trial durably
  (a crash after ``write`` returns must not lose the row);
* ``close()`` — release resources and stamp run metadata.

Two implementations ship: :class:`JsonlSink` (the historical
append-only file — one JSON line per trial) and :class:`SqliteSink`
(a :class:`~repro.results.ResultStore` run — queryable, WAL-safe for
concurrent writers).  Both honor last-writer-wins on duplicate keys
and both resume identically: the parity is regression-tested.

``make_sink`` resolves the ``sink="jsonl"|"sqlite"`` strings the
campaign and CLI accept; pass a :class:`Sink` instance instead to
plug in your own backend.
"""

from __future__ import annotations

import abc
import json
import os
import time
from typing import Any, Dict, Mapping, Optional, Union

from ..experiments.runner import TrialResult

#: Sink kinds resolvable by name in ``Campaign.run(sink=...)`` / the CLI.
SINK_KINDS = ("jsonl", "sqlite")


class Sink(abc.ABC):
    """One destination for finished campaign trials (see module docs)."""

    #: registry-style name ("jsonl", "sqlite", ...)
    kind: str = "abstract"

    @abc.abstractmethod
    def completed(self) -> Dict[str, Any]:
        """Spec-key -> ``TrialResult`` rows already present (resume)."""

    @abc.abstractmethod
    def write(self, key: str, spec: Any, result: Any) -> None:
        """Durably persist one finished trial."""

    def close(self) -> None:
        """Release resources; called exactly once by the campaign."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlSink(Sink):
    """The append-only JSONL file sink (one ``{key, spec, result}``
    line per trial, flushed per write).

    ``append=False`` truncates at construction — the no-resume
    semantics, where re-run rows must not shadow stale ones.
    """

    kind = "jsonl"

    def __init__(self, path: Union[str, os.PathLike], append: bool = True):
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._append = append
        self._fh = None  # opened lazily so completed() reads pre-truncation
        if not append:
            open(self.path, "w", encoding="utf-8").close()

    def completed(self) -> Dict[str, Any]:
        """Stream the existing file into a key -> result map."""
        from ..api.campaign import _read_sink

        if not self._append or not os.path.exists(self.path):
            return {}
        return {
            key: TrialResult.from_dict(row)
            for key, row in _read_sink(self.path).items()
        }

    def write(self, key: str, spec: Any, result: Any) -> None:
        """Append one JSON line and flush it."""
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps({
            "key": key,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the file handle (if any write opened it)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class SqliteSink(Sink):
    """A :class:`~repro.results.ResultStore` run as a campaign sink.

    Every trial is committed individually (WAL journal), so concurrent
    campaign processes can share one store file and readers can query
    mid-campaign.  ``run_id`` defaults to ``"campaign"`` — a stable id,
    so interrupted campaigns resume into the same run; pass an explicit
    id to keep several campaigns side by side in one store.
    """

    kind = "sqlite"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        append: bool = True,
        run_id: str = "campaign",
        label: Optional[str] = None,
    ):
        from .store import ResultStore

        self.path = os.fspath(path)
        self.run_id = run_id
        self._store = ResultStore(self.path)
        self._store.begin_run(run_id=run_id, label=label)
        if not append:
            self._store._conn.execute(
                "DELETE FROM trials WHERE run_id = ?", (run_id,)
            )
            self._store._conn.commit()
        self._t0 = time.perf_counter()

    @property
    def store(self):
        """The underlying :class:`~repro.results.ResultStore`."""
        return self._store

    def completed(self) -> Dict[str, Any]:
        """Key -> result rows already stored under this run."""
        return self._store.completed(self.run_id)

    def write(self, key: str, spec: Any, result: Any) -> None:
        """Insert-or-replace one trial row (committed immediately)."""
        self._store.write(self.run_id, key, spec.to_dict(), result.to_dict())

    def close(self) -> None:
        """Stamp the run's wall time and close the store."""
        self._store.finish_run(self.run_id, time.perf_counter() - self._t0)
        self._store.close()


def make_sink(
    kind: Union[str, Sink],
    path: Union[str, os.PathLike],
    append: bool = True,
    **kwargs: Any,
) -> Sink:
    """Resolve a sink by kind name (``"jsonl"`` / ``"sqlite"``).

    A :class:`Sink` instance passes through untouched (``path`` and
    ``append`` are then the caller's responsibility).
    """
    if isinstance(kind, Sink):
        return kind
    if kind == "jsonl":
        return JsonlSink(path, append=append, **kwargs)
    if kind == "sqlite":
        return SqliteSink(path, append=append, **kwargs)
    raise ValueError(f"unknown sink kind {kind!r}; known: {SINK_KINDS}")
