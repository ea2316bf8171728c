"""Process states and configurations.

A *configuration* (paper §2) is an instance of the states of all
processes; the *communication configuration* restricts each state to its
communication variables.

:class:`Configuration` stores them **flat and indexed**: one interned
:class:`StateLayout` (variable name → slot) per distinct variable
tuple, and one plain value list (*row*) per process.  The step loop
addresses state as ``row[slot]`` — no nested dicts — while the classic
dict API (:meth:`~Configuration.get` / :meth:`~Configuration.set` /
:meth:`~Configuration.state_of`) is kept as a compatibility view so
protocols, predicates, faults, and the verification/impossibility
modules work unchanged.  Layouts are fixed at construction: a process
cannot grow a new variable.

Configurations are immutable-by-convention with explicit copy helpers
so the simulator can implement the paper's read-from-``γi`` /
write-to-``γi+1`` step semantics safely.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Tuple

from .exceptions import DomainError
from .variables import VariableSpec

ProcessId = Hashable
ProcessState = Dict[str, Any]


class StateLayout:
    """Interned ``variable name -> slot`` table for one variable tuple.

    All processes whose states declare the same variable names (in the
    same order) share a single layout object, so a 10k-process network
    running a uniform protocol carries exactly one name table instead of
    10k per-process dicts.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Tuple[str, ...]):
        self.names = tuple(names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}

    def __repr__(self) -> str:
        return f"StateLayout({self.names!r})"


#: Interned layouts keyed by their name tuple.  Bounded: the variety of
#: layouts is tiny (one per protocol family), but a pathological
#: workload generating unbounded distinct name sets would otherwise
#: leak — so the cache resets past a generous cap.
_LAYOUTS: Dict[Tuple[str, ...], StateLayout] = {}
_LAYOUT_CACHE_CAP = 4096


def _intern_layout(names: Tuple[str, ...]) -> StateLayout:
    layout = _LAYOUTS.get(names)
    if layout is None:
        if len(_LAYOUTS) >= _LAYOUT_CACHE_CAP:
            _LAYOUTS.clear()
        layout = _LAYOUTS[names] = StateLayout(names)
    return layout


class StateView(MutableMapping):
    """Write-through dict view of one process's row.

    What :meth:`Configuration.state_of` returns: reads and writes hit
    the flat row directly, so the view behaves like a mutable
    ``name -> value`` state dict.  The variable set is fixed —
    assigning an undeclared name raises ``KeyError`` and deletion is
    not supported.
    """

    __slots__ = ("_row", "_layout", "_sync")

    def __init__(self, row: List[Any], layout: StateLayout, sync=None):
        self._row = row
        self._layout = layout
        self._sync = sync

    def __getitem__(self, name: str) -> Any:
        if self._sync is not None:
            self._sync()
        return self._row[self._layout.index[name]]

    def __setitem__(self, name: str, value: Any) -> None:
        if self._sync is not None:
            self._sync()
        slot = self._layout.index.get(name)
        if slot is None:
            raise KeyError(
                f"no variable {name!r}; indexed configurations cannot "
                f"grow new variables"
            )
        self._row[slot] = value

    def __delitem__(self, name: str) -> None:
        raise TypeError("configuration variables cannot be deleted")

    def __iter__(self):
        return iter(self._layout.names)

    def __len__(self) -> int:
        return len(self._layout.names)

    def __repr__(self) -> str:
        return repr(dict(self))


class Configuration:
    """States of all processes over flat indexed storage.

    Construction accepts the classic ``pid -> {var_name: value}``
    mapping covering communication variables, internal variables and
    communication constants alike; internally each process keeps one
    value list addressed through an interned :class:`StateLayout`.

    The fast-path accessors (:meth:`row_of`, :meth:`layout_of`,
    :meth:`index_of`) expose the flat representation to the step loop;
    rows are mutated in place and never rebound, so holders of a row
    reference (pooled :class:`~repro.core.context.StepContext` objects)
    stay valid for the configuration's lifetime.  Out-of-band writers
    (fault injection) go through :meth:`set` / :meth:`state_of` and must
    still call ``Simulator.invalidate_enabled`` afterwards.
    """

    __slots__ = ("_pids", "_pindex", "_layouts", "_rows", "_sync")

    def __init__(self, states: Mapping[ProcessId, Mapping[str, Any]]):
        pids: List[ProcessId] = []
        pindex: Dict[ProcessId, int] = {}
        layouts: List[StateLayout] = []
        rows: List[List[Any]] = []
        for p, s in states.items():
            layout = _intern_layout(tuple(s))
            pindex[p] = len(pids)
            pids.append(p)
            layouts.append(layout)
            rows.append([s[name] for name in layout.names])
        self._pids = pids
        self._pindex = pindex
        self._layouts = layouts
        self._rows = rows
        self._sync = None

    @classmethod
    def from_rows(cls, pids, pindex, layouts, rows) -> "Configuration":
        """Adopt prebuilt flat storage without the dict round-trip.

        The bulk construction path (``arbitrary_configuration`` over
        large networks) samples values straight into rows; the lists are
        adopted, not copied, so callers must hand over ownership.
        """
        new = cls.__new__(cls)
        new._pids = list(pids)
        new._pindex = pindex if pindex is not None else {
            p: i for i, p in enumerate(new._pids)
        }
        new._layouts = layouts
        new._rows = rows
        new._sync = None
        return new

    # -- resident-backend hook ------------------------------------------
    def install_sync(self, hook) -> None:
        """Register ``hook`` to run before any row observation.

        Column-resident engines keep pending writes in columns; the hook
        materializes them into the rows so stray scalar reads (traces,
        predicates, faults, direct ``config.get``) never see stale
        state.  ``None`` uninstalls."""
        self._sync = hook

    # -- access (compatibility view) ------------------------------------
    def state_of(self, p: ProcessId) -> StateView:
        """Write-through mapping view of ``p``'s state (callers must not
        abuse; out-of-band writes require engine invalidation)."""
        if self._sync is not None:
            self._sync()
        i = self._pindex[p]
        return StateView(self._rows[i], self._layouts[i], self._sync)

    def get(self, p: ProcessId, var: str) -> Any:
        """The value of variable ``var`` of process ``p``."""
        if self._sync is not None:
            self._sync()
        i = self._pindex[p]
        return self._rows[i][self._layouts[i].index[var]]

    def set(self, p: ProcessId, var: str, value: Any) -> None:
        """Write ``var`` of ``p`` in place (unvalidated; the simulator
        validates domains and, for out-of-band writes, callers must
        invalidate the enabled-set engine)."""
        if self._sync is not None:
            self._sync()
        i = self._pindex[p]
        slot = self._layouts[i].index.get(var)
        if slot is None:
            raise KeyError(
                f"{p!r} has no variable {var!r}; indexed configurations "
                f"cannot grow new variables"
            )
        self._rows[i][slot] = value

    @property
    def processes(self) -> Iterable[ProcessId]:
        """All process ids, in construction order."""
        return tuple(self._pids)

    # -- flat fast path --------------------------------------------------
    def index_of(self, p: ProcessId) -> int:
        """The process index of ``p`` (row number)."""
        return self._pindex[p]

    def row_of(self, p: ProcessId) -> List[Any]:
        """``p``'s value row — mutated in place, never rebound."""
        if self._sync is not None:
            self._sync()
        return self._rows[self._pindex[p]]

    def aligned_storage(self, pids):
        """``(layouts, rows)`` when this configuration's process order
        matches ``pids`` exactly, else ``None`` (bulk build fast path —
        avoids one ``row_of``/``layout_of`` pair per process)."""
        if self._pids != list(pids):
            return None
        if self._sync is not None:
            self._sync()
        return self._layouts, self._rows

    def layout_of(self, p: ProcessId) -> StateLayout:
        """The interned layout addressing ``p``'s row."""
        return self._layouts[self._pindex[p]]

    # -- copies and projections -----------------------------------------
    def copy(self) -> "Configuration":
        """An independent deep-enough copy (rows are new lists; pids and
        layouts are immutable and shared).  Copies are detached
        snapshots: the resident-backend hook is not inherited."""
        if self._sync is not None:
            self._sync()
        new = Configuration.__new__(Configuration)
        new._pids = self._pids
        new._pindex = self._pindex
        new._layouts = self._layouts
        new._rows = [list(row) for row in self._rows]
        new._sync = None
        return new

    def validate(self, specs_of) -> None:
        """Check the configuration holds exactly the processes of
        ``specs_of``, then that every value sits in its declared domain
        (over the flat rows directly, without per-name dict lookups)."""
        pindex = self._pindex
        rows = self._rows
        layouts = self._layouts
        if pindex.keys() != specs_of.keys():
            missing = [p for p in specs_of if p not in pindex]
            extra = [p for p in pindex if p not in specs_of]
            raise DomainError(
                "configuration does not match the network's processes "
                f"(missing: {missing[:5]!r}, extra: {extra[:5]!r})"
            )
        if self._sync is not None:
            self._sync()
        for p, specs in specs_of.items():
            i = pindex[p]
            row = rows[i]
            index = layouts[i].index
            for spec in specs:
                slot = index.get(spec.name)
                if slot is None:
                    raise DomainError(
                        f"{p!r} is missing variable {spec.name!r}"
                    )
                if row[slot] not in spec.domain:
                    raise DomainError(
                        f"value {row[slot]!r} of {spec.name}.{p!r} "
                        f"outside its domain"
                    )

    def comm_projection(
        self, specs_of: Mapping[ProcessId, Tuple[VariableSpec, ...]]
    ) -> Dict[ProcessId, Tuple[Tuple[str, Any], ...]]:
        """The communication configuration (paper §2): neighbor-readable
        variables only, as a hashable canonical form."""
        if self._sync is not None:
            self._sync()
        proj = {}
        for i, p in enumerate(self._pids):
            row = self._rows[i]
            index = self._layouts[i].index
            proj[p] = tuple(
                (spec.name, row[index[spec.name]])
                for spec in specs_of[p]
                if spec.readable_by_neighbors
            )
        return proj

    def comm_state_of(
        self, p: ProcessId, specs: Tuple[VariableSpec, ...]
    ) -> Tuple[Tuple[str, Any], ...]:
        """Communication state of one process, canonical/hashable."""
        if self._sync is not None:
            self._sync()
        i = self._pindex[p]
        row = self._rows[i]
        index = self._layouts[i].index
        return tuple(
            (spec.name, row[index[spec.name]])
            for spec in specs
            if spec.readable_by_neighbors
        )

    # -- equality (full state) -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self is other:
            return True
        return self.as_dict() == other.as_dict()

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return f"Configuration({self.as_dict()!r})"

    def as_dict(self) -> Dict[ProcessId, ProcessState]:
        """Deep-ish copy as plain dicts (values assumed immutable)."""
        if self._sync is not None:
            self._sync()
        return {
            p: dict(zip(self._layouts[i].names, self._rows[i]))
            for i, p in enumerate(self._pids)
        }

