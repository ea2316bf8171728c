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

How a run holds each slot — value indices into a finite set's values,
or the values themselves — and how wide each register is are decided
once, by the :class:`SlotTable` read off the run's distinct spec
tuples; the draw, the drawn columns' range check and the column store
all read it.  A configuration drawn by
:meth:`~repro.core.protocol.Protocol.arbitrary_configuration` is born
columnar: it holds its :class:`DrawnColumns` — one list per layout
slot — and decodes its rows only when something first reads one, so a
run that never reads a row (a fused columnar trial) never builds one.

Configurations are immutable-by-convention with explicit copy helpers
so the simulator can implement the paper's read-from-``γi`` /
write-to-``γi+1`` step semantics safely.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from operator import contains, le
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..obs.registry import TELEMETRY
from .exceptions import DomainError
from .variables import FiniteSet, IntRange, VariableSpec

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


def _outside(value, name, p) -> DomainError:
    """The row check's error for ``value`` of ``name`` at process ``p``."""
    return DomainError(f"value {value!r} of {name}.{p!r} outside its domain")


class SlotTable:
    """How a run holds its state, read once off ``spec_plans``' plans.

    Per plan: ``layouts`` (its interned layout), ``const`` (which slots
    are constants) and ``bits`` (each register's width).  ``layout`` is
    the layout every plan shares, each slot a constant in all or none of
    them, else None.  ``codecs[k]`` is the value tuple of a finite set
    every plan declares for slot ``k`` of ``layout`` with the same values
    of the same types, no two of them equal (``1`` and ``True`` would
    share an index), and the slot holds indices into it, drawn and
    constant values alike; else None, and it holds the values (None
    throughout when no layout is shared).  ``refusal`` is None when a
    column store can hold every slot (each coded or an integer range),
    else why it cannot.
    """

    __slots__ = ("plans", "layouts", "const", "bits", "layout", "codecs",
                 "refusal")

    def __init__(self, plans):
        self.plans = plans
        self.layouts = [_intern_layout(tuple(spec.name for spec in specs))
                        for specs in plans]
        self.const = [tuple(spec.kind == "const" for spec in specs)
                      for specs in plans]
        self.bits = [[spec.domain.bits for spec in specs] for specs in plans]
        shared = (self.layouts.count(self.layouts[0]) == len(plans)
                  and self.const.count(self.const[0]) == len(plans))
        self.layout = self.layouts[0] if shared else None
        self.codecs = [] if shared else [None] * max(map(len, plans))
        self.refusal = None if shared else "non-uniform layout"
        for slot in zip(*plans) if shared else ():
            domains = [spec.domain for spec in slot]
            coded = (all(type(d) is FiniteSet for d in domains)
                     and domains.count(domains[0]) == len(domains)
                     and len(set(domains[0])) == len(domains[0]))
            self.codecs.append(domains[0].values if coded else None)
            if not coded and any(type(d) is not IntRange for d in domains):
                self.refusal = "unsupported domain"

    def code_constants(self, data, pids) -> None:
        """Turn the constant columns of ``data`` that are coded into
        value indices.  A constant outside its set has no index: the
        first one, in process order, is refused with the row check's
        message."""
        coded = [k for k, values in enumerate(self.codecs)
                 if values is not None and self.const[0][k]]
        domains = [self.plans[0][k].domain for k in coded]
        if not all(all(map(d.__contains__, data[k]))
                   for k, d in zip(coded, domains)):
            for i, p in enumerate(pids):
                for k, domain in zip(coded, domains):
                    if data[k][i] not in domain:
                        raise _outside(data[k][i], self.layout.names[k], p)
        for k in coded:
            index = {v: i for i, v in enumerate(self.codecs[k])}
            data[k] = list(map(index.__getitem__, data[k]))


class DrawnColumns:
    """A drawn start configuration, one list per layout slot.

    What :meth:`Protocol.arbitrary_configuration
    <repro.core.protocol.Protocol.arbitrary_configuration>` draws, and
    what a :class:`Configuration` holds until a row is first read:
    ``data[k]`` is slot ``k`` of ``table``'s shared layout over the
    processes in network order, held as the table's ``codecs[k]``
    says; ``plan_ids`` gives each process's plan in ``table``, and
    ``specs_of`` is the spec map the columns were drawn for.
    """

    __slots__ = ("table", "plan_ids", "data", "specs_of")

    def __init__(self, table, plan_ids, data, specs_of):
        self.table = table
        self.plan_ids = plan_ids
        self.data = data
        self.specs_of = specs_of

    def check(self, pids) -> None:
        """Raise :class:`DomainError` unless every value lies in its
        process's domain (the row check's message, for the first such
        value in process order).

        One range check per slot: a slot of real ints whose domains are
        integer ranges (a finite set's value indices among them) is
        compared with the bounds of each process's spec tuple — one
        ``min``/``max`` pass when every tuple shares the bounds, else a
        C-level ``map`` over the processes.  Any other slot checks every
        value for membership.
        """
        plans = self.table.plans
        for k, (col, values) in enumerate(zip(self.data, self.table.codecs)):
            domains = [specs[k].domain for specs in plans]
            if values is not None:
                bounds = [(0, len(values) - 1)]
            elif all(type(d) is IntRange for d in domains):
                bounds = [(d.lo, d.hi) for d in domains]
            else:
                bounds = None
            if bounds is not None and set(map(type, col)) == {int}:
                ok = self._in_bounds(col, bounds)
            elif values is None:
                ok = all(map(contains, map(domains.__getitem__,
                                           self.plan_ids), col))
            else:
                ok = False
            if not ok:
                self._raise_first_bad(pids)

    def _in_bounds(self, col, bounds) -> bool:
        if len(set(bounds)) == 1:
            lo, hi = bounds[0]
            return lo <= min(col) and max(col) <= hi
        los, his = zip(*bounds)
        ids = self.plan_ids
        return (all(map(le, map(los.__getitem__, ids), col))
                and all(map(le, col, map(his.__getitem__, ids))))

    def _raise_first_bad(self, pids) -> None:
        """The row check's error for the first out-of-domain value."""
        table = self.table
        for i, q in enumerate(self.plan_ids):
            for k, spec in enumerate(table.plans[q]):
                value = self.data[k][i]
                values = table.codecs[k]
                if values is not None:
                    value = (values[value] if type(value) is int
                             and 0 <= value < len(values)
                             else f"<index {value}>")
                if value not in spec.domain:
                    raise _outside(value, table.layout.names[k], pids[i])


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

    A configuration built by :meth:`from_columns` has no rows until the
    first observation decodes its :class:`DrawnColumns` (counted as a
    ``columns.materializations`` telemetry event).
    """

    __slots__ = ("_pids", "_pindex", "_layouts", "_rows", "_sync",
                 "_hook", "_drawn")

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
        self._sync = self._hook = self._drawn = None

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
        new._sync = new._hook = new._drawn = None
        return new

    @classmethod
    def from_columns(cls, pids, pindex, drawn: DrawnColumns
                     ) -> "Configuration":
        """Adopt a drawn configuration without building its rows.

        ``pids`` and ``pindex`` give the processes in the order of
        ``drawn``'s columns; the rows are decoded from ``drawn`` on the
        first observation.
        """
        new = cls.__new__(cls)
        new._pids = pids
        new._pindex = pindex
        new._layouts = [drawn.table.layout] * len(pids)
        new._rows = None
        new._hook = None
        new._drawn = drawn
        new._sync = new._sync_drawn
        return new

    # -- resident-backend hook ------------------------------------------
    def install_sync(self, hook) -> None:
        """Register ``hook`` to run before any row observation.

        Column-resident engines keep pending writes in columns; the hook
        materializes them into the rows so stray scalar reads (traces,
        predicates, faults, direct ``config.get``) never see stale
        state.  ``None`` uninstalls.  On a configuration whose rows are
        not decoded yet, the first observation decodes them, then runs
        the hook."""
        self._hook = hook
        self._sync = hook if self._drawn is None else self._sync_drawn

    def _sync_drawn(self) -> None:
        self._decode_drawn()
        if self._hook is not None:
            self._hook()

    def _decode_drawn(self) -> None:
        """Build the rows from the drawn columns (once)."""
        drawn = self._drawn
        cols = [col if values is None else list(map(values.__getitem__, col))
                for col, values in zip(drawn.data, drawn.table.codecs)]
        self._rows = list(map(list, zip(*cols)))
        self._drawn = None
        self._sync = self._hook
        if TELEMETRY.enabled:
            TELEMETRY.counter("columns.materializations").inc()
            TELEMETRY.counter("columns.materialized_slots").inc(len(cols))

    def drawn_columns(self, pindex) -> Optional[DrawnColumns]:
        """The drawn columns while no row is decoded yet and the process
        order is ``pindex``'s (the same map object), else None."""
        if self._drawn is not None and self._pindex is pindex:
            return self._drawn
        return None

    def drawn_from(self, specs_of) -> bool:
        """Whether this configuration still holds the columns drawn for
        exactly ``specs_of`` (the same map object, every process) and
        they are its state: no engine has adopted them, so no write can
        have moved past them."""
        drawn = self._drawn
        return (drawn is not None and self._hook is None
                and drawn.specs_of is specs_of
                and len(specs_of) == len(self._pids))

    def row_storage(self) -> List[List[Any]]:
        """The live rows in process order, decoded if need be, without
        running the sync hook (the column store's own access)."""
        if self._drawn is not None:
            self._decode_drawn()
        return self._rows

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
        if tuple(self._pids) != tuple(pids):
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
        new._sync = new._hook = new._drawn = None
        return new

    def validate(self, specs_of) -> None:
        """Check the configuration holds exactly the processes of
        ``specs_of``, then that every value sits in its declared domain
        (over the flat rows directly, without per-name dict lookups).
        Columns drawn for this very spec map, and not yet adopted by an
        engine, take :meth:`DrawnColumns.check` instead, and stay
        undecoded."""
        if self.drawn_from(specs_of):
            self._drawn.check(self._pids)
            return
        pindex = self._pindex
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
        rows = self._rows
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
                    raise _outside(row[slot], spec.name, p)

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

