"""Columnar bridge between configurations and batch kernels.

The flat :class:`~repro.core.state.Configuration` stores one value row
per process addressed through an interned
:class:`~repro.core.state.StateLayout`.  A :class:`ColumnStore` turns
that row-major storage into one *column* per layout slot — the shape a
vectorized guard kernel wants — plus the per-process adjacency and
register-width tables every kernel needs:

* ``col(slot)`` — one integer column per variable, in canonical
  network-process order, holding *encoded* values as the run's
  :class:`~repro.core.state.SlotTable` codes them (integers pass
  through; finite-set values are mapped to their index in the domain's
  value tuple, so ``Dominator``/``dominated`` and ``False``/``True``
  become ``0``/``1``);
* ``start`` / ``flat`` / ``deg`` — the network's adjacency in CSR
  ("compressed sparse row") form: its index-space port tables
  (:meth:`Network.port_arrays`, wrapped without a copy), so the
  neighbor behind port ``k`` of process ``i`` is
  ``flat[start[i] + k - 1]`` (:meth:`ColumnStore.neighbor_at`) and
  ``deg`` is ``np.diff(start)``;
* ``edges`` — every undirected edge once, as two index arrays
  ``(u, v)`` with ``u < v``: whole-network verdicts (the columnar
  silence and legitimacy checks) are one reduction over them;
* ``reg_bits(name)`` — per-process register widths in bits (the
  table's), gathered by neighbor index to charge reads exactly like
  :class:`~repro.core.context.StepContext` does.

Columns are NumPy arrays (``int64`` state, ``float64`` widths), and
kernels index them directly through the store's :attr:`ColumnStore.np`
module.  NumPy is resolved on every :meth:`ColumnStore.try_build`, never
cached, so a test can block the import for a single store; without it
there is no store and the batch engine binds a scalar engine instead.

The columns are the live state: :meth:`ColumnStore.write` and
:meth:`ColumnStore.write_col` land in the columns only and record the
touched slots in ``_dirty_slots``.  Rows are refreshed only by an explicit
:meth:`materialize` call at observation boundaries (traces, scenario
hooks, silence predicates, direct configuration reads — the
``Configuration`` sync hook routes all of those here), so every
consumer of the configuration still observes exactly the state a
scalar step would have produced.  The two staleness directions are
mutually exclusive by construction: while columns are dirty,
:meth:`pull`/:meth:`pull_all` refuse to run, so a row-ahead and a
column-ahead view can never silently merge.

A store built on a configuration that still holds the columns drawn
for the run's own spec map (:class:`~repro.core.state.DrawnColumns`,
what ``Protocol.arbitrary_configuration`` returns) adopts them as its
columns, under the table they were drawn with: no row is built at
bind, and the first observation decodes the drawn rows and then the
dirty slots on top of them.  Any other configuration is read row by
row, its slots matched to the table by variable name.

A store is only *supported* when NumPy imports and the run's slot
table has no ``refusal`` (one layout shared by every process, each
slot an integer range or a coded finite set);
:meth:`ColumnStore.try_build` returns ``None`` otherwise and the batch
engine binds a scalar engine instead.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from ..obs.registry import TELEMETRY
from .exceptions import ModelError
from .state import SlotTable
from .variables import spec_plans

ProcessId = Hashable


def _load_numpy():
    """NumPy, or None when unavailable (resolved per call, never cached,
    so tests can block the import for a single store)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class ColumnStore:
    """Columnar mirror of one flat configuration over one network."""

    __slots__ = (
        "np",
        "n",
        "pids",
        "pindex",
        "layout",
        "_config",
        "_rows",
        "codecs",
        "cols",
        "start",
        "flat",
        "deg",
        "edges",
        "all_idx",
        "_dirty_slots",
        "table",
        "_plan_ids",
        "_bits_cols",
    )

    def __init__(self, np, pids, pindex, layout, config, rows, table,
                 plan_ids, start, flat, cols=None):
        #: the NumPy module the columns are built with
        self.np = np
        self.n = len(pids)
        self.pids = pids
        self.pindex = pindex
        self.layout = layout
        self._config = config
        #: the rows in canonical order (None until the configuration's
        #: drawn columns are first decoded)
        self._rows = rows
        #: the run's :class:`~repro.core.state.SlotTable`
        self.table = table
        #: each slot's value tuple (coded) or None, found in the table
        #: by variable name
        self.codecs = [table.codecs[table.layout.index[name]]
                       for name in layout.names]
        self._plan_ids = plan_ids
        self._bits_cols: Dict[str, Any] = {}
        self.start = start
        self.flat = flat
        self.deg = np.diff(start)
        self.all_idx = np.arange(self.n, dtype=np.int64)
        # Each edge appears once from each end; keep the u < v copy.
        owner = np.repeat(self.all_idx, self.deg)
        lower = owner < flat
        self.edges = (owner[lower], flat[lower])
        self._dirty_slots: set = set()
        if cols is None:
            self.cols: List[Any] = [None] * len(layout.names)
            self.pull_all()
        else:
            self.cols = cols

    # ------------------------------------------------------------------
    @classmethod
    def try_build(cls, network, config, specs_of) -> Optional["ColumnStore"]:
        """A store for this run, or ``None`` when unsupported.

        Unsupported cases (the batch engine then binds a scalar
        engine): NumPy not importable, a slot table with a refusal
        (processes declaring differing layouts, or a domain neither an
        integer range nor a coded finite set), and a configuration
        whose processes do not share one layout of the table's
        variables.

        Columns drawn for ``specs_of`` are adopted as they are, with
        the table they were drawn under; any other configuration is
        read row by row, its slots mapped onto the table by variable
        name (a configuration loaded from JSON orders them by name).
        """
        np = _load_numpy()
        if np is None:
            return None
        pids = network.processes
        pindex = network.process_index()
        # The network's index-space port tables, wrapped without a copy.
        start, flat = (np.frombuffer(a, dtype=np.int64)
                       for a in network.port_arrays())
        if not len(flat):
            return None
        drawn = config.drawn_columns(pindex)
        if drawn is not None and drawn.specs_of is specs_of:
            table, plan_ids = drawn.table, drawn.plan_ids
        else:
            drawn = None
            plans, plan_ids = spec_plans(specs_of, pids)
            table = SlotTable(plans)
        if table.refusal is not None:
            return None
        cols = rows = None
        if drawn is not None:
            layout = table.layout
            cols = [np.asarray(col, dtype=np.int64) for col in drawn.data]
        else:
            aligned = config.aligned_storage(pids)
            if aligned is not None:
                layouts, rows = aligned
                rows = list(rows)
            else:
                layouts = [config.layout_of(p) for p in pids]
                rows = [config.row_of(p) for p in pids]
            layout = layouts[0]
            if (any(other is not layout for other in layouts)
                    or layout.index.keys() != table.layout.index.keys()):
                return None
        return cls(np, pids, pindex, layout, config, rows, table, plan_ids,
                   start, flat, cols)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def slot(self, name: str) -> int:
        """The column index of register ``name`` in the shared layout."""
        return self.layout.index[name]

    def col(self, slot: int):
        """The ``int64`` column (codes, one entry per process) for
        ``slot``."""
        return self.cols[slot]

    def gather(self, col, idx):
        """``col[idx]`` as a fresh array; for the whole network in
        canonical order (``idx is all_idx``) a plain copy, not a
        gather."""
        return col.copy() if idx is self.all_idx else col[idx]

    def port_pos(self, idx, ports):
        """Where port ``ports[j]`` of process ``idx[j]`` sits in
        ``flat``: ``start[i] + port - 1``.  A null port ``0`` lands on
        the entry before ``i``'s first port (the previous process's
        last, or the last entry of ``flat`` for ``i = 0``), so callers
        mask it out."""
        first = self.start[:-1] if idx is self.all_idx else self.start[idx]
        return first + ports - 1

    def neighbor_at(self, idx, ports):
        """The index of the neighbor behind port ``ports[j]`` of process
        ``idx[j]`` (see :meth:`port_pos` for a null port)."""
        return self.flat[self.port_pos(idx, ports)]

    def encode(self, slot: int, value) -> int:
        """The column code of one row value (for kernel constants)."""
        values = self.codecs[slot]
        return value if values is None else values.index(value)

    def reg_bits(self, name: str):
        """Per-process register width of ``name`` in bits, as a float
        column indexed like every other column (gather by neighbor
        index to charge a read)."""
        col = self._bits_cols.get(name)
        if col is None:
            np = self.np
            k = self.table.layout.index[name]
            widths = [bits[k] for bits in self.table.bits]
            if len(set(widths)) == 1:
                col = np.full(self.n, widths[0], dtype=np.float64)
            else:
                col = np.asarray(widths, dtype=np.float64)[
                    np.asarray(self._plan_ids, dtype=np.intp)]
            self._bits_cols[name] = col
        return col

    @property
    def rows(self) -> List[List[Any]]:
        """The configuration's rows in canonical order (decoded from
        its drawn columns on first use)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._config.row_storage()
        return rows

    # ------------------------------------------------------------------
    # Row <-> column synchronization
    # ------------------------------------------------------------------
    def pull_all(self) -> None:
        """Re-read every row into the columns (bind / full distrust)."""
        if self._dirty_slots:
            raise ModelError(
                "pull_all() with undecoded resident columns; "
                "materialize() first"
            )
        rows = self.rows
        for k, values in enumerate(self.codecs):
            data = [row[k] for row in rows]
            if values is not None:
                enc = {v: i for i, v in enumerate(values)}
                data = list(map(enc.__getitem__, data))
            self.cols[k] = self.np.asarray(data, dtype=self.np.int64)

    def pull(self, indices) -> None:
        """Re-read the rows of ``indices`` (out-of-band writes: faults,
        adversarial resets, scalar steps interleaved with batch ones)."""
        if self._dirty_slots:
            raise ModelError(
                "pull() with undecoded resident columns; "
                "materialize() first"
            )
        rows = self.rows
        for k, values in enumerate(self.codecs):
            col = self.cols[k]
            if values is None:
                for i in indices:
                    col[i] = rows[i][k]
            else:
                enc = {v: i for i, v in enumerate(values)}
                for i in indices:
                    col[i] = enc[rows[i][k]]

    def write(self, slot: int, indices: list, codes: list) -> None:
        """Apply one slot's batch of writes to the column; the rows stay
        stale until :meth:`materialize` decodes them."""
        self.cols[slot][indices] = codes
        self._dirty_slots.add(slot)

    def write_col(self, slot: int, codes) -> None:
        """Replace one slot's whole column (the rows stay stale until
        :meth:`materialize` decodes them)."""
        self.cols[slot] = codes
        self._dirty_slots.add(slot)

    @property
    def dirty(self) -> bool:
        """True while the columns hold writes not yet decoded."""
        return bool(self._dirty_slots)

    def materialize(self) -> None:
        """Decode every dirty column back into the live rows (the
        observation boundary).  Idempotent and cheap when nothing is
        dirty.  A coded slot decodes by indexing its value tuple, which
        restores the declared objects (real bools, strings), so the
        rows read as scalar writes left them (JSON types matter for
        byte-identical traces)."""
        if not self._dirty_slots:
            return
        if TELEMETRY.enabled:
            # Decode events are the columnar engine's cost center: the
            # whole point of column residency is keeping this count low.
            TELEMETRY.counter("columns.materializations").inc()
            TELEMETRY.counter("columns.materialized_slots").inc(
                len(self._dirty_slots))
        rows = self.rows
        for k in sorted(self._dirty_slots):
            values = self.codecs[k]
            data = self.cols[k].tolist()
            if values is not None:
                data = map(values.__getitem__, data)
            for row, v in zip(rows, data):
                row[k] = v
        self._dirty_slots.clear()

    def __repr__(self) -> str:
        return f"ColumnStore(n={self.n}, vars={self.layout.names!r})"
