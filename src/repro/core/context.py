"""Step execution context with tracked neighbor reads.

Every communication-efficiency measure in the paper boils down to *which
neighbors a process reads in a step* (Definitions 4, 5, 7–9).  Rather
than trusting a protocol's self-description, the simulator routes every
neighbor access through :class:`StepContext.read`, which

* enforces the locally shared memory rules (only neighbors, only their
  communication variables / constants),
* records the set of ports read during the step (guards *and* effect),
* accounts the information read in bits, per Definition 5.

The context also buffers writes so the simulator can apply the paper's
step semantics: all selected processes read from ``γi`` and their writes
land simultaneously in ``γi+1``.

Hot-path design: a context caches its own row and slot table in the
flat indexed :class:`~repro.core.state.Configuration`, the interned
``name -> spec`` map of its process, and — lazily, per port — the
neighbor's row/slot/bits triple, so repeated reads cost two dict
probes and a list index instead of a spec scan.  Contexts are
meant to be pooled per process and :meth:`reset` between steps
(:class:`StepContextPool`); all cached references stay valid because
configuration rows are mutated in place and never rebound.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, Tuple

from .exceptions import DomainError, IllegalRead, IllegalWrite
from .state import Configuration
from .variables import VariableSpec

ProcessId = Hashable

#: Interned ``name -> (spec, writable, domain, is_comm)`` maps keyed by
#: the spec tuple itself (VariableSpec and the built-in domains are
#: hashable frozen dataclasses).  The precomputed fields spare the hot
#: path two property calls per write.  Bounded like the layout cache in
#: :mod:`repro.core.state`: variety is one entry per protocol family ×
#: degree, but the cache resets past a generous cap so pathological
#: spec churn cannot leak.
_SPEC_MAPS: Dict[Tuple[VariableSpec, ...], Dict[str, tuple]] = {}
_SPEC_MAP_CACHE_CAP = 4096


def _build_spec_map(specs: Tuple[VariableSpec, ...]) -> Dict[str, tuple]:
    return {
        s.name: (s, s.writable, s.domain, s.kind == "comm") for s in specs
    }


def _own_spec_map(specs: Tuple[VariableSpec, ...]) -> Dict[str, tuple]:
    """The interned per-variable table for one process's spec tuple."""
    try:
        spec_map = _SPEC_MAPS.get(specs)
    except TypeError:  # unhashable custom domain — build uncached
        return _build_spec_map(specs)
    if spec_map is None:
        if len(_SPEC_MAPS) >= _SPEC_MAP_CACHE_CAP:
            _SPEC_MAPS.clear()
        spec_map = _SPEC_MAPS[specs] = _build_spec_map(specs)
    return spec_map


class StepContext:
    """Execution context of one process within one step.

    Parameters
    ----------
    pid:
        The executing process.
    network:
        The :class:`~repro.graphs.topology.Network`.
    config:
        The frozen pre-step configuration ``γi`` all reads resolve in.
    specs_of:
        ``pid -> tuple(VariableSpec)`` for every process (owned by the
        simulator, shared between contexts).
    rng:
        Source of randomness for probabilistic actions; ``None`` for
        protocols that must stay deterministic (any use then raises).
    """

    __slots__ = (
        "pid",
        "network",
        "_config",
        "_specs_of",
        "_own_specs",
        "_rng",
        "_row",
        "_slots",
        "_degree",
        "_port_tables",
        "_stamp",
        "ports_read",
        "bits_read",
        "writes",
        "used_randomness",
    )

    def __init__(
        self,
        pid: ProcessId,
        network,
        config: Configuration,
        specs_of: Dict[ProcessId, Tuple[VariableSpec, ...]],
        rng=None,
    ):
        self.pid = pid
        self.network = network
        self._config = config
        self._specs_of = specs_of
        self._own_specs = _own_spec_map(specs_of[pid])
        self._rng = rng
        self._row = config.row_of(pid)
        self._slots = config.layout_of(pid).index
        self._degree = network.degree(pid)
        #: per-port lazy read tables: port -> (neighbor, {name: cell});
        #: a cell is ``[row, slot, bits, stamp]`` — ``stamp`` marks the
        #: step that last charged this register, so repeat reads within
        #: a step (Definition 5: re-reading memory is free) cost one
        #: integer comparison instead of a set probe on a fresh tuple.
        self._port_tables: Dict[int, tuple] = {}
        self._stamp: int = 0

        #: ports whose neighbor was read during this step (guards + effect)
        self.ports_read: Set[int] = set()
        #: total bits of neighbor information read during this step
        #: (Definition 5 counts memory, so re-reading a register is free)
        self.bits_read: float = 0.0
        #: buffered writes ``name -> value`` (applied by the simulator)
        self.writes: Dict[str, Any] = {}
        #: True once the rng was consulted (used by the silence checker)
        self.used_randomness: bool = False

    # ------------------------------------------------------------------
    # Pooling
    # ------------------------------------------------------------------
    def reset(self, rng=None) -> None:
        """Re-arm a pooled context for a fresh step.

        Clears all per-step tracking (reads, bits, buffered writes,
        randomness flag) and installs the step's rng.  The static
        caches — rows, slot tables, per-port read tables — survive:
        they address storage that is mutated in place, so they stay
        valid for the lifetime of the bound configuration.

        :meth:`EnabledSetEngine.execute_step
        <repro.core.engine.EnabledSetEngine.execute_step>` inlines this
        body for its execution pool — a new per-step field cleared here
        must be cleared there too.
        """
        self._rng = rng
        self._stamp += 1
        self.ports_read.clear()
        self.bits_read = 0.0
        self.writes.clear()
        self.used_randomness = False

    # ------------------------------------------------------------------
    # Own state
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """δ.p of the executing process."""
        return self._degree

    def get(self, name: str) -> Any:
        """Read one of the process's own variables.

        Sees this step's pending writes, so statement sequences inside an
        action observe their own earlier assignments.
        """
        writes = self.writes
        if name in writes:
            return writes[name]
        return self._row[self._slots[name]]

    def set(self, name: str, value: Any) -> None:
        """Assign one of the process's own (writable) variables."""
        entry = self._own_specs.get(name)
        if entry is None:
            raise IllegalWrite(f"{self.pid!r} has no variable {name!r}")
        if not entry[1]:
            raise IllegalWrite(f"{name}.{self.pid!r} is a constant")
        if value not in entry[2]:
            raise DomainError(
                f"value {value!r} outside domain of {name}.{self.pid!r}"
            )
        self.writes[name] = value

    # ------------------------------------------------------------------
    # Neighbor reads (the tracked operation)
    # ------------------------------------------------------------------
    def read(self, port: int, name: str) -> Any:
        """Read communication variable ``name`` of the neighbor at ``port``.

        Ports are the paper's local indices ``1 .. δ.p``.  Reading a
        communication *constant* (like the color ``C.q``) is tracked the
        same way — the paper charges those reads too when it argues MIS
        and MATCHING are 1-efficient.
        """
        entry = self._port_tables.get(port)
        if entry is None:
            q = self.network.neighbor_at(self.pid, port)
            entry = self._port_tables[port] = (q, {})
        q, table = entry
        cell = table.get(name)
        if cell is None:
            cell = table[name] = self._resolve_read(q, name)
        stamp = self._stamp
        if cell[3] != stamp:
            # First touch of this register this step: charge its bits
            # and mark the port (a stamped register implies a known port).
            cell[3] = stamp
            self.ports_read.add(port)
            self.bits_read += cell[2]
        return cell[0][cell[1]]

    def _resolve_read(self, q: ProcessId, name: str) -> list:
        """Build (and legality-check) one cached neighbor-read cell."""
        spec = next(
            (s for s in self._specs_of[q] if s.name == name), None
        )
        if spec is None:
            raise IllegalRead(f"neighbor {q!r} has no variable {name!r}")
        if not spec.readable_by_neighbors:
            raise IllegalRead(
                f"{name}.{q!r} is internal and may not be read by {self.pid!r}"
            )
        config = self._config
        # None stamps as "never read": the cell charges on first use.
        return [config.row_of(q), config.layout_of(q).index[name],
                spec.domain.bits, None]

    def advance(self, pointer: str = "cur") -> None:
        """The paper's idiom ``cur.p ← (cur.p mod δ.p) + 1``."""
        self.set(pointer, (self.get(pointer) % self._degree) + 1)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def random_choice(self, domain) -> Any:
        """Draw uniformly from a :class:`Domain` (``random({1..Δ+1})``)."""
        if self._rng is None:
            raise IllegalWrite(
                "protocol attempted a random choice under a deterministic run"
            )
        self.used_randomness = True
        return domain.sample(self._rng)

    def random_int(self, lo: int, hi: int) -> int:
        """Draw a uniform integer in ``[lo, hi]``."""
        if self._rng is None:
            raise IllegalWrite(
                "protocol attempted a random choice under a deterministic run"
            )
        self.used_randomness = True
        return self._rng.randint(lo, hi)

    # ------------------------------------------------------------------
    def comm_writes(self) -> Dict[str, Any]:
        """The subset of buffered writes that target communication variables."""
        return {
            name: value
            for name, value in self.writes.items()
            if self._own_specs[name][3]
        }

    def flush_writes(self) -> bool:
        """Apply the buffered writes to the bound configuration.

        Returns True iff some *communication* variable took a new value
        — exactly the processes the enabled-set engine must hear about
        (only they can flip a neighbor's enabled-status).  The simulator
        calls this for every activated process after the whole selection
        computed against ``γi``, which realises the paper's simultaneous
        write into ``γi+1``.
        """
        writes = self.writes
        if not writes:
            return False
        own = self._own_specs
        changed = False
        row = self._row
        slots = self._slots
        for name, value in writes.items():
            slot = slots[name]
            if row[slot] != value:
                row[slot] = value
                if own[name][3]:
                    changed = True
        return changed


class StepContextPool:
    """Per-process :class:`StepContext` cache for one run.

    One fresh context per activated process per step was the single
    biggest allocation cost of the step loop; the pool instead builds
    each process's context once — precomputed spec maps, cached rows,
    lazily filled per-port read tables — and hands it back after a
    cheap :meth:`StepContext.reset`.

    A pool is a single-run object: it is bound to one
    ``(network, configuration, specs)`` triple, exactly like the
    enabled-set engines, and must be dropped with the run.
    """

    __slots__ = ("_network", "_config", "_specs_of", "_ctxs")

    def __init__(self, network, config, specs_of):
        self._network = network
        self._config = config
        self._specs_of = specs_of
        self._ctxs: Dict[ProcessId, StepContext] = {}

    def acquire(self, pid: ProcessId, rng=None) -> StepContext:
        """A reset context for ``pid`` (built on first acquisition)."""
        ctx = self._ctxs.get(pid)
        if ctx is None:
            ctx = StepContext(
                pid, self._network, self._config, self._specs_of, rng=rng
            )
            self._ctxs[pid] = ctx
            return ctx
        ctx.reset(rng)
        return ctx

    def __len__(self) -> int:
        return len(self._ctxs)
