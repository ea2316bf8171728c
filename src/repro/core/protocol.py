"""The :class:`Protocol` abstract base.

A protocol (paper §2) is a collection of local algorithms, one per
process.  All protocols in the paper are *uniform* — every process runs
the same code, parameterised by its degree and (for MIS / MATCHING) a
communication constant color — so a single object describes the whole
collection: per-process variable declarations plus one prioritised
action list.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from itertools import chain, islice
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..obs.registry import TELEMETRY
from .actions import Actions
from .rngstreams import draws_in_bulk, randbelow_run, word_try
from .state import Configuration, DrawnColumns, SlotTable
from .variables import IntRange, VariableSpec, spec_plans

ProcessId = Hashable


def _draw_step(spec: VariableSpec, rng, coded):
    """``(draw, args)`` for one drawn spec: the drawn value is
    ``draw(*args)``, the very call the domain's ``sample`` makes (an
    index into ``coded`` when the slot keeps value indices)."""
    dom = spec.domain
    if coded is not None:
        return rng.randrange, (len(coded),)
    if type(dom) is IntRange:
        return rng.randint, (dom.lo, dom.hi)
    return dom.sample, (rng,)


def _word_tries(specs, codecs) -> Optional[Tuple[Any, ...]]:
    """The :func:`~repro.core.rngstreams.word_try` of each drawn slot of
    one spec tuple, or None when a slot draws any other way: an integer
    range ``randint(lo, hi)`` is ``lo + _randbelow(hi - lo + 1)``, a
    coded finite set ``randrange(len(values))`` is
    ``_randbelow(len(values))``, each for fewer than 2**32 values."""
    tries = []
    for k, spec in enumerate(specs):
        if spec.kind == "const":
            continue
        dom = spec.domain
        if codecs[k] is not None:
            size, offset = len(codecs[k]), 0
        elif (type(dom) is IntRange and type(dom.lo) is int
              and type(dom.hi) is int):
            size, offset = dom.hi - dom.lo + 1, dom.lo
        else:
            return None
        if size >= 1 << 32:
            return None
        tries.append(word_try(size, offset))
    return tuple(tries)


def _draw(rng, table, plan_ids) -> List[Any]:
    """Every drawn (non-constant) value, per process, per spec, in
    declaration order (an index into ``table.codecs[k]`` for a coded
    slot ``k``).

    When ``rng`` draws in bulk and every drawn slot is an integer range
    or coded, one :func:`~repro.core.rngstreams.randbelow_run` draws
    them all.
    Otherwise each value is its own call (:func:`_draw_step`), which is
    the oracle the bulk run must match, values and generator state.
    """
    plans, codecs = table.plans, table.codecs
    bulk = draws_in_bulk(rng)
    if bulk:
        tries = [_word_tries(specs, codecs) for specs in plans]
        bulk = None not in tries
    if bulk:
        values = randbelow_run(
            rng, list(chain.from_iterable(map(tries.__getitem__, plan_ids))))
    else:
        steps = [[_draw_step(spec, rng, codecs[k])
                  for k, spec in enumerate(specs) if spec.kind != "const"]
                 for specs in plans]
        values = [draw(*args) for q in plan_ids for draw, args in steps[q]]
    if TELEMETRY.enabled:
        path = "bulk" if bulk else "per_value"
        TELEMETRY.counter("config.draws", path=path).inc(len(values))
    return values


class Protocol(ABC):
    """Abstract self-stabilizing protocol in the locally shared memory model.

    Subclasses declare, per process, the communication variables,
    internal variables and communication constants (:meth:`variables`),
    and provide one prioritised tuple of guarded actions
    (:meth:`actions`).  The legitimacy predicate the protocol stabilizes
    to is exposed via :meth:`is_legitimate` so the simulator and the
    benchmark harness can measure stabilization uniformly.

    A guard reads its process's own variables and its neighbors'
    communication variables, and nothing else
    (:class:`~repro.core.context.StepContext` serves no other read).
    The enabled-set engines rely on that locality to decide which
    guards a step can flip; a protocol declares nothing for it.
    """

    #: short name used in traces, tables and benchmark output
    name: str = "protocol"

    #: True when some action consults the rng (COLORING); deterministic
    #: protocols keep this False so runs are replayable bit-for-bit.
    randomized: bool = False

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @abstractmethod
    def variables(self, network, p: ProcessId) -> Tuple[VariableSpec, ...]:
        """All variable declarations of process ``p`` (consts included)."""

    @abstractmethod
    def actions(self) -> Actions:
        """The guarded actions, highest priority first."""

    def constant_values(self, network, p: ProcessId) -> Dict[str, Any]:
        """Values of ``p``'s communication constants (default: none)."""
        return {}

    def constant_column(self, network, name: str, processes) -> List[Any]:
        """Constant ``name`` of each of ``processes``, in order: what
        :meth:`arbitrary_configuration` copies into a constant slot.
        By default one :meth:`constant_values` call per process; a
        protocol keeping its constants in a table reads them from it."""
        return [self.constant_values(network, p)[name] for p in processes]

    # ------------------------------------------------------------------
    # Legitimacy
    # ------------------------------------------------------------------
    @abstractmethod
    def is_legitimate(self, network, config: Configuration) -> bool:
        """The predicate this protocol stabilizes to."""

    # ------------------------------------------------------------------
    # Initial configurations
    # ------------------------------------------------------------------
    def arbitrary_configuration(
        self, network, rng: Optional[random.Random] = None, specs_of=None
    ) -> Configuration:
        """A uniformly random configuration — the model of a transient
        fault that corrupted every variable (self-stabilization starts
        from *any* configuration, so tests draw many of these).

        ``specs_of`` is the run's spec map (built here when omitted).
        The values are drawn per process, per spec, in declaration
        order: ``rng.randint(lo, hi)`` for an integer range, a value's
        index ``rng.randrange(len(values))`` for a finite set the run's
        :class:`~repro.core.state.SlotTable` codes (else its
        ``sample``, which makes that same call), and
        ``domain.sample(rng)`` for any other domain, while constants
        take :meth:`constant_column` and draw nothing.  A plain
        :class:`random.Random` draws every value of a start made only of
        integer ranges and coded finite sets in one exact bulk run
        (:func:`~repro.core.rngstreams.randbelow_run`): the same values,
        and the generator left where the per-value calls leave it.  Any
        other generator or domain is called once per value.  Draw steps
        are resolved once per distinct spec tuple.  When the table has
        one shared layout the values land straight in one list per slot
        (:class:`~repro.core.state.DrawnColumns`), held as the table
        codes them, and the rows are decoded only when something first
        reads one; a coded constant outside its set is refused here.
        """
        rng = rng or random.Random()
        if specs_of is None:
            specs_of = self.specs_of(network)
        pids = network.processes
        plans, plan_ids = spec_plans(specs_of, pids)
        table = SlotTable(plans)
        flat = _draw(rng, table, plan_ids)
        pindex = network.process_index()
        if table.layout is not None:
            const = table.const[0]
            slots = [k for k, is_const in enumerate(const) if not is_const]
            data = [None] * len(const)
            for j, k in enumerate(slots):
                data[k] = flat[j::len(slots)]
            for k, name in enumerate(table.layout.names):
                if const[k]:
                    data[k] = self.constant_column(network, name, pids)
            table.code_constants(data, pids)
            drawn = DrawnColumns(table, plan_ids, data, specs_of)
            return Configuration.from_columns(pids, pindex, drawn)
        values = iter(flat)
        rows = []
        for p, q in zip(pids, plan_ids):
            names, const = table.layouts[q].names, table.const[q]
            if any(const):
                consts = self.constant_values(network, p)
                rows.append([consts[name] if is_const else next(values)
                             for name, is_const in zip(names, const)])
            else:
                rows.append(list(islice(values, len(names))))
        return Configuration.from_rows(
            pids, pindex, [table.layouts[q] for q in plan_ids], rows)

    def specs_of(self, network) -> Dict[ProcessId, Tuple[VariableSpec, ...]]:
        """Variable declarations for every process, keyed by pid."""
        return {p: self.variables(network, p) for p in network.processes}

    # ------------------------------------------------------------------
    def validate_configuration(
        self, network, config: Configuration, specs_of=None
    ) -> None:
        """Raise :class:`DomainError` unless every value is in-domain and
        every constant carries its declared value.  Callers that already
        hold the run's spec map pass it via ``specs_of`` to skip one
        full :meth:`specs_of` rebuild.  A configuration still holding
        the columns drawn for that very map takes one range check per
        slot (its constants are :meth:`constant_column`'s own); any
        other is checked row by row."""
        if specs_of is None:
            specs_of = self.specs_of(network)
        drawn = config.drawn_from(specs_of)
        config.validate(specs_of)
        if drawn:
            return
        for p in network.processes:
            for name, value in self.constant_values(network, p).items():
                actual = config.get(p, name)
                if actual != value:
                    from .exceptions import DomainError

                    raise DomainError(
                        f"constant {name}.{p!r} holds {actual!r}, "
                        f"expected {value!r}"
                    )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
