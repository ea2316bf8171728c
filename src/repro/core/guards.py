"""Guard forms: a protocol's guarded actions as data, compiled to
straight-line cascades for the scalar engines.

A :class:`GuardForm` states a protocol's actions (paper §2) in a small
language:

* reads — the process's own variables (:class:`Own`), variable ``name``
  of the neighbor behind the form's pointer (:class:`Nbr`, a charged
  read), and the back-port test ``name.(ptr.p) = p``
  (:class:`PointsBack`, which charges the read of ``name``);
* expressions — literals (:class:`Lit`), ``=``, ``≠``, ``<``
  (:class:`Eq`, :class:`Ne`, :class:`Lt`) and short-circuit
  :class:`And` / :class:`Or` / :class:`Not`, with Python's truthiness
  and value semantics;
* effects — assignment (:class:`Assign`), the pointer rotation
  ``ptr ← (ptr mod δ.p) + 1`` (:class:`Rotate`) and a draw from a
  domain the protocol holds (:class:`Draw`).

The form is the model; :class:`~repro.core.context.StepContext` running
the protocol's ``actions()`` is the reference simulator, and
:func:`bind_cascade` the fast one.  The compiler emits one Python
source per form (and layout): a decision tree over the form's tests in
which every path knows which registers it has charged, so a step
charges each register on its first touch, in the order the reference
touches it, with no bookkeeping at run time.  The source is exec'd once
and cached, the way :mod:`dataclasses` builds ``__init__``; each run
calls the resulting factory with its rows, the network's port arrays
and per-register bit and domain tables, and gets three closures back:

* ``step(selected, rng) -> (results, pend)`` — each selected process's
  ``(pid, ports, bits, rule)`` in selection order and its planned
  writes ``(row, slot, value, pid-or-None)`` (the pid marks a
  communication variable), none applied;
* ``probe(pid) -> bool`` — whether some guard holds;
* ``walk(pid)`` — :func:`~repro.core.silence.process_quiescence_witness`
  over the same rows: the witness, or None.

Variable names and the form's literals reach the source only as slot
indices and bound parameters.  A write is domain-checked as ``StepContext.set``
checks it unless the compiler proves the value in the domain: a literal
(checked against every spec tuple when a run binds) or the rotation
(the pointer's domain must hold ``1 .. δ.p`` at every process).  A run
whose rows do not share one layout, or whose spec tuples break one of
these premises, binds no cascade and runs the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import le, sub
from typing import Any, Dict, Optional, Tuple, Type

from .exceptions import DomainError, IllegalWrite
from .silence import QuiescenceWitness
from .variables import IntRange, spec_plans


# ----------------------------------------------------------------------
# The form
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Own:
    """``name.p``: one of the process's own variables.  In an effect it
    sees the values the effect's earlier assignments left."""

    name: str


@dataclass(frozen=True)
class Nbr:
    """``name.(ptr.p)``: variable ``name`` of the neighbor behind the
    form's pointer (a charged read)."""

    name: str


@dataclass(frozen=True)
class PointsBack:
    """``name.(ptr.p) = p``: the neighbor's pointer ``name`` leads back
    across the shared edge (0 is the null pointer).  Charges the read
    of ``name``; the port lookup at the neighbor is free."""

    name: str


@dataclass(frozen=True)
class Lit:
    """A literal value, bound into the cascade as a parameter."""

    value: Any

    def key(self):
        """What tells two literals apart: ``1`` is not ``True``."""
        return (type(self.value), self.value)


@dataclass(frozen=True)
class Eq:
    """``left = right``."""

    left: Any
    right: Any


@dataclass(frozen=True)
class Ne:
    """``left ≠ right``."""

    left: Any
    right: Any


@dataclass(frozen=True)
class Lt:
    """``left < right`` (the colors' order ``≺``)."""

    left: Any
    right: Any


class _Terms:
    """A short-circuit connective over ``terms``, in order."""

    __slots__ = ("terms",)

    def __init__(self, *terms):
        if not terms:
            raise ValueError(f"{type(self).__name__} needs a term")
        self.terms = terms

    def __eq__(self, other):
        return type(other) is type(self) and other.terms == self.terms

    def __hash__(self):
        return hash((type(self), self.terms))

    def __repr__(self):
        return f"{type(self).__name__}{self.terms!r}"


class And(_Terms):
    """``t1 ∧ t2 ∧ …``: Python's ``and`` (the first falsy term's value,
    else the last term's)."""


class Or(_Terms):
    """``t1 ∨ t2 ∨ …``: Python's ``or``."""


@dataclass(frozen=True)
class Not:
    """``¬term``."""

    term: Any


@dataclass(frozen=True)
class Assign:
    """``name.p ← value``."""

    name: str
    value: Any


@dataclass(frozen=True)
class Rotate:
    """``ptr.p ← (ptr.p mod δ.p) + 1`` on the form's pointer."""


@dataclass(frozen=True)
class Draw:
    """``name.p ← random(domain)``, ``domain`` being the protocol
    attribute of that name, read at each draw; draws
    ``domain.sample(rng)``."""

    name: str
    domain: str


@dataclass(frozen=True)
class Rule:
    """One ``⟨guard⟩ → ⟨effects⟩`` action, named as in ``actions()``."""

    name: str
    guard: Any
    effects: Tuple[Any, ...]


@dataclass(frozen=True)
class GuardForm:
    """A protocol's actions in priority order, reading neighbors behind
    the own variable ``pointer`` only."""

    pointer: str
    rules: Tuple[Rule, ...]


class GuardFormError(ValueError):
    """A form the compiler cannot express faithfully."""


#: Guard forms per protocol class (exact class match, as
#: :data:`~repro.core.batchengine.BATCH_KERNELS`: a subclass overriding
#: its guards must register its own form or its runs use the reference).
GUARD_FORMS: Dict[Type, GuardForm] = {}


def register_guard_form(protocol_cls: Type, form: GuardForm) -> None:
    """Declare ``form`` as ``protocol_cls``'s guarded actions."""
    GUARD_FORMS[protocol_cls] = form


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
#: nodes whose value is a bool whenever their operands are the domain
#: values of this package (comparisons of ints, bools and strings)
_BOOLEAN = (Eq, Ne, Lt, PointsBack, Not)
_OPS = {Eq: "==", Ne: "!=", Lt: "<"}


def _children(node):
    if isinstance(node, _Terms):
        return node.terms
    if isinstance(node, Not):
        return (node.term,)
    if isinstance(node, (Eq, Ne, Lt)):
        return (node.left, node.right)
    return ()


def _mentions(node, test) -> bool:
    return test(node) or any(_mentions(c, test) for c in _children(node))


def _reads_neighbor(node) -> bool:
    return isinstance(node, (Nbr, PointsBack))


def _text(value) -> str:
    """Source text of a value known while compiling (a bool) or of an
    expression."""
    return repr(value) if isinstance(value, bool) else value


class _Path:
    """What one path of the decision tree knows at one point."""

    __slots__ = ("own", "nbr", "back", "known", "charged", "port",
                 "writes", "moved", "drawn")

    def __init__(self, own):
        self.own = dict(own)  # slot -> local holding its current value
        self.nbr = {}  # slot -> local holding the neighbor's value
        self.back = {}  # slot -> local holding a PointsBack result
        self.known = {}  # node -> its truth on this path
        self.charged = False  # some register charged (port read)
        self.port = None  # local holding the port read, once resolved
        self.writes = {}  # slot -> local, in first-assignment order
        self.moved = False  # the effect assigned the pointer
        self.drawn = False  # the walk's effect drew

    def fork(self) -> "_Path":
        new = _Path.__new__(_Path)
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(new, name, dict(value) if isinstance(value, dict)
                    else value)
        return new


class _Compiler:
    """Emits one mode's function body (``step``, ``probe`` or ``walk``)
    for a form over one layout."""

    def __init__(self, form, slots, kinds, params, mode):
        self.form = form
        self.slots = slots  # name -> slot
        self.kinds = kinds  # slot -> kind
        self.params = params
        self.mode = mode
        self.lines = []
        self.depth = 0
        self.ptr = self.slot(form.pointer)

    # -- bookkeeping ---------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def slot(self, name: str) -> int:
        try:
            return self.slots[name]
        except KeyError:
            raise GuardFormError(f"no variable {name!r}") from None

    def branch(self, test: str, path, node, then, else_) -> None:
        """``if test:`` then ``then``, else ``else_``, each on its own
        fork of ``path`` knowing ``node``'s truth (when it is a test)."""
        for truth, body, head in ((True, then, f"if {test}:"),
                                  (False, else_, "else:")):
            self.emit(head)
            self.depth += 1
            fork = path.fork()
            if node is not None:
                fork.known[node] = truth
            body(fork)
            self.depth -= 1

    # -- expressions (continuation-passing: k(path, value)) ------------
    def cond(self, node, path, then, else_) -> None:
        if node in path.known:
            (then if path.known[node] else else_)(path)
        elif isinstance(node, Not):
            self.cond(node.term, path, else_, then)
        elif isinstance(node, _Terms):
            is_and = isinstance(node, And)
            terms = node.terms

            def chain(k, p):
                if k == len(terms):
                    (then if is_and else else_)(p)
                elif is_and:
                    self.cond(terms[k], p, lambda q: chain(k + 1, q), else_)
                else:
                    self.cond(terms[k], p, then, lambda q: chain(k + 1, q))

            chain(0, path)
        else:
            def test(p, value):
                if isinstance(value, bool):
                    (then if value else else_)(p)
                else:
                    self.branch(value, p, node, then, else_)

            self.value(node, path, test)

    def value(self, node, path, k) -> None:
        if isinstance(node, _BOOLEAN) and node in path.known:
            k(path, path.known[node])
        elif isinstance(node, Lit):
            k(path, self.params.constant(node))
        elif isinstance(node, Own):
            slot = self.slot(node.name)
            if slot not in path.own:
                self.emit(f"o{slot} = r[{slot}]")
                path.own[slot] = f"o{slot}"
            k(path, path.own[slot])
        elif isinstance(node, Nbr):
            k(path, self.neighbor(node.name, path))
        elif isinstance(node, PointsBack):
            slot = self.slot(node.name)
            if slot not in path.back:
                v = self.neighbor(node.name, path)
                self.emit(f"pb{slot} = {v} != 0 and (flat[off[q] + {v} - 1]"
                          f" if 0 < {v} <= deg[q] else port_error(q, {v}))"
                          " == i")
                path.back[slot] = f"pb{slot}"
            k(path, path.back[slot])
        elif isinstance(node, (Eq, Ne, Lt)):
            op = _OPS[type(node)]
            self.value(node.left, path, lambda p, a: self.value(
                node.right, p, lambda q, b: k(
                    q, f"({_text(a)} {op} {_text(b)})")))
        elif isinstance(node, Not):
            self.value(node.term, path, lambda p, v: k(
                p, (not v) if isinstance(v, bool) else f"(not {v})"))
        elif isinstance(node, _Terms):
            self.connective(node, 0, path, k)
        else:
            raise GuardFormError(f"unknown guard node {node!r}")

    def connective(self, node, index, path, k) -> None:
        """Python's ``and``/``or`` value over ``node.terms[index:]``."""
        term = node.terms[index]
        is_and = isinstance(node, And)

        def after(p, v):
            if index == len(node.terms) - 1:
                k(p, v)
                return

            def go_on(q):
                self.connective(node, index + 1, q, k)

            if isinstance(v, bool):
                (go_on if v is is_and else (lambda q: k(q, v)))(p)
                return
            # The term's own value ends the connective; a comparison's
            # value is the bool its branch decided.
            stop_value = (not is_and) if isinstance(term, _BOOLEAN) else v

            def stop(q):
                k(q, stop_value)

            self.branch(v, p, term, go_on if is_and else stop,
                        stop if is_and else go_on)

        self.value(term, path, after)

    def neighbor(self, name: str, path) -> str:
        """The local holding ``name`` of the neighbor behind the pointer,
        resolving the neighbor and charging the register on first touch
        along this path."""
        if path.moved:
            raise GuardFormError(
                f"{name!r} is read after the effect moved the pointer")
        if path.port is None:
            ptr = self.ptr
            if ptr not in path.own:
                self.emit(f"o{ptr} = r[{ptr}]")
                path.own[ptr] = f"o{ptr}"
            c = path.own[ptr]
            self.emit(f"q = flat[off[i] + {c} - 1] if 0 < {c} <= deg[i] "
                      f"else port_error(i, {c})")
            self.emit("rq = rows[q]")
            path.port = c
        slot = self.slot(name)
        if slot not in path.nbr:
            self.emit(f"n{slot} = rq[{slot}]")
            path.nbr[slot] = f"n{slot}"
            self.params.neighbor_reads.add(slot)
            if self.mode == "step":
                self.emit(f"b += T{slot}[q]" if path.charged
                          else f"b = 0.0 + T{slot}[q]")
                path.charged = True
        return path.nbr[slot]

    # -- the cascade -----------------------------------------------------
    def cascade(self, index, path) -> None:
        rules = self.form.rules
        if index == len(rules):
            self.disabled(path)
        else:
            self.cond(rules[index].guard, path,
                      lambda p: self.fire(index, p),
                      lambda p: self.cascade(index + 1, p))

    def disabled(self, path) -> None:
        if self.mode == "probe":
            self.emit("return False")
        elif self.mode == "walk":
            self.emit("return None")
        else:
            self.record(path, "None")

    def record(self, path, rule: str) -> None:
        ports = f"({path.port},)" if path.charged else "()"
        bits = "b" if path.charged else "0.0"
        self.emit(f"res((p, {ports}, {bits}, {rule}))")
        self.emit("continue")

    def fire(self, index, path) -> None:
        if self.mode == "probe":
            self.emit("return True")
            return
        self.effects(index, 0, path)

    def effects(self, index, k, path) -> None:
        effects = self.form.rules[index].effects
        if k == len(effects):
            self.land(index, path)
            return
        effect = effects[k]

        def go_on(p):
            self.effects(index, k + 1, p)

        if isinstance(effect, Assign):
            slot = self.slot(effect.name)
            proven = isinstance(effect.value, Lit)
            if proven:
                self.params.literal_writes.add(
                    (slot, self.params.constant(effect.value)))

            def assign(p, v):
                self.assign(slot, _text(v), proven, p)
                go_on(p)

            self.value(effect.value, path, assign)
        elif isinstance(effect, Rotate):
            self.params.rotates = True

            def rotate(p, v):
                self.assign(self.ptr, f"{v} % deg[i] + 1", True, p)
                go_on(p)

            self.value(Own(self.form.pointer), path, rotate)
        elif isinstance(effect, Draw):
            slot = self.slot(effect.name)
            sampler = self.params.sampler(effect.domain)
            if self.mode == "walk":
                if not path.drawn:
                    self.emit("g = fresh_rng()")
                    path.drawn = True
                draw = f"{sampler}(g)"
            else:
                self.emit("if rng is None:")
                self.emit("    no_rng()")
                draw = f"{sampler}(rng)"
            self.assign(slot, draw, False, path)
            go_on(path)
        else:
            raise GuardFormError(f"unknown effect {effect!r}")

    def assign(self, slot, value: str, proven: bool, path) -> None:
        local = f"w{slot}"
        self.emit(f"{local} = {value}")
        if not proven:
            self.params.checked_writes.add(slot)
            self.emit(f"if {local} not in D{slot}[i]:")
            self.emit(f"    dom_error(i, {slot}, {local})")
        path.own[slot] = local
        path.writes[slot] = local
        name = next(n for n, s in self.slots.items() if s == slot)
        moved = slot == self.ptr

        def stale(node):
            return ((isinstance(node, Own) and node.name == name)
                    or (moved and _reads_neighbor(node)))

        path.known = {node: truth for node, truth in path.known.items()
                      if not _mentions(node, stale)}
        if moved:
            path.moved = True

    def land(self, index, path) -> None:
        """The fired rule's tail: plan the writes and record the step,
        or (walking) test for a witness and move the internal state."""
        if self.mode == "step":
            for slot, local in path.writes.items():
                owner = "p" if self.kinds[slot] == "comm" else "None"
                self.emit(f"put((r, {slot}, {local}, {owner}))")
            self.record(path, f"rules[{index}]")
            return
        comm = [(s, w) for s, w in path.writes.items()
                if self.kinds[s] == "comm"]
        if path.drawn:
            slot, local = comm[0] if comm else ("None", "None")
            old = f"r[{slot}]" if comm else "None"
            self.emit(f"return witness(i, {index}, {slot}, {old}, {local}, "
                      "True)")
            return
        for slot, local in comm:
            self.emit(f"if {local} != r[{slot}]:")
            self.emit(f"    return witness(i, {index}, {slot}, r[{slot}], "
                      f"{local}, False)")
        for slot, local in path.writes.items():
            if self.kinds[slot] == "internal":
                self.emit(f"s{slot} = {local}")
        self.emit("continue")


class _Params:
    """The parameters a compiled form binds per run, collected while
    compiling."""

    def __init__(self):
        self.constants = {}  # literal key -> (parameter, value)
        self.samplers = {}  # protocol attribute -> parameter
        self.neighbor_reads = set()  # slots with a bit table
        self.checked_writes = set()  # slots with a domain table
        self.literal_writes = set()  # (slot, parameter) proven writes
        self.rotates = False

    def constant(self, lit: Lit) -> str:
        entry = self.constants.get(lit.key())
        if entry is None:
            entry = self.constants[lit.key()] = (
                f"K{len(self.constants)}", lit.value)
        return entry[0]

    def sampler(self, attr: str) -> str:
        return self.samplers.setdefault(attr, f"S{len(self.samplers)}")


class CompiledForm:
    """One form compiled over one layout: its source, its factory and
    what binding it needs."""

    def __init__(self, form: GuardForm, names, kinds):
        slots = {name: k for k, name in enumerate(names)}
        params = _Params()
        # The walk's state: the internal variables the form names (any
        # other internal variable never changes along a walk).
        state = sorted(slots[n] for n in _names(form, own_only=True)
                       if kinds[slots[n]] == "internal")
        bodies = {}
        for mode, depth, own in (("step", 3, {}), ("probe", 2, {}),
                                 ("walk", 3, {k: f"s{k}" for k in state})):
            compiler = _Compiler(form, slots, kinds, params, mode)
            compiler.depth = depth  # inside the loop of step and walk
            compiler.cascade(0, _Path(own))
            bodies[mode] = compiler.lines
        written = params.checked_writes | {
            slot for slot, _param in params.literal_writes}
        if params.rotates:
            written.add(slots[form.pointer])
        #: whether a run of this layout can hold the cascade: neighbor
        #: reads only of readable variables, writes only to writable ones
        self.holdable = (
            all(kinds[k] != "internal" for k in params.neighbor_reads)
            and all(kinds[k] != "const" for k in written))
        self.params = params
        self.source = _assemble(params, bodies, state)
        namespace: Dict[str, Any] = {}
        exec(compile(self.source, "<guard form>", "exec"), namespace)
        self.factory = namespace["_bind"]


def _names(form: GuardForm, own_only: bool = False):
    """Every variable name the form reads or writes (its own only, with
    ``own_only``)."""
    names = {form.pointer}
    todo = [rule.guard for rule in form.rules]
    for rule in form.rules:
        for effect in rule.effects:
            if isinstance(effect, (Assign, Draw)):
                names.add(effect.name)
            if isinstance(effect, Assign):
                todo.append(effect.value)
    while todo:
        node = todo.pop()
        if isinstance(node, Own) or (
                not own_only and isinstance(node, (Nbr, PointsBack))):
            names.add(node.name)
        todo.extend(_children(node))
    return names


def _assemble(params, bodies, state) -> str:
    """The factory's source around the three bodies."""
    args = ["rows", "pindex", "off", "flat", "deg", "rules", "port_error",
            "dom_error", "no_rng", "fresh_rng", "witness"]
    args += [name for name, _value in params.constants.values()]
    args += [f"T{k}" for k in sorted(params.neighbor_reads)]
    args += [f"D{k}" for k in sorted(params.checked_writes)]
    args += list(params.samplers.values())
    loads = [f"        s{k} = r[{k}]" for k in state]
    packed = "".join(f"s{k}, " for k in state)
    lines = [
        f"def _bind({', '.join(args)}):",
        "    def step(selected, rng):",
        "        results = []",
        "        pend = []",
        "        res = results.append",
        "        put = pend.append",
        "        for p in selected:",
        "            i = pindex[p]",
        "            r = rows[i]",
        *bodies["step"],
        "        return results, pend",
        "    def probe(p):",
        "        i = pindex[p]",
        "        r = rows[i]",
        *bodies["probe"],
        "    def walk(p):",
        "        i = pindex[p]",
        "        r = rows[i]",
        *loads,
        "        seen = set()",
        "        while True:",
        f"            state = ({packed})",
        "            if state in seen:",
        "                return None",
        "            seen.add(state)",
        *bodies["walk"],
        "    return step, probe, walk",
    ]
    return "\n".join(lines) + "\n"


#: per form, by identity: the form, the names it uses, and its
#: compilations keyed by (layout names, kinds)
_FORMS: Dict[int, tuple] = {}


def _form_entry(form: GuardForm) -> tuple:
    entry = _FORMS.get(id(form))
    if entry is None or entry[0] is not form:
        entry = _FORMS[id(form)] = (form, frozenset(_names(form)), {})
    return entry


def _compiled_form(form: GuardForm, names, kinds) -> CompiledForm:
    """The form compiled over one layout (exec'd once, then cached)."""
    compilations = _form_entry(form)[2]
    key = (tuple(names), tuple(kinds))
    compiled = compilations.get(key)
    if compiled is None:
        compiled = compilations[key] = CompiledForm(form, names, kinds)
    return compiled


# ----------------------------------------------------------------------
# Binding a run
# ----------------------------------------------------------------------
class BoundCascade:
    """A compiled form bound to one run's rows and network: the
    ``step``, ``probe`` and ``walk`` closures (see the module doc) and
    the layout's ``names``, which the slots of planned writes index."""

    __slots__ = ("step", "probe", "walk", "names", "compiled")

    def __init__(self, compiled, names, closures):
        self.compiled = compiled
        self.names = names
        self.step, self.probe, self.walk = closures


def bind_cascade(protocol, network, config, specs_of
                 ) -> Optional[BoundCascade]:
    """The compiled cascade of ``protocol``'s form over this run, or
    None when the protocol has no form or the run cannot hold one
    (rows of several layouts, a spec tuple breaking a premise the
    compiler relied on)."""
    form = GUARD_FORMS.get(type(protocol))
    if form is None:
        return None
    return bind_form(form, protocol, network, config, specs_of)


def bind_form(form: GuardForm, protocol, network, config, specs_of
              ) -> Optional[BoundCascade]:
    """:func:`bind_cascade` for a given ``form``."""
    pids = network.processes
    storage = config.aligned_storage(pids)
    if storage is None:
        layouts = [config.layout_of(p) for p in pids]
        rows = [config.row_of(p) for p in pids]
    else:
        layouts, rows = storage
    layout = layouts[0]
    if layouts.count(layout) != len(layouts):
        return None
    names = layout.names
    if not _form_entry(form)[1] <= set(names):
        return None
    plans, plan_ids = spec_plans(specs_of, pids)
    kinds = tuple(spec.kind for spec in plans[0])
    if any(tuple(spec.name for spec in plan) != names
           or tuple(spec.kind for spec in plan) != kinds for plan in plans):
        return None
    compiled = _compiled_form(form, names, kinds)
    if not compiled.holdable:
        return None
    params = compiled.params
    literals = dict(params.constants.values())
    for slot, param in params.literal_writes:
        if not all(literals[param] in plan[slot].domain for plan in plans):
            return None

    off, flat = network.port_arrays()
    off, flat = off.tolist(), flat.tolist()
    deg = list(map(sub, off[1:], off))
    if params.rotates and not _rotation_in_domain(
            plans, plan_ids, deg, names.index(form.pointer)):
        return None

    def per_process(values):
        if len(values) == 1:
            return values * len(pids)
        return list(map(values.__getitem__, plan_ids))

    tables = {}
    for slot in params.neighbor_reads:
        tables[f"T{slot}"] = per_process(
            [plan[slot].domain.bits for plan in plans])
    for slot in params.checked_writes:
        tables[f"D{slot}"] = per_process(
            [plan[slot].domain for plan in plans])
    for attr, param in params.samplers.items():
        # read per draw, as the protocol's own effect reads its attribute
        tables[param] = _sampler(protocol, attr)
    rule_names = tuple(rule.name for rule in form.rules)
    pindex = network.process_index()

    def port_error(i, port):
        return pindex[network.neighbor_at(pids[i], port)]

    def dom_error(i, slot, value):
        raise DomainError(
            f"value {value!r} outside domain of {names[slot]}.{pids[i]!r}")

    def no_rng():
        raise IllegalWrite(
            "protocol attempted a random choice under a deterministic run")

    def witness(i, rule, slot, old, new, randomized):
        name = "<internal>" if slot is None else names[slot]
        return QuiescenceWitness(pids[i], rule_names[rule], name, old, new,
                                 randomized)

    closures = compiled.factory(
        rows=rows, pindex=pindex, off=off, flat=flat, deg=deg,
        rules=rule_names, port_error=port_error, dom_error=dom_error,
        no_rng=no_rng, fresh_rng=_probe_rng, witness=witness,
        **literals, **tables)
    return BoundCascade(compiled, names, closures)


def _sampler(protocol, attr: str):
    """``rng -> protocol.<attr>.sample(rng)``."""
    def draw(rng):
        return getattr(protocol, attr).sample(rng)
    return draw


def _probe_rng() -> random.Random:
    """The generator a silence walk draws from: a fresh one per check,
    as :func:`~repro.core.silence.silence_witness` starts one."""
    return random.Random(0)


def _rotation_in_domain(plans, plan_ids, deg, slot) -> bool:
    """Whether every process's pointer domain holds ``1 .. δ.p``, so the
    rotation needs no check."""
    domains = [plan[slot].domain for plan in plans]
    if all(type(d) is IntRange and d.lo <= 1 for d in domains):
        his = [d.hi for d in domains]
        return all(map(le, deg, map(his.__getitem__, plan_ids)))
    return all(all(v in domains[plan] for v in range(1, d + 1))
               for plan, d in zip(plan_ids, deg))
