"""Typed variable domains for the locally shared memory model.

The paper's model (Section 2) distinguishes *communication* variables
(readable by neighbors) from *internal* variables (private), and every
variable "ranges over a fixed domain of values".  Domains are first-class
objects here because the paper's communication-complexity measure
(Definition 5) is counted in *bits*: reading a variable whose domain has
``d`` values costs ``ceil(log2(d))`` bits.  Keeping the domain next to the
variable lets the metrics layer account bits exactly as the paper does
(e.g. a color in ``{1..Δ+1}`` costs ``log(Δ+1)`` bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence, Tuple


class Domain:
    """Abstract finite domain of values a variable may take."""

    def __contains__(self, value: Any) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def bits(self) -> float:
        """Information content of one value, in bits (``log2 |domain|``).

        A singleton domain carries zero bits, matching the convention
        that a constant known to both endpoints costs nothing *extra*
        beyond its declared size; callers that want the raw size use
        ``len``.
        """
        size = len(self)
        if size <= 1:
            return 0.0
        return math.log2(size)

    def sample(self, rng) -> Any:
        """Draw a uniform random element (used for adversarial init)."""
        values = list(self)
        return values[rng.randrange(len(values))]


@dataclass(frozen=True)
class IntRange(Domain):
    """Integer interval ``[lo, hi]`` inclusive, as in ``C.p ∈ {1..Δ+1}``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty IntRange [{self.lo}, {self.hi}]")

    def __contains__(self, value: Any) -> bool:
        # bool is an int subclass, but True is no value of {lo..hi}: a
        # row holding it would step differently on engines that store
        # the int 1.
        return (isinstance(value, int) and not isinstance(value, bool)
                and self.lo <= value <= self.hi)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def sample(self, rng) -> int:
        return rng.randint(self.lo, self.hi)


@dataclass(frozen=True)
class FiniteSet(Domain):
    """Explicit finite domain, e.g. ``S.p ∈ {Dominator, dominated}``.

    Membership matches a value's type as well as its equality: ``1`` is
    no member of ``{False, True}``, although ``1 == True``.  So does
    equality: ``{0, 1}`` is not ``{False, True}``.
    """

    values: Tuple[Any, ...]

    def __init__(self, values: Sequence[Any]):
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise ValueError("empty FiniteSet domain")
        types = tuple(map(type, self.values))
        object.__setattr__(self, "_key", (self.values, types))
        # the one type of every value, or None for a mixed-type set
        object.__setattr__(
            self, "_type", types[0] if len(set(types)) == 1 else None)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __contains__(self, value: Any) -> bool:
        if self._type is not None:
            return type(value) is self._type and value in self.values
        return any(type(v) is type(value) and v == value
                   for v in self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


BOOL = FiniteSet((False, True))


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of one variable of a process.

    Attributes
    ----------
    name:
        Variable name, unique within its process (paper notation
        ``v.p`` becomes ``state[p][name]``).
    domain:
        The finite :class:`Domain` of values.
    kind:
        ``"comm"`` for communication variables (neighbor-readable),
        ``"internal"`` for private variables, ``"const"`` for
        communication constants (neighbor-readable, never written —
        like the color ``C.p`` of protocols MIS and MATCHING).
    """

    name: str
    domain: Domain
    kind: str = "comm"

    KINDS = ("comm", "internal", "const")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")

    @property
    def readable_by_neighbors(self) -> bool:
        return self.kind in ("comm", "const")

    @property
    def writable(self) -> bool:
        return self.kind != "const"


class SpecMap(dict):
    """A spec map (pid -> spec tuple) that carries its own ``plans``:
    the ``(plans, plan_ids)`` :func:`spec_plans` finds for its keys in
    order, resolved by a protocol that knew them while building the map
    (:class:`~repro.graphs.coloring.DegreeSpecs` resolves one tuple per
    degree).  Reads are ``dict``'s own; every write drops ``plans``, so
    they never go stale."""

    __slots__ = ("plans",)

    def __init__(self, items=(), plans=None):
        super().__init__(items)
        self.plans = plans


def _dropping_plans(name: str):
    write = getattr(dict, name)

    def method(self, *args, **kwargs):
        self.plans = None
        return write(self, *args, **kwargs)

    method.__name__ = method.__qualname__ = name
    method.__doc__ = f"``dict.{name}``, dropping the carried ``plans``."
    return method


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop",
              "popitem", "setdefault", "update"):
    setattr(SpecMap, _name, _dropping_plans(_name))


def spec_plans(specs_of, pids):
    """``(plans, plan_ids)``: the distinct spec tuples of ``pids`` in
    first-seen order, and each process's position among them.

    Protocols memoize their spec tuples (per degree), so a large network
    has a handful of them, and whatever is derived from a tuple — draw
    steps, domain bounds, register widths — is derived once per tuple.
    Tuples are told apart by identity.  A :class:`SpecMap` asked for its
    own keys, in order, answers with the plans it carries.
    """
    if (isinstance(specs_of, SpecMap) and specs_of.plans is not None
            and tuple(pids) == tuple(specs_of)):
        return specs_of.plans
    specs = list(map(specs_of.__getitem__, pids))
    ids = list(map(id, specs))
    first = dict(zip(ids, specs))
    position = {key: k for k, key in enumerate(first)}
    return list(first.values()), list(map(position.__getitem__, ids))


def comm(name: str, domain: Domain) -> VariableSpec:
    """Shorthand for a communication variable declaration."""
    return VariableSpec(name, domain, "comm")


def internal(name: str, domain: Domain) -> VariableSpec:
    """Shorthand for an internal variable declaration."""
    return VariableSpec(name, domain, "internal")


def const(name: str, domain: Domain) -> VariableSpec:
    """Shorthand for a communication constant declaration."""
    return VariableSpec(name, domain, "const")
