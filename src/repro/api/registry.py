"""String registries for protocols, topologies, schedulers, and engines.

The declarative experiment layer needs every component constructible
from a ``(name, params)`` pair so that a whole campaign is plain data
(JSON).  Four registries cover the experiment axes:

* **topologies** — builders ``(**params) -> Network``;
* **protocols** — builders ``(network, **params) -> Protocol`` (the
  network always comes first because every paper protocol is
  instantiated *for* a network);
* **schedulers** — builders ``(network, **params) -> Scheduler``.  The
  network argument lets network-aware daemons (the locally central
  scheduler) be described by name alone and constructed lazily at
  :class:`~repro.core.simulator.Simulator` build time.  Every built-in
  daemon that supports drawing from the maintained enabled set accepts
  ``enabled_only=True`` as a parameter;
* **engines** — builders ``(**params) -> EnabledSetEngine`` for the
  enabled-set maintenance strategies of :mod:`repro.core.engine`
  (``incremental``, ``scan``, ``debug``) and the columnar engine of
  :mod:`repro.core.batchengine` (``batch-resident``, audited as
  ``batch-debug``).

Metrics tiers (``full`` | ``aggregate`` | ``off``) are deliberately
*not* a registry: they are a closed three-value knob on
:class:`~repro.core.simulator.Simulator` /
:class:`~repro.api.ExperimentSpec` (see
:data:`repro.core.metrics.METRICS_TIERS`), not an extensible component
— a custom collector would plug in as an engine-style object, not a
tier name.

All built-in implementations are pre-registered below, including the
full-read baselines, the k-window generalisations, and every scheduler
in :mod:`repro.core.scheduler`.  Downstream code extends the API with
the decorators::

    from repro.api import register_protocol

    @register_protocol("my-coloring")
    def _build(network, extra_colors=0):
        return MyColoring.for_network(network, extra_colors)
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping

from ..core.engine import ENGINE_NAMES, make_engine
from ..core.scheduler import (
    BoundedFairScheduler,
    CentralScheduler,
    FixedSequenceScheduler,
    LocallyCentralScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    SynchronousScheduler,
)
from ..graphs import (
    Coloring,
    binary_tree,
    caterpillar,
    chain,
    clique,
    dsatur_coloring,
    greedy_coloring,
    grid,
    hypercube,
    random_connected,
    random_regular,
    random_tree,
    ring,
    sequential_coloring,
    sparse_random,
    star,
    torus,
    welsh_powell_coloring,
)
from ..graphs.topology import Network
from ..protocols import (
    ColoringProtocol,
    FullReadColoring,
    FullReadMIS,
    FullReadMatching,
    MISProtocol,
    MatchingProtocol,
    WindowColoringProtocol,
    WindowMISProtocol,
)


class Registry:
    """A name -> builder table with decorator-style registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._builders: Dict[str, Callable] = {}

    def register(self, name: str, builder: Callable = None):
        """Register ``builder`` under ``name``; usable as a decorator."""
        if builder is None:
            def decorator(fn: Callable) -> Callable:
                self.register(name, fn)
                return fn
            return decorator
        if name in self._builders:
            raise ValueError(f"{self.kind} {name!r} already registered")
        self._builders[name] = builder
        return builder

    def get(self, name: str) -> Callable:
        try:
            return self._builders[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def checked(self, name: str, *args, **params) -> Callable:
        """The builder of ``name``, once ``args`` and ``params`` bind to
        its signature (:class:`ValueError` when they do not)."""
        builder = self.get(name)
        try:
            inspect.signature(builder).bind(*args, **params)
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for {self.kind} {name!r}: {exc}"
            ) from None
        return builder

    def build(self, name: str, *args, **params):
        # The arguments bind, so any TypeError past this point is a bug
        # inside the builder and propagates with its real traceback.
        return self.checked(name, *args, **params)(*args, **params)

    def names(self) -> List[str]:
        return sorted(self._builders)

    def __contains__(self, name: str) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._builders)

    def __repr__(self) -> str:
        return f"Registry({self.kind}: {self.names()})"


protocol_registry = Registry("protocol")
topology_registry = Registry("topology")
scheduler_registry = Registry("scheduler")
engine_registry = Registry("engine")

register_protocol = protocol_registry.register
register_topology = topology_registry.register
register_scheduler = scheduler_registry.register
register_engine = engine_registry.register


# ----------------------------------------------------------------------
# Built-in protocols
# ----------------------------------------------------------------------
_COLORERS: Dict[str, Callable[[Network], Coloring]] = {
    "greedy": greedy_coloring,
    "dsatur": dsatur_coloring,
    "sequential": sequential_coloring,
    "welsh-powell": welsh_powell_coloring,
}


def _colors(network: Network, coloring: str) -> Coloring:
    try:
        return _COLORERS[coloring](network)
    except KeyError:
        raise ValueError(
            f"unknown coloring algorithm {coloring!r}; "
            f"known: {sorted(_COLORERS)}"
        ) from None


@register_protocol("coloring")
def _coloring(network, extra_colors: int = 0):
    return ColoringProtocol.for_network(network, extra_colors=extra_colors)


@register_protocol("mis")
def _mis(network, coloring: str = "greedy"):
    return MISProtocol(network, _colors(network, coloring))


@register_protocol("matching")
def _matching(network, coloring: str = "greedy"):
    return MatchingProtocol(network, _colors(network, coloring))


@register_protocol("coloring-full")
def _coloring_full(network):
    return FullReadColoring.for_network(network)


@register_protocol("mis-full")
def _mis_full(network, coloring: str = "greedy"):
    return FullReadMIS(network, _colors(network, coloring))


@register_protocol("matching-full")
def _matching_full(network, coloring: str = "greedy"):
    return FullReadMatching(network, _colors(network, coloring))


@register_protocol("window-coloring")
def _window_coloring(network, k: int = 2):
    return WindowColoringProtocol.for_network(network, k=k)


@register_protocol("window-mis")
def _window_mis(network, k: int = 2, coloring: str = "greedy"):
    return WindowMISProtocol(network, _colors(network, coloring), k=k)


# ----------------------------------------------------------------------
# Built-in topologies
# ----------------------------------------------------------------------
register_topology("chain", chain)
register_topology("ring", ring)
register_topology("star", star)
register_topology("clique", clique)
register_topology("grid", grid)
register_topology("torus", torus)
register_topology("hypercube", hypercube)
register_topology("binary-tree", binary_tree)
register_topology("caterpillar", caterpillar)
register_topology("gnp", random_connected)
register_topology("regular", random_regular)
register_topology("sparse", sparse_random)
register_topology("tree", random_tree)


def build_topology(name: str, params: Mapping[str, Any],
                   columnar: bool = False) -> Network:
    """The network of topology ``name`` built with ``params``.

    A columnar engine's trial passes ``columnar=True``: ``sparse`` is
    then built as port arrays by :func:`repro.graphs.columnar.sparse_random`
    when NumPy imports — the same network, without per-process neighbor
    tuples — and by its registered builder otherwise.  Scalar trials
    always take the registered builder, so they never import NumPy.
    """
    builder = topology_registry.checked(name, **params)
    if columnar and name == "sparse":
        try:
            from ..graphs.columnar import sparse_random as builder
        except ImportError:
            pass
    return builder(**params)


# ----------------------------------------------------------------------
# Built-in schedulers — builders take the network first so that
# network-aware daemons are constructible lazily; the others ignore it.
# ----------------------------------------------------------------------
@register_scheduler("synchronous")
def _synchronous(network, enabled_only: bool = False):
    return SynchronousScheduler(enabled_only=enabled_only)


@register_scheduler("central")
def _central(network, enabled_only: bool = False):
    return CentralScheduler(enabled_only=enabled_only)


@register_scheduler("random-subset")
def _random_subset(network, p_act: float = 0.5, enabled_only: bool = False):
    return RandomSubsetScheduler(p_act=p_act, enabled_only=enabled_only)


@register_scheduler("round-robin")
def _round_robin(network, enabled_only: bool = False):
    return RoundRobinScheduler(enabled_only=enabled_only)


@register_scheduler("bounded-fair")
def _bounded_fair(network, bound: int = 24, burst: int = 3):
    return BoundedFairScheduler(bound=bound, burst=burst)


def _as_pid(value):
    """A scripted pid as a spec's JSON round-trip left it, with its
    lists turned back into the tuples ``grid``/``torus`` pids are."""
    if isinstance(value, list):
        return tuple(map(_as_pid, value))
    return value


@register_scheduler("fixed-sequence")
def _fixed_sequence(network, sequence=()):
    own = {p: p for p in network.processes}
    steps, unknown = [], []
    for step in sequence:
        mapped = []
        for value in step:
            pid = _as_pid(value)
            try:
                mapped.append(own[pid])
            except (KeyError, TypeError):  # TypeError: unhashable
                if pid not in unknown:
                    unknown.append(pid)
        steps.append(mapped)
    if unknown:
        names = ", ".join(map(repr, unknown[:5]))
        more = f" and {len(unknown) - 5} more" if len(unknown) > 5 else ""
        raise ValueError(
            "fixed-sequence names processes the network does not have: "
            f"{names}{more}"
        )
    return FixedSequenceScheduler(steps)


@register_scheduler("locally-central")
def _locally_central(network, p_act: float = 0.5, enabled_only: bool = False):
    return LocallyCentralScheduler(network, p_act=p_act,
                                   enabled_only=enabled_only)


# ----------------------------------------------------------------------
# Built-in enabled-set engines — see repro.core.engine for the design
# and docs/performance.md for the complexity argument.
# ----------------------------------------------------------------------
for _name in ENGINE_NAMES:
    register_engine(_name, partial(make_engine, _name))
