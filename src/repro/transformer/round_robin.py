"""Prototype local-checking → 1-efficient transformer (paper §6).

The paper closes asking whether a general transformer can turn any
protocol in the *local checking* paradigm into a communication-efficient
one for the stabilized phase.  This module prototypes the natural
candidate the paper's own protocols instantiate by hand: when a
protocol's detection is per-neighbor (a violation is witnessed by a
single incident edge) and its correction is local, replace the
every-step full-neighborhood scan by a round-robin pointer that checks
one neighbor per step.

A protocol eligible for the transform is described by a
:class:`LocalCheckingSpec`; :func:`make_one_efficient` emits the
1-efficient :class:`Protocol`.  Instantiating the spec for vertex
coloring reproduces protocol COLORING action-for-action — evidence that
the transform is the right shape — and the package tests check the
transformed protocols remain silent self-stabilizing while becoming
1-efficient.  What the prototype does *not* establish (and the paper
leaves open) is the stabilizing-phase cost of the transform in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..core.actions import GuardedAction
from ..core.context import StepContext
from ..core.state import Configuration
from ..core.variables import BOOL, Domain, IntRange, VariableSpec, comm, internal
from ..graphs.coloring import DegreeSpecs
from ..graphs.topology import Network
from ..predicates.coloring import coloring_predicate


@dataclass(frozen=True)
class LocalCheckingSpec:
    """A silent protocol in per-neighbor local-checking form.

    Attributes
    ----------
    name:
        Name for the emitted protocol.
    comm_var:
        The single communication variable the protocol maintains.
    domain:
        Its domain (shared by all processes).
    conflict:
        ``conflict(ctx, port) -> bool`` — does the neighbor behind
        ``port`` witness a violation?  Must read only that neighbor.
    repair:
        ``repair(ctx, port) -> None`` — local correction once ``port``
        witnesses a violation.  Must write only own variables.
    legitimate:
        The predicate the protocol stabilizes to.
    randomized:
        Whether ``repair`` consults the rng.
    """

    name: str
    comm_var: str
    domain: Domain
    conflict: Callable[[StepContext, int], bool]
    repair: Callable[[StepContext, int], None]
    legitimate: Callable[[Network, Configuration], bool]
    randomized: bool = False


class OneEfficientProtocol(DegreeSpecs):
    """The transformed protocol: one neighbor checked per step."""

    def __init__(self, spec: LocalCheckingSpec):
        self.spec = spec
        self.name = f"{spec.name}-1eff"
        self.randomized = spec.randomized

    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (
            comm(self.spec.comm_var, self.spec.domain),
            internal("cur", IntRange(1, degree)),
        )

    def actions(self) -> Tuple[GuardedAction, ...]:
        spec = self.spec

        def detect(ctx) -> bool:
            return spec.conflict(ctx, ctx.get("cur"))

        def correct(ctx) -> None:
            spec.repair(ctx, ctx.get("cur"))
            ctx.advance("cur")

        def clear(ctx) -> bool:
            return not spec.conflict(ctx, ctx.get("cur"))

        def advance(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("correct", detect, correct),
            GuardedAction("scan", clear, advance),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return self.spec.legitimate(network, config)


def make_one_efficient(spec: LocalCheckingSpec) -> OneEfficientProtocol:
    """Apply the round-robin transform to a local-checking spec."""
    return OneEfficientProtocol(spec)


# ----------------------------------------------------------------------
# Example instantiations
# ----------------------------------------------------------------------
def coloring_spec(palette_size: int) -> LocalCheckingSpec:
    """Vertex coloring as a local-checking spec.

    Transforming this spec reproduces protocol COLORING exactly: the
    conflict is a per-edge color clash, the repair a uniform redraw.
    """
    palette = IntRange(1, palette_size)

    def conflict(ctx: StepContext, port: int) -> bool:
        return ctx.get("C") == ctx.read(port, "C")

    def repair(ctx: StepContext, port: int) -> None:
        ctx.set("C", ctx.random_choice(palette))

    return LocalCheckingSpec(
        name="COLORING-transform",
        comm_var="C",
        domain=palette,
        conflict=conflict,
        repair=repair,
        legitimate=lambda net, cfg: coloring_predicate(net, cfg, var="C"),
        randomized=True,
    )


def independence_spec() -> LocalCheckingSpec:
    """Independent-set maintenance as a local-checking spec.

    The predicate is independence of the marked set (no two adjacent
    marks) — weaker than MIS, but exactly the locally checkable part of
    it, which is what the transformer paradigm covers.  Repair: the
    detecting endpoint unmarks itself.
    """

    def conflict(ctx: StepContext, port: int) -> bool:
        # Read first: local checking examines the edge even when the
        # process itself is unmarked (and the metrics then reflect the
        # one-read-per-step pattern).
        neighbor_marked = bool(ctx.read(port, "IN"))
        return neighbor_marked and bool(ctx.get("IN"))

    def repair(ctx: StepContext, port: int) -> None:
        ctx.set("IN", False)

    def independent(net: Network, cfg: Configuration) -> bool:
        return all(
            not (cfg.get(p, "IN") and cfg.get(q, "IN")) for p, q in net.edges()
        )

    return LocalCheckingSpec(
        name="INDEPENDENCE-transform",
        comm_var="IN",
        domain=BOOL,
        conflict=conflict,
        repair=repair,
        legitimate=independent,
        randomized=False,
    )
