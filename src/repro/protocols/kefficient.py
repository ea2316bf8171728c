"""The k-efficiency spectrum (Definition 4's knob).

The paper proves its protocols at k = 1 and notes every protocol is
trivially Δ-efficient; this module fills in the spectrum with a
*window-scanning* coloring protocol that reads exactly
``min(k, δ.p)`` consecutive neighbors per step.  k = 1 recovers the
shape of protocol COLORING; k ≥ Δ recovers the traditional full scan.
The ablation bench measures how convergence time and per-step bits
trade off along k — the design space the paper's measures make visible.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.actions import GuardedAction
from ..core.state import Configuration
from ..core.variables import IntRange, VariableSpec, comm, const, internal
from ..graphs.topology import Network
from ..graphs.coloring import (
    ColorConstant,
    Coloring,
    DegreeSpecs,
    assert_local_identifiers,
)
from ..predicates.coloring import coloring_predicate
from ..predicates.mis import DOMINATED, DOMINATOR, mis_predicate
from .mis import S_DOMAIN


class _WindowProtocol(DegreeSpecs):
    """A protocol scanning the ``k``-neighbor window at ``cur``."""

    k: int

    def _window(self, ctx) -> List[int]:
        """Ports cur, cur+1, …, cur+k−1 (cyclically, deduplicated)."""
        degree = ctx.degree
        start = ctx.get("cur")
        width = min(self.k, degree)
        return [((start - 1 + i) % degree) + 1 for i in range(width)]

    def _advance(self, ctx) -> None:
        degree = ctx.degree
        width = min(self.k, degree)
        ctx.set("cur", ((ctx.get("cur") - 1 + width) % degree) + 1)


class WindowColoringProtocol(_WindowProtocol):
    """Randomized coloring reading a k-neighbor window per step.

    Parameters
    ----------
    palette_size:
        Colors {1..palette_size}; needs ≥ Δ+1 for arbitrary networks.
    k:
        Window width — the protocol is k-efficient by construction.
    """

    randomized = True

    def __init__(self, palette_size: int, k: int):
        if palette_size < 2:
            raise ValueError("palette must contain at least 2 colors")
        if k < 1:
            raise ValueError("window width k must be ≥ 1")
        self.palette = IntRange(1, palette_size)
        self.k = k
        self.name = f"COLORING-k{k}"

    @classmethod
    def for_network(cls, network: Network, k: int) -> "WindowColoringProtocol":
        return cls(network.max_degree + 1, k)

    # ------------------------------------------------------------------
    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (
            comm("C", self.palette),
            internal("cur", IntRange(1, degree)),
        )

    def actions(self) -> Tuple[GuardedAction, ...]:
        def clash(ctx) -> bool:
            own = ctx.get("C")
            return any(ctx.read(port, "C") == own for port in self._window(ctx))

        def recolor(ctx) -> None:
            ctx.set("C", ctx.random_choice(self.palette))
            self._advance(ctx)

        def no_clash(ctx) -> bool:
            own = ctx.get("C")
            return all(ctx.read(port, "C") != own for port in self._window(ctx))

        def advance(ctx) -> None:
            self._advance(ctx)

        return (
            GuardedAction("recolor", clash, recolor),
            GuardedAction("advance", no_clash, advance),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return coloring_predicate(network, config, var="C")


class WindowMISProtocol(ColorConstant, _WindowProtocol):
    """MIS over a k-neighbor scanning window (deterministic).

    The window generalisation of protocol MIS: *yield* when any window
    port shows a smaller-colored Dominator (window frozen, exactly as
    Fig. 8\'s first action leaves ``cur`` in place — the pin that makes
    dominated processes stable); *claim* when every window port is
    dominated or larger-colored (advance); *patrol* otherwise.  k = 1
    recovers protocol MIS; k ≥ Δ is the full-read baseline's shape.
    Lemma 4's color-rank induction is insensitive to the window width,
    so the Δ·#C round bound still applies (tests check it).
    """

    randomized = False

    def __init__(self, network: Network, colors: Coloring, k: int):
        if k < 1:
            raise ValueError("window width k must be ≥ 1")
        assert_local_identifiers(network, colors)
        self.colors = dict(colors)
        self.k = k
        self.name = f"MIS-k{k}"
        self._color_domain = IntRange(
            min(self.colors.values()), max(self.colors.values())
        )

    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (
            comm("S", S_DOMAIN),
            const("C", self._color_domain),
            internal("cur", IntRange(1, degree)),
        )

    def actions(self) -> Tuple[GuardedAction, ...]:
        def yield_guard(ctx) -> bool:
            if ctx.get("S") != DOMINATOR:
                return False
            own = ctx.get("C")
            return any(
                ctx.read(port, "S") == DOMINATOR and ctx.read(port, "C") < own
                for port in self._window(ctx)
            )

        def yield_effect(ctx) -> None:
            ctx.set("S", DOMINATED)

        def claim_guard(ctx) -> bool:
            if ctx.get("S") != DOMINATED:
                return False
            own = ctx.get("C")
            return all(
                ctx.read(port, "S") == DOMINATED or own < ctx.read(port, "C")
                for port in self._window(ctx)
            )

        def claim_effect(ctx) -> None:
            ctx.set("S", DOMINATOR)
            self._advance(ctx)

        def patrol_guard(ctx) -> bool:
            return ctx.get("S") == DOMINATOR

        def patrol_effect(ctx) -> None:
            self._advance(ctx)

        return (
            GuardedAction("yield", yield_guard, yield_effect),
            GuardedAction("claim", claim_guard, claim_effect),
            GuardedAction("patrol", patrol_guard, patrol_effect),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return mis_predicate(network, config, var="S")
