"""Δ-efficient baseline coloring (Gradinariu-Tixeuil style).

The traditional silent coloring protocol the paper contrasts with in
§3.2: every process scans *all* neighbors in each step and, when it
clashes with any of them, redraws from the colors currently free in its
neighborhood.  Communication complexity per step is Δ·log(Δ+1) bits —
the factor-Δ overhead COLORING removes.
"""

from __future__ import annotations

from typing import List, Tuple

from ...core.actions import GuardedAction
from ...core.state import Configuration
from ...core.variables import IntRange, VariableSpec, comm
from ...graphs.coloring import DegreeSpecs
from ...graphs.topology import Network
from ...predicates.coloring import coloring_predicate


class FullReadColoring(DegreeSpecs):
    """Randomized Δ-efficient coloring over palette {1..Δ+1}."""

    name = "COLORING-full"
    randomized = True

    def __init__(self, palette_size: int):
        if palette_size < 2:
            raise ValueError("palette must contain at least 2 colors")
        self.palette = IntRange(1, palette_size)

    @classmethod
    def for_network(cls, network: Network) -> "FullReadColoring":
        return cls(network.max_degree + 1)

    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (comm("C", self.palette),)

    def actions(self) -> Tuple[GuardedAction, ...]:
        def clash(ctx) -> bool:
            own = ctx.get("C")
            return any(
                ctx.read(port, "C") == own for port in range(1, ctx.degree + 1)
            )

        def recolor(ctx) -> None:
            # Coin toss before recoloring: under a synchronous daemon
            # two clashing neighbors may both hold a single free color
            # and would swap in lockstep forever; keeping the current
            # color with probability 1/2 breaks the symmetry w.p. 1.
            if ctx.random_int(0, 1) == 0:
                return
            taken = {ctx.read(port, "C") for port in range(1, ctx.degree + 1)}
            free: List[int] = [c for c in self.palette if c not in taken]
            # Palette has Δ+1 ≥ δ.p + 1 colors, so free is never empty.
            ctx.set("C", free[ctx.random_int(0, len(free) - 1)])

        return (GuardedAction("recolor", clash, recolor),)

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return coloring_predicate(network, config, var="C")
