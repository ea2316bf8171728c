"""Δ-efficient baseline MIS (Ikeda-Kamei-Kakugawa style).

The classical self-stabilizing maximal independent set protocol with
ordered identifiers (here: local-identifier colors), reading *all*
neighbors in every step:

* a Dominator with a smaller-colored Dominator neighbor steps down;
* a dominated process with no "blocking" neighbor (a Dominator, or a
  smaller-colored process that might still claim) steps up.

This is the comparison point for MIS's communication complexity: the
per-step read cost is Δ·(1 + log #C) bits instead of 1 + log #C.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from ...core.actions import GuardedAction
from ...core.state import Configuration
from ...core.variables import IntRange, VariableSpec, const, comm
from ...graphs.coloring import (
    ColorConstant,
    Coloring,
    DegreeSpecs,
    assert_local_identifiers,
)
from ...graphs.topology import Network
from ...predicates.mis import DOMINATED, DOMINATOR, mis_predicate
from ..mis import S_DOMAIN

ProcessId = Hashable


class FullReadMIS(ColorConstant, DegreeSpecs):
    """Deterministic Δ-efficient MIS over a local-identifier coloring."""

    name = "MIS-full"
    randomized = False

    def __init__(self, network: Network, colors: Coloring):
        assert_local_identifiers(network, colors)
        self.colors: Dict[ProcessId, int] = dict(colors)
        self._color_domain = IntRange(
            min(self.colors.values()), max(self.colors.values())
        )

    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (comm("S", S_DOMAIN), const("C", self._color_domain))

    def actions(self) -> Tuple[GuardedAction, ...]:
        def scan(ctx):
            # The traditional protocol reads the full neighborhood every
            # step; materialise the scan so the metrics charge it fully
            # (no short-circuit discount).
            return [
                (ctx.read(port, "S"), ctx.read(port, "C"))
                for port in range(1, ctx.degree + 1)
            ]

        def step_down_guard(ctx) -> bool:
            own_color = ctx.get("C")
            neighborhood = scan(ctx)
            if ctx.get("S") != DOMINATOR:
                return False
            return any(
                s == DOMINATOR and c < own_color for s, c in neighborhood
            )

        def step_down(ctx) -> None:
            ctx.set("S", DOMINATED)

        def step_up_guard(ctx) -> bool:
            # Step up unless some smaller-colored neighbor is a
            # Dominator — the all-neighbors analogue of MIS's claim rule
            # (∀q: S.q = dominated ∨ C.p ≺ C.q).
            own_color = ctx.get("C")
            neighborhood = scan(ctx)
            if ctx.get("S") != DOMINATED:
                return False
            return all(
                s == DOMINATED or own_color < c for s, c in neighborhood
            )

        def step_up(ctx) -> None:
            ctx.set("S", DOMINATOR)

        return (
            GuardedAction("step-down", step_down_guard, step_down),
            GuardedAction("step-up", step_up_guard, step_up),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return mis_predicate(network, config, var="S")
