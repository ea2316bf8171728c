"""Δ-efficient baseline maximal matching (Manne-Mjelde-Pilard-Tixeuil style).

The protocol MATCHING "derives from" (paper §5.3, [17]): the same
propose / accept / abandon engine but scanning the full neighborhood
every step instead of a round-robin pointer.  Proposals go only to
larger-colored free neighbors, so pointer cycles cannot form; the
married set grows monotonically to a maximal matching.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ...core.actions import GuardedAction
from ...core.state import Configuration
from ...core.variables import BOOL, IntRange, VariableSpec, const, comm
from ...graphs.coloring import (
    ColorConstant,
    Coloring,
    DegreeSpecs,
    assert_local_identifiers,
)
from ...graphs.topology import Network
from ...predicates.matching import matching_predicate

ProcessId = Hashable


class FullReadMatching(ColorConstant, DegreeSpecs):
    """Deterministic Δ-efficient maximal matching protocol."""

    name = "MATCHING-full"
    randomized = False

    def __init__(self, network: Network, colors: Coloring):
        assert_local_identifiers(network, colors)
        self.colors: Dict[ProcessId, int] = dict(colors)
        self._color_domain = IntRange(
            min(self.colors.values()), max(self.colors.values())
        )

    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (
            comm("M", BOOL),
            comm("PR", IntRange(0, degree)),
            const("C", self._color_domain),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _points_back(ctx, port: int) -> bool:
        pr_q = ctx.read(port, "PR")
        if pr_q == 0:
            return False
        q = ctx.network.neighbor_at(ctx.pid, port)
        return ctx.network.neighbor_at(q, pr_q) == ctx.pid

    @classmethod
    def _married(cls, ctx) -> bool:
        pr = ctx.get("PR")
        return pr != 0 and cls._points_back(ctx, pr)

    def actions(self) -> Tuple[GuardedAction, ...]:
        points_back = self._points_back
        married = self._married

        def scan(ctx):
            """Full neighborhood read (charged to the metrics)."""
            return {
                port: (
                    ctx.read(port, "PR"),
                    ctx.read(port, "M"),
                    ctx.read(port, "C"),
                )
                for port in range(1, ctx.degree + 1)
            }

        def first_suitor(ctx) -> Optional[int]:
            """Smallest-colored neighbor whose PR points at us."""
            best = None
            best_color = None
            for port in range(1, ctx.degree + 1):
                if points_back(ctx, port):
                    color = ctx.read(port, "C")
                    if best_color is None or color < best_color:
                        best, best_color = port, color
            return best

        def first_candidate(ctx) -> Optional[int]:
            """Smallest-colored free, unmarried, larger-colored neighbor."""
            own_color = ctx.get("C")
            best = None
            best_color = None
            for port in range(1, ctx.degree + 1):
                pr_q = ctx.read(port, "PR")
                m_q = ctx.read(port, "M")
                c_q = ctx.read(port, "C")
                if pr_q == 0 and not m_q and own_color < c_q:
                    if best_color is None or c_q < best_color:
                        best, best_color = port, c_q
            return best

        # 1. publish marriage status
        def publish_guard(ctx) -> bool:
            scan(ctx)
            return ctx.get("M") != married(ctx)

        def publish_effect(ctx) -> None:
            ctx.set("M", married(ctx))

        # 2. abandon a dead-end proposal
        def abandon_guard(ctx) -> bool:
            scan(ctx)
            pr = ctx.get("PR")
            if pr == 0 or points_back(ctx, pr):
                return False
            return ctx.read(pr, "M") or ctx.read(pr, "C") < ctx.get("C")

        def abandon_effect(ctx) -> None:
            ctx.set("PR", 0)

        # 3. accept the best suitor
        def accept_guard(ctx) -> bool:
            scan(ctx)
            return ctx.get("PR") == 0 and first_suitor(ctx) is not None

        def accept_effect(ctx) -> None:
            suitor = first_suitor(ctx)
            assert suitor is not None
            ctx.set("PR", suitor)

        # 4. propose to the best candidate
        def propose_guard(ctx) -> bool:
            scan(ctx)
            return ctx.get("PR") == 0 and first_candidate(ctx) is not None

        def propose_effect(ctx) -> None:
            candidate = first_candidate(ctx)
            assert candidate is not None
            ctx.set("PR", candidate)

        return (
            GuardedAction("publish", publish_guard, publish_effect),
            GuardedAction("abandon", abandon_guard, abandon_effect),
            GuardedAction("accept", accept_guard, accept_effect),
            GuardedAction("propose", propose_guard, propose_effect),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return matching_predicate(network, config)
