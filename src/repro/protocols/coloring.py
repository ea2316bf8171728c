"""Protocol COLORING (paper Figure 7).

A 1-efficient randomized silent protocol that stabilizes to the vertex
coloring predicate with probability 1 in arbitrary anonymous networks::

    Communication Variable:  C.p ∈ {1 .. Δ+1}
    Internal Variable:       cur.p ∈ [1 .. δ.p]
    Actions:
      (C.p = C.(cur.p)) → C.p ← random({1..Δ+1}); cur.p ← (cur.p mod δ.p)+1
      (C.p ≠ C.(cur.p)) → cur.p ← (cur.p mod δ.p)+1

Each process checks one neighbor per step in round-robin order; on a
color clash it redraws uniformly from the Δ+1 palette.  Δ+1 colors are
the minimum for arbitrary networks (a Δ-clique needs them all).
"""

from __future__ import annotations

from typing import Hashable, Tuple

from ..core.actions import GuardedAction
from ..core.guards import (Draw, Eq, GuardForm, Ne, Nbr, Own, Rotate, Rule,
                           register_guard_form)
from ..core.state import Configuration
from ..core.variables import IntRange, VariableSpec, comm, internal
from ..graphs.coloring import DegreeSpecs
from ..graphs.topology import Network
from ..predicates.coloring import coloring_predicate

ProcessId = Hashable


class ColoringProtocol(DegreeSpecs):
    """The paper's Protocol COLORING, parameterised by the palette size.

    Parameters
    ----------
    palette_size:
        Number of colors; defaults to Δ+1 when built via
        :meth:`for_network`.  The protocol is correct for any size
        ≥ Δ+1 (larger palettes converge faster).
    """

    name = "COLORING"
    randomized = True

    def __init__(self, palette_size: int):
        if palette_size < 2:
            raise ValueError("palette must contain at least 2 colors")
        self.palette = IntRange(1, palette_size)

    @classmethod
    def for_network(cls, network: Network, extra_colors: int = 0) -> "ColoringProtocol":
        """The canonical Δ+1-color instance for ``network``."""
        return cls(network.max_degree + 1 + extra_colors)

    # ------------------------------------------------------------------
    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        return (
            comm("C", self.palette),
            internal("cur", IntRange(1, degree)),
        )

    def actions(self) -> Tuple[GuardedAction, ...]:
        def clash(ctx) -> bool:
            return ctx.get("C") == ctx.read(ctx.get("cur"), "C")

        def recolor(ctx) -> None:
            ctx.set("C", ctx.random_choice(self.palette))
            ctx.advance("cur")

        def no_clash(ctx) -> bool:
            return ctx.get("C") != ctx.read(ctx.get("cur"), "C")

        def advance(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("recolor", clash, recolor),
            GuardedAction("advance", no_clash, advance),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return coloring_predicate(network, config, var="C")

    # ------------------------------------------------------------------
    def color_of(self, config: Configuration, p: ProcessId) -> int:
        """The paper's output function ``color.p`` — the value of C.p."""
        return config.get(p, "C")


#: ``actions()`` as a guard form, compiled for the scalar engines
register_guard_form(ColoringProtocol, GuardForm("cur", (
    Rule("recolor", Eq(Own("C"), Nbr("C")), (Draw("C", "palette"), Rotate())),
    Rule("advance", Ne(Own("C"), Nbr("C")), (Rotate(),)),
)))


# ----------------------------------------------------------------------
# Vectorized kernel (engine="batch-resident")
# ----------------------------------------------------------------------
from ..core.batchengine import BatchKernel, register_batch_kernel  # noqa: E402


@register_batch_kernel(ColoringProtocol)
class ColoringBatchKernel(BatchKernel):
    """Whole-column COLORING guards.

    Every process is always enabled and reads exactly the neighbor at
    ``cur``: a clash fires ``recolor`` (fresh palette draw, one per
    clashing process in selection order — the same draw sequence as the
    scalar effects), otherwise ``advance``; both rotate ``cur``.
    """

    rule_names = ("recolor", "advance")

    def __init__(self, protocol, store):
        super().__init__(protocol, store)
        self._c = store.slot("C")
        self._cur = store.slot("cur")
        self._cbits = store.reg_bits("C")

    def classify(self, idx):
        store = self.store
        c_col = store.col(self._c)
        cur = store.gather(store.col(self._cur), idx)
        q = store.neighbor_at(idx, cur)
        clash = store.gather(c_col, idx) == c_col[q]
        codes = store.np.where(clash, 0, 1)
        bits = self._cbits[q]
        return codes, cur, bits, (cur, clash)

    def plan_writes(self, idx, codes, aux, rng):
        """``cur`` rotates everywhere (one column replacement on a
        whole-network step); only clashing processes pay a sparse
        write, their palette draws in selection order."""
        cur, clash = aux
        store = self.store
        if idx is store.all_idx:
            store.write_col(self._cur, cur % store.deg + 1)
        else:
            store.write(self._cur, idx.tolist(),
                        (cur % store.deg[idx] + 1).tolist())
        rec_idx = idx[clash].tolist()
        if rec_idx:
            sample = self.protocol.palette.sample
            store.write(self._c, rec_idx, [sample(rng) for _ in rec_idx])

    def legitimate_cols(self) -> bool:
        """The coloring predicate straight from the columns: no edge
        joins two processes of the same color."""
        c = self.store.col(self._c)
        u, v = self.store.edges
        return not bool((c[u] == c[v]).any())

    #: Silence straight from the columns: COLORING is silent exactly
    #: when the coloring is proper — a clashing edge keeps ``recolor``
    #: reachable via the ``cur`` rotation, a proper coloring disables
    #: it everywhere (the property suite pins this equivalence against
    #: the exact scalar checker).
    silent_cols = legitimate_cols
