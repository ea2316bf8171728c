"""Protocol MIS (paper Figure 8).

A 1-efficient deterministic silent protocol that stabilizes to the
maximal independent set predicate in *locally identified* networks —
each process carries a communication constant color ``C.p`` distinct
from every neighbor's, totally ordered by ``≺``::

    Communication Variable:  S.p ∈ {Dominator, dominated}
    Communication Constant:  C.p (color)
    Internal Variable:       cur.p ∈ [1 .. δ.p]
    Actions (priority order):
      (S.(cur.p)=Dominator ∧ C.(cur.p) ≺ C.p ∧ S.p=Dominator)
          → S.p ← dominated
      ((S.(cur.p)=dominated ∨ C.p ≺ C.(cur.p)) ∧ S.p=dominated)
          → S.p ← Dominator; cur.p ← (cur.p mod δ.p)+1
      (S.p=Dominator)
          → cur.p ← (cur.p mod δ.p)+1

Convergence: at most Δ·#C rounds (Lemma 4), by induction over the color
ranks — the colors' order induces a dag (Theorem 4) along which
decisions become final bottom-up.
"""

from __future__ import annotations

from typing import Dict, Hashable, Set, Tuple

from ..core.actions import GuardedAction
from ..core.state import Configuration
from ..core.variables import FiniteSet, IntRange, VariableSpec, const, comm, internal
from ..graphs.coloring import (
    ColorConstant,
    Coloring,
    DegreeSpecs,
    assert_local_identifiers,
)
from ..graphs.topology import Network
from ..predicates.mis import DOMINATED, DOMINATOR, mis_predicate

ProcessId = Hashable

S_DOMAIN = FiniteSet((DOMINATOR, DOMINATED))


class MISProtocol(ColorConstant, DegreeSpecs):
    """The paper's Protocol MIS over a given local-identifier coloring."""

    name = "MIS"
    randomized = False

    def __init__(self, network: Network, colors: Coloring):
        assert_local_identifiers(network, colors)
        self.colors: Dict[ProcessId, int] = dict(colors)
        self._color_domain = IntRange(
            min(self.colors.values()), max(self.colors.values())
        )

    # ------------------------------------------------------------------
    def specs_for_degree(self, degree: int) -> Tuple[VariableSpec, ...]:
        # The color constant's per-process *value* lives in
        # constant_values; its domain is shared.
        return (
            comm("S", S_DOMAIN),
            const("C", self._color_domain),
            internal("cur", IntRange(1, degree)),
        )

    def actions(self) -> Tuple[GuardedAction, ...]:
        def yield_guard(ctx) -> bool:
            if ctx.get("S") != DOMINATOR:
                return False
            port = ctx.get("cur")
            return (
                ctx.read(port, "S") == DOMINATOR
                and ctx.read(port, "C") < ctx.get("C")
            )

        def yield_effect(ctx) -> None:
            ctx.set("S", DOMINATED)

        def claim_guard(ctx) -> bool:
            if ctx.get("S") != DOMINATED:
                return False
            port = ctx.get("cur")
            return (
                ctx.read(port, "S") == DOMINATED
                or ctx.get("C") < ctx.read(port, "C")
            )

        def claim_effect(ctx) -> None:
            ctx.set("S", DOMINATOR)
            ctx.advance("cur")

        def patrol_guard(ctx) -> bool:
            return ctx.get("S") == DOMINATOR

        def patrol_effect(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("yield", yield_guard, yield_effect),
            GuardedAction("claim", claim_guard, claim_effect),
            GuardedAction("patrol", patrol_guard, patrol_effect),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return mis_predicate(network, config, var="S")

    # ------------------------------------------------------------------
    def in_mis(self, config: Configuration, p: ProcessId) -> bool:
        """The paper's output function ``inMIS.p``."""
        return config.get(p, "S") == DOMINATOR

    def independent_set(self, network: Network, config: Configuration) -> Set[ProcessId]:
        return {p for p in network.processes if self.in_mis(config, p)}


# ----------------------------------------------------------------------
# Vectorized kernel (engine="batch-resident")
# ----------------------------------------------------------------------
from ..core.batchengine import BatchKernel, register_batch_kernel  # noqa: E402


@register_batch_kernel(MISProtocol)
class MISBatchKernel(BatchKernel):
    """Whole-column MIS guards.

    Mirrors the scalar cascade's short-circuits exactly: the neighbor's
    ``S`` is always read, its color only when ``S.(cur.p)=Dominator``
    (both the yield comparison and the claim disjunction stop there
    otherwise), which fixes the charged bits per branch.
    """

    rule_names = ("yield", "claim", "patrol")

    def __init__(self, protocol, store):
        super().__init__(protocol, store)
        self._s = store.slot("S")
        self._c = store.slot("C")
        self._cur = store.slot("cur")
        self._dom = store.encode(self._s, DOMINATOR)
        self._dominated = store.encode(self._s, DOMINATED)
        self._sbits = store.reg_bits("S")
        self._cbits = store.reg_bits("C")

    def classify(self, idx):
        store = self.store
        where = store.np.where
        s_col = store.col(self._s)
        c_col = store.col(self._c)
        c = store.gather(c_col, idx)
        cur = store.gather(store.col(self._cur), idx)
        q = store.neighbor_at(idx, cur)
        sq_dom = s_col[q] == self._dom
        cq = c_col[q]
        yields = sq_dom & (cq < c)
        claims = ~sq_dom | (c < cq)
        codes = where(
            store.gather(s_col, idx) == self._dom,
            where(yields, 0, 2),
            where(claims, 1, -1),
        )
        sb = self._sbits[q]
        bits = where(sq_dom, sb + self._cbits[q], sb)
        return codes, cur, bits, cur

    def plan_writes(self, idx, codes, aux, rng):
        cur = aux
        store = self.store
        y_idx = idx[codes == 0].tolist()
        if y_idx:
            store.write(self._s, y_idx, [self._dominated] * len(y_idx))
        is_claim = codes == 1
        c_idx = idx[is_claim].tolist()
        if c_idx:
            store.write(self._s, c_idx, [self._dom] * len(c_idx))
        moves = is_claim | (codes == 2)
        m_idx = idx[moves].tolist()
        if m_idx:
            new_cur = cur % store.gather(store.deg, idx) + 1
            store.write(self._cur, m_idx, new_cur[moves].tolist())

    def legitimate_cols(self) -> bool:
        """The MIS predicate straight from the columns.  Independence
        (no Dominator has a Dominator neighbor) and maximality (every
        dominated process has one) together say each process is a
        Dominator exactly when it has no Dominator neighbor."""
        store = self.store
        dom = store.col(self._s) == self._dom
        u, v = store.edges
        dom_nbr = store.np.zeros(store.n, dtype=bool)
        dom_nbr[u[dom[v]]] = True
        dom_nbr[v[dom[u]]] = True
        return bool((dom != dom_nbr).all())
