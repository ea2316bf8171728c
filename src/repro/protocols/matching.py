"""Protocol MATCHING (paper Figure 10).

A 1-efficient deterministic silent protocol that stabilizes to the
maximal matching predicate in locally identified networks.  Derived
from Manne, Mjelde, Pilard & Tixeuil (Sirocco 2007) with the round-robin
``cur`` pointer supplying the 1-efficiency::

    Communication Variables:  M.p ∈ {true, false},  PR.p ∈ {0 .. δ.p}
    Communication Constant:   C.p (color)
    Internal Variable:        cur.p ∈ [1 .. δ.p]
    Predicate:  PRmarried(p) ≡ (PR.p = cur.p ∧ PR.(cur.p) = p)
    Actions (priority order):
      (PR.p ∉ {0, cur.p})                                  → PR.p ← cur.p
      (M.p ≠ PRmarried(p))                                 → M.p ← PRmarried(p)
      (PR.p = 0 ∧ PR.(cur.p) = p)                          → PR.p ← cur.p
      (PR.p = cur.p ∧ PR.(cur.p) ≠ p
         ∧ (M.(cur.p) ∨ C.(cur.p) ≺ C.p))                  → PR.p ← 0
      (PR.p = 0 ∧ PR.(cur.p) = 0 ∧ C.p ≺ C.(cur.p)
         ∧ ¬M.(cur.p))                                     → PR.p ← cur.p
      (PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨ C.(cur.p) ≺ C.p
         ∨ M.(cur.p)))                                     → cur.p ← (cur.p mod δ.p)+1

``PR`` values are local port indices; "PR.(cur.p) = p" tests whether the
pointed neighbor's pointer leads back across the shared edge, which the
simulator resolves through the port maps of both endpoints.

Convergence: at most (Δ+1)·n + 2 rounds (Lemma 9) — the married set only
grows, and each maximal connected set of unmarried processes loses two
members every 2Δ+2 rounds (Lemma 8).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..core.actions import GuardedAction
from ..core.state import Configuration
from ..core.variables import BOOL, IntRange, VariableSpec, const, comm, internal
from ..graphs.coloring import (
    ColorConstant,
    Coloring,
    DegreeSpecs,
    assert_local_identifiers,
)
from ..graphs.topology import Network
from ..predicates.matching import matched_edges, matching_predicate

ProcessId = Hashable


class MatchingProtocol(ColorConstant, DegreeSpecs):
    """The paper's Protocol MATCHING over a local-identifier coloring."""

    name = "MATCHING"
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
            comm("M", BOOL),
            comm("PR", IntRange(0, degree)),
            const("C", self._color_domain),
            internal("cur", IntRange(1, degree)),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _points_back(ctx, port: int) -> bool:
        """PR.(port) = p — does the pointed neighbor's PR cross back?"""
        pr_q = ctx.read(port, "PR")
        if pr_q == 0:
            return False
        q = ctx.network.neighbor_at(ctx.pid, port)
        return ctx.network.neighbor_at(q, pr_q) == ctx.pid

    @classmethod
    def _pr_married(cls, ctx) -> bool:
        """PRmarried(p) ≡ PR.p = cur.p ∧ PR.(cur.p) = p."""
        cur = ctx.get("cur")
        if ctx.get("PR") != cur:
            return False
        return cls._points_back(ctx, cur)

    def actions(self) -> Tuple[GuardedAction, ...]:
        points_back = self._points_back
        pr_married = self._pr_married

        # 1. (PR.p ∉ {0, cur.p}) → PR.p ← cur.p
        def realign_guard(ctx) -> bool:
            return ctx.get("PR") not in (0, ctx.get("cur"))

        def realign_effect(ctx) -> None:
            ctx.set("PR", ctx.get("cur"))

        # 2. (M.p ≠ PRmarried(p)) → M.p ← PRmarried(p)
        def publish_guard(ctx) -> bool:
            return ctx.get("M") != pr_married(ctx)

        def publish_effect(ctx) -> None:
            ctx.set("M", pr_married(ctx))

        # 3. (PR.p = 0 ∧ PR.(cur.p) = p) → PR.p ← cur.p
        def accept_guard(ctx) -> bool:
            return ctx.get("PR") == 0 and points_back(ctx, ctx.get("cur"))

        def accept_effect(ctx) -> None:
            ctx.set("PR", ctx.get("cur"))

        # 4. (PR.p = cur.p ∧ PR.(cur.p) ≠ p ∧ (M.(cur.p) ∨ C.(cur.p) ≺ C.p))
        #        → PR.p ← 0
        def abandon_guard(ctx) -> bool:
            cur = ctx.get("cur")
            if ctx.get("PR") != cur or points_back(ctx, cur):
                return False
            return ctx.read(cur, "M") or ctx.read(cur, "C") < ctx.get("C")

        def abandon_effect(ctx) -> None:
            ctx.set("PR", 0)

        # 5. (PR.p = 0 ∧ PR.(cur.p) = 0 ∧ C.p ≺ C.(cur.p) ∧ ¬M.(cur.p))
        #        → PR.p ← cur.p
        def propose_guard(ctx) -> bool:
            cur = ctx.get("cur")
            return (
                ctx.get("PR") == 0
                and ctx.read(cur, "PR") == 0
                and ctx.get("C") < ctx.read(cur, "C")
                and not ctx.read(cur, "M")
            )

        def propose_effect(ctx) -> None:
            ctx.set("PR", ctx.get("cur"))

        # 6. (PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨ C.(cur.p) ≺ C.p ∨ M.(cur.p)))
        #        → cur.p ← (cur.p mod δ.p)+1
        def seek_guard(ctx) -> bool:
            cur = ctx.get("cur")
            if ctx.get("PR") != 0:
                return False
            return (
                ctx.read(cur, "PR") != 0
                or ctx.read(cur, "C") < ctx.get("C")
                or ctx.read(cur, "M")
            )

        def seek_effect(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("realign", realign_guard, realign_effect),
            GuardedAction("publish", publish_guard, publish_effect),
            GuardedAction("accept", accept_guard, accept_effect),
            GuardedAction("abandon", abandon_guard, abandon_effect),
            GuardedAction("propose", propose_guard, propose_effect),
            GuardedAction("seek", seek_guard, seek_effect),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return matching_predicate(network, config)

    # ------------------------------------------------------------------
    def in_matching(
        self, network: Network, config: Configuration, p: ProcessId, q: ProcessId
    ) -> bool:
        """The paper's output ``inMM[q].p ∨ inMM[p].q`` for edge {p, q}."""
        return (p, q) in matched_edges(network, config) or (q, p) in matched_edges(
            network, config
        )

    def matching(self, network: Network, config: Configuration) -> List[Tuple]:
        return matched_edges(network, config)


# ----------------------------------------------------------------------
# Vectorized kernel (engine="batch-resident")
# ----------------------------------------------------------------------
from ..core.batchengine import BatchKernel, register_batch_kernel  # noqa: E402


@register_batch_kernel(MatchingProtocol)
class MatchingBatchKernel(BatchKernel):
    """Whole-column MATCHING guards.

    The six-action cascade partitions on ``PR.p``: pointing elsewhere
    (``realign``, no reads), pointing at ``cur`` (``publish`` /
    ``abandon`` / disabled — registers charged in PR, M, C order), or
    null (``publish`` / ``accept`` / ``propose`` / ``seek`` / disabled
    — PR, C, M order), exactly the scalar guards' short-circuit walk.
    ``PR.(cur.p) = p`` resolves through both endpoints' port maps via
    the store's CSR port arrays.
    """

    rule_names = ("realign", "publish", "accept", "abandon", "propose", "seek")

    def __init__(self, protocol, store):
        super().__init__(protocol, store)
        self._m = store.slot("M")
        self._pr = store.slot("PR")
        self._c = store.slot("C")
        self._cur = store.slot("cur")
        self._prbits = store.reg_bits("PR")
        self._mbits = store.reg_bits("M")
        self._cbits = store.reg_bits("C")

    def classify(self, idx):
        store = self.store
        where = store.np.where
        m_col = store.col(self._m)
        pr_col = store.col(self._pr)
        c_col = store.col(self._c)
        gather = store.gather
        m = gather(m_col, idx)
        pr = gather(pr_col, idx)
        c = gather(c_col, idx)
        cur = gather(store.col(self._cur), idx)
        q = store.neighbor_at(idx, cur)
        prq = pr_col[q]
        mq = m_col[q] == 1
        cq = c_col[q]
        # PR.(cur.p) = p: q's pointed port leads back across the edge.
        # A null PR.q gathers the port before q's first harmlessly —
        # masked out.
        back = store.neighbor_at(q, prq)
        pb = (prq != 0) & (back == idx)

        case_a = (pr != 0) & (pr != cur)
        case_b = pr == cur
        # -- PR.p = cur.p: publish / (pointed-back: disabled) / abandon
        b_pub = m != where(pb, 1, 0)
        abandons = mq | (cq < c)
        codes_b = where(b_pub, 1, where(pb, -1, where(abandons, 3, -1)))
        read_m_b = ~b_pub & ~pb
        read_c_b = read_m_b & ~mq
        # -- PR.p = 0: publish / accept / propose / seek / disabled
        c_pub = m == 1
        prq0 = prq == 0
        c_lt = c < cq
        cq_lt = cq < c
        inner = where(
            c_lt,
            where(mq, 5, 4),
            where(cq_lt, 5, where(mq, 5, -1)),
        )
        codes_c = where(c_pub, 1, where(pb, 2, where(~prq0, 5, inner)))
        read_pr_c = ~c_pub
        read_c_c = read_pr_c & ~pb & prq0
        read_m_c = read_c_c & (c_lt | (cq == c))

        codes = where(case_a, 0, where(case_b, codes_b, codes_c))
        has_read = where(case_a, False, where(case_b, True, read_pr_c))
        ports = where(has_read, cur, 0)
        prb = self._prbits[q]
        mb = self._mbits[q]
        cb = self._cbits[q]
        # Bits sum in each branch's read order: PR, M, C pointing at
        # cur; PR, C, M when null.
        bits_b = where(
            read_c_b, (prb + mb) + cb, where(read_m_b, prb + mb, prb)
        )
        bits_c = where(
            read_m_c, (prb + cb) + mb, where(read_c_c, prb + cb, prb)
        )
        bits = where(
            case_a, 0.0, where(case_b, bits_b, where(read_pr_c, bits_c, 0.0))
        )
        return codes, ports, bits, (cur, pb, case_b)

    def plan_writes(self, idx, codes, aux, rng):
        cur, pb, case_b = aux
        store = self.store
        where = store.np.where
        # realign/accept/propose point PR at cur; abandon nulls it.
        pr_cur = (codes == 0) | (codes == 2) | (codes == 4)
        pr_any = pr_cur | (codes == 3)
        pr_idx = idx[pr_any].tolist()
        if pr_idx:
            vals = where(pr_cur, cur, 0)
            store.write(self._pr, pr_idx, vals[pr_any].tolist())
        is_pub = codes == 1
        pub_idx = idx[is_pub].tolist()
        if pub_idx:
            # M <- PRmarried(p) against the same pre-step columns.
            m_vals = where(pb & case_b, 1, 0)
            store.write(self._m, pub_idx, m_vals[is_pub].tolist())
        is_seek = codes == 5
        seek_idx = idx[is_seek].tolist()
        if seek_idx:
            new_cur = cur % store.gather(store.deg, idx) + 1
            store.write(self._cur, seek_idx, new_cur[is_seek].tolist())

    def legitimate_cols(self) -> bool:
        """The maximal matching predicate straight from the columns:
        every edge has a married endpoint.  Process ``i`` is married
        when ``PR.i`` points at a neighbor whose ``PR`` points back.
        Each process has one pointer, so the married pairs are always
        a matching; only maximality needs checking."""
        store = self.store
        idx = store.all_idx
        pr = store.col(self._pr)
        # A null PR.i gathers flat[start[i] - 1] (the previous process's
        # last port; the last entry of ``flat`` for i = 0) harmlessly;
        # the ``!= 0`` terms mask it out.
        q = store.neighbor_at(idx, pr)
        prq = pr[q]
        married = ((pr != 0) & (prq != 0)
                   & (store.neighbor_at(q, prq) == idx))
        u, v = store.edges
        return bool((married[u] | married[v]).all())
