"""Tests for the exhaustive small-model verifier."""

import pytest

from repro.analysis import matching_round_bound, mis_round_bound
from repro.core import ConvergenceError, DomainError, IntRange, Protocol
from repro.core.actions import GuardedAction
from repro.core.variables import comm
from repro.graphs import chain, ring, theorem1_chain
from repro.impossibility import FixedWatchColoring
from repro.protocols import ColoringProtocol, MISProtocol, MatchingProtocol
from repro.verification import (
    enumerate_configurations,
    exact_worst_case_rounds,
    verify_closure,
    verify_convergence_round_robin,
)


class TestEnumeration:
    def test_counts_full_product(self):
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        # colors 3^3 × cur (1 × 2 × 1) = 54 configurations.
        assert sum(1 for _ in enumerate_configurations(proto, net)) == 54

    def test_constants_pinned(self):
        net = chain(2)
        proto = MISProtocol(net, {0: 1, 1: 2})
        for config in enumerate_configurations(proto, net):
            assert config.get(0, "C") == 1
            assert config.get(1, "C") == 2

    def test_budget_guard(self):
        net = ring(12)
        proto = ColoringProtocol.for_network(net)
        with pytest.raises(ConvergenceError):
            list(enumerate_configurations(proto, net, max_configs=100))


class TestClosure:
    def test_coloring_closure_lemma1(self):
        """Lemma 1, verified exhaustively: COLORING never breaks a
        proper coloring."""
        net = chain(3)
        report = verify_closure(ColoringProtocol.for_network(net), net)
        assert report.holds
        assert report.legitimate_configs == 24  # 12 proper × 2 cur states

    def test_mis_predicate_not_closed_midflight(self):
        """The MIS predicate is NOT closed for protocol MIS: a
        legitimate-but-not-silent configuration (a dominated process
        pointing at a dominated neighbor) steps out of legitimacy before
        re-converging.  The paper only claims silent ⇒ legitimate
        (Lemma 3); this verifies our implementation honestly reflects
        that distinction."""
        net = chain(3)
        report = verify_closure(MISProtocol(net, {0: 1, 1: 2, 2: 1}), net)
        assert not report.holds

    def test_strawman_closure(self):
        """The fixed-watch strawman never recolors a properly colored
        network either — its failure is liveness, not closure."""
        net = theorem1_chain()
        report = verify_closure(FixedWatchColoring(palette_size=3), net)
        assert report.holds


class TestConvergence:
    def test_coloring_converges_from_everywhere(self):
        net = chain(3)
        report = verify_convergence_round_robin(
            ColoringProtocol.for_network(net), net
        )
        assert report.all_converged
        assert report.configs_checked == 54
        # recolor draws, so this explores every branch of the palette
        assert report.worst_steps == 3

    def test_mis_converges_from_everywhere(self):
        net = chain(3)
        report = verify_convergence_round_robin(
            MISProtocol(net, {0: 1, 1: 2, 2: 1}), net
        )
        assert report.all_converged

    def test_matching_converges_from_everywhere(self):
        net = chain(3)
        report = verify_convergence_round_robin(
            MatchingProtocol(net, {0: 1, 1: 2, 2: 1}), net
        )
        assert report.all_converged

    def test_strawman_does_not_converge_on_adversarial_ports(self):
        """The exhaustive checker finds Theorem 1's deadlock on its own:
        with the 3–4 edge unwatched, some configuration never reaches a
        legitimate silent state (it is silent but monochromatic)."""
        net = theorem1_chain().with_ports({3: [2, 4], 4: [5, 3]})
        proto = FixedWatchColoring(palette_size=3)
        # Every start reaches *silence* (the strawman always deadlocks
        # into some silent configuration)...
        report = verify_convergence_round_robin(proto, net)
        assert report.all_converged
        # ...but not every silent endpoint is legitimate: exhibit one.
        from repro.impossibility import build_trap_configuration
        from repro.core import is_silent

        trap = build_trap_configuration(proto, net, (3, 4))
        assert is_silent(proto, net, trap)
        assert not proto.is_legitimate(net, trap)


class TestExactWorstCase:
    def test_mis_exact_worst_case_within_lemma4(self):
        net = chain(3)
        colors = {0: 1, 1: 2, 2: 1}
        exact = exact_worst_case_rounds(MISProtocol(net, colors), net)
        assert exact <= mis_round_bound(net, colors)

    def test_matching_exact_worst_case_within_lemma9(self):
        net = chain(3)
        exact = exact_worst_case_rounds(
            MatchingProtocol(net, {0: 1, 1: 2, 2: 1}), net
        )
        assert exact <= matching_round_bound(net)

    def test_bound_gap_is_visible(self):
        """The exact worst case is far below the lemma bounds on tiny
        instances — the bounds are safe, not tight, exactly as the
        paper's analysis suggests."""
        net = chain(3)
        colors = {0: 1, 1: 2, 2: 1}
        exact = exact_worst_case_rounds(MISProtocol(net, colors), net)
        assert exact < mis_round_bound(net, colors)


class OutOfDomainWrite(Protocol):
    """A deterministic protocol whose effect writes outside its domain."""

    name = "out-of-domain-write"

    def variables(self, network, p):
        return (comm("x", IntRange(0, 1)),)

    def actions(self):
        return (
            GuardedAction(
                "bump",
                lambda ctx: ctx.get("x") == 0,
                lambda ctx: ctx.set("x", 5),
            ),
        )

    def is_legitimate(self, network, config):
        return True


class TestEffectErrors:
    def test_buggy_deterministic_effect_raises_its_own_error(self):
        """Only an effect that asks for a draw is branched; any other
        error of an effect reaches the caller as it is, from the
        closure check as from the convergence check."""
        net = chain(2)
        with pytest.raises(DomainError, match="outside domain"):
            verify_closure(OutOfDomainWrite(), net)
        with pytest.raises(DomainError, match="outside domain"):
            verify_convergence_round_robin(OutOfDomainWrite(), net)
