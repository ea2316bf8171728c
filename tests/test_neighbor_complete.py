"""Tests for the Definition-10 (neighbor-completeness) checkers."""

import pytest

from repro.core import ConvergenceError
from repro.graphs import chain, greedy_coloring, ring
from repro.predicates import (
    collect_silent_comm_states,
    coloring_pair_violates,
    enumerate_silent_configurations,
    find_neighbor_completeness_witness,
    matching_pair_violates,
    mis_pair_violates,
)
from repro.protocols import ColoringProtocol, MISProtocol


class TestExhaustiveEnumeration:
    def test_chain3_coloring_silent_configs(self):
        """On a 3-chain with 3 colors: 12 proper colorings × 2 pointer
        states of the middle process = 24 silent configurations, all
        legitimate (silent ⇒ legitimate for COLORING)."""
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        configs = list(enumerate_silent_configurations(proto, net))
        assert len(configs) == 24
        assert all(proto.is_legitimate(net, c) for c in configs)

    def test_chain2_mis_silent_configs(self):
        net = chain(2)
        proto = MISProtocol(net, {0: 1, 1: 2})
        configs = list(enumerate_silent_configurations(proto, net))
        assert configs
        for c in configs:
            assert proto.is_legitimate(net, c)

    def test_limit_respected(self):
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        assert len(list(enumerate_silent_configurations(proto, net, limit=5))) == 5

    def test_space_over_the_budget_fails_at_once(self):
        """3^12 colorings × 2^12 pointers is far over the enumerator's
        500,000-configuration budget: the first draw raises."""
        net = ring(12)
        proto = ColoringProtocol.for_network(net)
        with pytest.raises(ConvergenceError, match="max_configs"):
            next(enumerate_silent_configurations(proto, net))


class TestSampledStates:
    def test_collect_returns_states_for_every_process(self):
        net = ring(5)
        proto = ColoringProtocol.for_network(net)
        observed = collect_silent_comm_states(proto, net, samples=8, seed=0)
        assert set(observed) == set(net.processes)
        assert all(observed[p] for p in net.processes)

    def test_comm_states_only(self):
        net = chain(4)
        proto = ColoringProtocol.for_network(net)
        observed = collect_silent_comm_states(proto, net, samples=4, seed=1)
        for states in observed.values():
            for state in states:
                assert dict(state).keys() == {"C"}  # no internal cur


class TestWitnessSearch:
    def test_coloring_is_neighbor_complete(self):
        """The paper: every silent solution to coloring satisfies
        Definition 10 — every color appears at every process in some
        silent config, and equal colors on an edge violate P."""
        net = chain(4)
        proto = ColoringProtocol.for_network(net)
        w = find_neighbor_completeness_witness(
            proto, net, coloring_pair_violates, samples=40, seed=0
        )
        assert w is not None and w.complete

    def test_witness_states_are_genuinely_conflicting(self):
        net = ring(5)
        proto = ColoringProtocol.for_network(net)
        w = find_neighbor_completeness_witness(
            proto, net, coloring_pair_violates, samples=60, seed=1
        )
        assert w is not None
        for p, alpha_p in w.alpha.items():
            for q, alpha_q in w.conflicts[p].items():
                assert dict(alpha_p)["C"] == dict(alpha_q)["C"]

    def test_mis_with_fixed_colors_evades_the_witness(self):
        """MIS runs on a *locally identified* network — outside Theorem
        1's anonymous setting.  Concretely: a neighbor of a local color
        minimum is dominated in every silent configuration, so the
        both-Dominator pair needed by Definition 10 never materialises
        for it.  The sampled witness search must come up empty."""
        net = chain(4)
        proto = MISProtocol(net, greedy_coloring(net))
        w = find_neighbor_completeness_witness(
            proto, net, mis_pair_violates, samples=30, seed=0
        )
        assert w is None

    def test_pair_violation_helpers(self):
        net = chain(2)
        assert coloring_pair_violates(net, 0, (("C", 1),), 1, (("C", 1),))
        assert not coloring_pair_violates(net, 0, (("C", 1),), 1, (("C", 2),))
        assert mis_pair_violates(
            net, 0, (("S", "Dominator"),), 1, (("S", "Dominator"),)
        )
        assert not mis_pair_violates(
            net, 0, (("S", "Dominator"),), 1, (("S", "dominated"),)
        )
        assert matching_pair_violates(
            net, 0, (("M", False), ("PR", 0)), 1, (("M", False), ("PR", 0))
        )
        assert not matching_pair_violates(
            net, 0, (("M", False), ("PR", 0)), 1, (("M", True), ("PR", 1))
        )
