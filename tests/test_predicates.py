"""Unit tests for the legitimacy predicates."""

import pytest

from repro.core import Configuration
from repro.graphs import chain, clique, ring, star
from repro.predicates import (
    coloring_predicate,
    colors_used,
    conflict_count,
    conflicting_edges,
    dominators,
    independence_violations,
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_married,
    matched_edges,
    matching_predicate,
    married_processes,
    maximality_violations,
    mis_predicate,
    pr_target,
)


def cfg(mapping):
    return Configuration(mapping)


class TestColoringPredicate:
    def test_proper(self):
        net = chain(3)
        assert coloring_predicate(net, cfg({0: {"C": 1}, 1: {"C": 2}, 2: {"C": 1}}))

    def test_conflict(self):
        net = chain(3)
        assert not coloring_predicate(net, cfg({0: {"C": 1}, 1: {"C": 1}, 2: {"C": 2}}))

    def test_conflicting_edges(self):
        net = ring(4)
        config = cfg({0: {"C": 1}, 1: {"C": 1}, 2: {"C": 1}, 3: {"C": 2}})
        edges = conflicting_edges(net, config)
        assert sorted(tuple(sorted(e)) for e in edges) == [(0, 1), (1, 2)]

    def test_conflict_count_counts_processes(self):
        net = ring(4)
        config = cfg({0: {"C": 1}, 1: {"C": 1}, 2: {"C": 1}, 3: {"C": 2}})
        assert conflict_count(net, config) == 3

    def test_colors_used(self):
        net = chain(3)
        assert colors_used(net, cfg({0: {"C": 5}, 1: {"C": 5}, 2: {"C": 2}})) == 2


class TestMISPredicate:
    def _config(self, states):
        return cfg({p: {"S": s} for p, s in states.items()})

    def test_valid_mis(self):
        net = chain(3)
        config = self._config({0: "dominated", 1: "Dominator", 2: "dominated"})
        assert mis_predicate(net, config)

    def test_independence_violation(self):
        net = chain(3)
        config = self._config({0: "Dominator", 1: "Dominator", 2: "dominated"})
        assert not mis_predicate(net, config)
        assert independence_violations(net, config) == [(0, 1)]

    def test_maximality_violation(self):
        net = chain(5)
        config = self._config(
            {0: "Dominator", 1: "dominated", 2: "dominated", 3: "dominated", 4: "Dominator"}
        )
        assert not mis_predicate(net, config)
        assert maximality_violations(net, config) == [2]

    def test_empty_set_not_maximal(self):
        net = chain(3)
        config = self._config({p: "dominated" for p in net.processes})
        assert not mis_predicate(net, config)

    def test_set_helpers(self):
        net = star(3)
        assert is_independent_set(net, {1, 2, 3})
        assert not is_independent_set(net, {0, 1})
        assert is_maximal_independent_set(net, {0})
        assert not is_maximal_independent_set(net, {1})

    def test_dominators_extraction(self):
        net = chain(2)
        config = self._config({0: "Dominator", 1: "dominated"})
        assert dominators(net, config) == {0}


class TestMatchingPredicate:
    def _pair_config(self, net):
        """0↔1 married on a 4-chain; 2, 3 free."""
        return cfg(
            {
                0: {"PR": net.port_to(0, 1), "M": True},
                1: {"PR": net.port_to(1, 0), "M": True},
                2: {"PR": 0, "M": False},
                3: {"PR": 0, "M": False},
            }
        )

    def test_pr_target(self):
        net = chain(4)
        config = self._pair_config(net)
        assert pr_target(net, config, 0) == 1
        assert pr_target(net, config, 2) is None

    def test_is_married_requires_mutuality(self):
        net = chain(4)
        config = self._pair_config(net)
        config.set(2, "PR", net.port_to(2, 3))  # 2 points at 3, 3 free
        assert is_married(net, config, 0)
        assert not is_married(net, config, 2)

    def test_matched_edges(self):
        net = chain(4)
        assert matched_edges(net, self._pair_config(net)) == [(0, 1)]

    def test_not_maximal_with_free_edge(self):
        net = chain(4)
        config = self._pair_config(net)
        # Edge {2,3} has two free endpoints: the matching is not maximal.
        assert not matching_predicate(net, config)

    def test_maximal_matching_accepted(self):
        net = chain(4)
        config = cfg(
            {
                0: {"PR": net.port_to(0, 1), "M": True},
                1: {"PR": net.port_to(1, 0), "M": True},
                2: {"PR": net.port_to(2, 3), "M": True},
                3: {"PR": net.port_to(3, 2), "M": True},
            }
        )
        assert matching_predicate(net, config)

    def test_is_matching_rejects_shared_endpoint(self):
        net = star(3)
        assert not is_matching(net, [(0, 1), (0, 2)])

    def test_is_maximal_matching_on_star(self):
        net = star(3)
        assert is_maximal_matching(net, [(0, 1)])
        assert not is_maximal_matching(net, [])

    def test_married_processes(self):
        net = chain(4)
        assert married_processes(net, self._pair_config(net)) == {0, 1}

    def test_middle_matching_is_maximal_on_path4(self):
        net = chain(4)
        config = cfg(
            {
                0: {"PR": 0, "M": False},
                1: {"PR": net.port_to(1, 2), "M": True},
                2: {"PR": net.port_to(2, 1), "M": True},
                3: {"PR": 0, "M": False},
            }
        )
        assert matching_predicate(net, config)
