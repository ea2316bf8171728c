"""Tests for protocol MATCHING (Figure 10, Theorems 7–8, Lemmas 5–9)."""

import random

import pytest

from repro.analysis import (
    matching_round_bound,
    matching_stability_bound,
    min_maximal_matching_size,
)
from repro.core import Simulator
from repro.graphs import (
    Network,
    chain,
    clique,
    figure11_graph,
    greedy_coloring,
    grid,
    random_connected,
    random_tree,
    ring,
    star,
)
from repro.predicates import (
    is_maximal_matching,
    is_married,
    matched_edges,
    married_processes,
    pr_target,
)
from repro.protocols import MatchingProtocol

FAMILIES = {
    "chain8": lambda: chain(8),
    "ring9": lambda: ring(9),
    "star6": lambda: star(6),
    "clique5": lambda: clique(5),
    "grid3x4": lambda: grid(3, 4),
    "gnp16": lambda: random_connected(16, 0.3, seed=2),
    "tree12": lambda: random_tree(12, seed=4),
}


def make(net):
    return MatchingProtocol(net, greedy_coloring(net))


class TestStructure:
    def test_variable_kinds(self):
        net = chain(3)
        proto = make(net)
        kinds = {s.name: s.kind for s in proto.variables(net, 1)}
        assert kinds == {
            "M": "comm",
            "PR": "comm",
            "C": "const",
            "cur": "internal",
        }

    def test_pr_domain_includes_zero(self):
        net = chain(3)
        proto = make(net)
        pr = next(s for s in proto.variables(net, 1) if s.name == "PR")
        assert 0 in pr.domain and net.degree(1) in pr.domain

    def test_six_actions_in_paper_order(self):
        net = chain(3)
        names = [a.name for a in make(net).actions()]
        assert names == [
            "realign",
            "publish",
            "accept",
            "abandon",
            "propose",
            "seek",
        ]


class TestStabilization:
    """Theorem 7: stabilizes to the maximal matching predicate."""

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stabilizes(self, family, seed):
        net = FAMILIES[family]()
        sim = Simulator(make(net), net, seed=seed)
        report = sim.run_until_silent(max_rounds=50_000)
        assert report.stabilized

    def test_stabilizes_under_every_scheduler(self, any_scheduler):
        net = random_connected(12, 0.3, seed=6)
        sim = Simulator(make(net), net, scheduler=any_scheduler, seed=3)
        assert sim.run_until_silent(max_rounds=100_000).stabilized

    def test_result_is_maximal_matching(self):
        net = random_connected(15, 0.3, seed=8)
        proto = make(net)
        sim = Simulator(proto, net, seed=1)
        sim.run_until_silent(max_rounds=50_000)
        assert is_maximal_matching(net, matched_edges(net, sim.config))

    def test_matching_size_lower_bound(self):
        """Biedl et al.: maximal matchings have ≥ ⌈m/(2Δ−1)⌉ edges."""
        for seed in range(3):
            net = random_connected(14, 0.35, seed=seed)
            proto = make(net)
            sim = Simulator(proto, net, seed=seed)
            sim.run_until_silent(max_rounds=50_000)
            assert len(matched_edges(net, sim.config)) >= min_maximal_matching_size(net)


class TestLemmas:
    def test_lemma5_every_process_free_or_married(self):
        """In a silent configuration no process is mid-proposal."""
        net = random_connected(14, 0.3, seed=5)
        proto = make(net)
        sim = Simulator(proto, net, seed=2)
        sim.run_until_silent(max_rounds=50_000)
        for p in net.processes:
            free = sim.config.get(p, "PR") == 0
            married = is_married(net, sim.config, p)
            assert free or married

    def test_lemma7_pr_in_zero_or_cur_after_first_round(self):
        net = random_connected(12, 0.3, seed=9)
        proto = make(net)
        sim = Simulator(proto, net, seed=7)
        sim.run_rounds(1)
        for _ in range(80):
            sim.step()
            for p in net.processes:
                assert sim.config.get(p, "PR") in (0, sim.config.get(p, "cur"))

    def test_married_count_monotone_after_first_round(self):
        """Lemma 8's engine: once married, married forever."""
        net = random_connected(12, 0.3, seed=3)
        proto = make(net)
        sim = Simulator(proto, net, seed=5)
        sim.run_rounds(1)
        prev = married_processes(net, sim.config)
        for _ in range(200):
            sim.step()
            now = married_processes(net, sim.config)
            assert prev <= now
            prev = now

    def test_published_m_flags_match_marriages_at_silence(self):
        net = random_connected(12, 0.3, seed=4)
        proto = make(net)
        sim = Simulator(proto, net, seed=6)
        sim.run_until_silent(max_rounds=50_000)
        for p in net.processes:
            assert sim.config.get(p, "M") == is_married(net, sim.config, p)

    def test_unmarried_have_pr_zero_at_silence(self):
        net = random_connected(12, 0.3, seed=4)
        proto = make(net)
        sim = Simulator(proto, net, seed=6)
        sim.run_until_silent(max_rounds=50_000)
        for p in net.processes:
            if not is_married(net, sim.config, p):
                assert sim.config.get(p, "PR") == 0


class TestRoundBound:
    """Lemma 9: silence within (Δ+1)·n + 2 rounds."""

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rounds_within_bound(self, family, seed):
        net = FAMILIES[family]()
        sim = Simulator(make(net), net, seed=seed)
        report = sim.run_until_silent(max_rounds=50_000)
        assert report.rounds <= matching_round_bound(net)


class TestEfficiencyAndStability:
    def test_one_efficient(self, any_scheduler):
        net = random_connected(12, 0.3, seed=2)
        sim = Simulator(make(net), net, scheduler=any_scheduler, seed=6)
        sim.run_until_silent(max_rounds=100_000)
        assert sim.metrics.observed_k_efficiency() == 1

    @pytest.mark.parametrize(
        "maker",
        [lambda: figure11_graph()[0], lambda: chain(10), lambda: ring(8)],
        ids=["fig11", "chain10", "ring8"],
    )
    def test_stability_bound_theorem8(self, maker):
        """♦-(2⌈m/(2Δ−1)⌉, 1)-stability."""
        net = maker()
        proto = make(net)
        sim = Simulator(proto, net, seed=3)
        sim.run_until_silent(max_rounds=50_000)
        suffix = sim.measure_suffix_stability(extra_rounds=30)
        one_stable = sum(1 for ports in suffix.values() if len(ports) <= 1)
        assert one_stable >= matching_stability_bound(net)

    def test_married_watch_only_their_spouse(self):
        net = chain(9)
        proto = make(net)
        sim = Simulator(proto, net, seed=3)
        sim.run_until_silent(max_rounds=50_000)
        married = married_processes(net, sim.config)
        suffix = sim.measure_suffix_stability(extra_rounds=30)
        for p in married:
            assert len(suffix[p]) == 1
            (port,) = suffix[p]
            assert net.neighbor_at(p, port) == pr_target(net, sim.config, p)

    def test_free_processes_keep_scanning(self):
        """Free survivors patrol all neighbors — they are the non-stable
        fraction, exactly as Theorem 8's accounting expects."""
        net = star(4)  # one center, one marriage, leaves keep scanning
        proto = make(net)
        sim = Simulator(proto, net, seed=5)
        sim.run_until_silent(max_rounds=50_000)
        married = married_processes(net, sim.config)
        suffix = sim.measure_suffix_stability(extra_rounds=30)
        for p in net.processes:
            if p not in married and net.degree(p) > 1:
                assert len(suffix[p]) == net.degree(p)


class TestColumnarVerdict:
    """The batch kernel's ``legitimate_cols`` gathers ``PR.i``'s target
    as ``flat[start[i] + PR.i − 1]`` and its pointer back as
    ``flat[start[q] + PR.q − 1]``.  A null pointer wraps to
    ``flat[start[i] − 1]``: the previous process's last port, or the
    last entry of ``flat`` for the first process.  In each case below
    that wrapped entry leads to a process whose pointer would close a
    marriage, and the false marriage would cover every uncovered edge,
    so dropping the ``!= 0`` term that masks it flips the verdict.  A
    wrapped null source is also a wrapped null target seen from the
    other end (the process pointing at it wraps back onto itself), so
    the first two cases flip without either term."""

    @pytest.mark.parametrize("net,pr", [
        # 0's null PR wraps to the last entry of flat, 3's last port,
        # which leads to 2; 2 points at 0.  Masked by PR.i != 0 (and,
        # from 2's end, by PR.q != 0).
        (Network.from_edges(range(4), [(0, 2), (1, 3), (3, 0), (3, 2)]),
         {0: 0, 1: 1, 2: 1, 3: 1}),
        # 1's null PR wraps to 0's last port, which leads to 3; 3
        # points at 1.  Masked by PR.i != 0 (and, from 3's end, by
        # PR.q != 0).
        (Network.from_edges(range(4), [(0, 2), (0, 3), (1, 3)]),
         {0: 1, 1: 0, 2: 1, 3: 2}),
        # 1 points at 0, whose null PR wraps to the last entry of flat,
        # 2's port to 1.  Masked by PR.q != 0.
        (chain(3), {0: 0, 1: 1, 2: 0}),
        # 0 points at 2, whose null PR wraps to 1's last port, to 0.
        # Masked by PR.q != 0.
        (star(2), {0: 2, 1: 0, 2: 0}),
    ], ids=["null-source-first", "null-source-later", "null-target-first",
            "null-target-later"])
    def test_verdict_masks_wrapped_null_pointers(self, net, pr):
        proto = make(net)
        config = proto.arbitrary_configuration(net, random.Random(0))
        for p, port in pr.items():
            config.set(p, "PR", port)
        sim = Simulator(proto, net, config=config, seed=0,
                        engine="batch-resident")
        assert sim.engine.batch_active
        assert sim.engine.legitimate() is False
        assert proto.is_legitimate(net, sim.config) is False
