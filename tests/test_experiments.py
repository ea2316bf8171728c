"""Tests for the experiment harness (trial execution + tables)."""

from repro.api import execute_trial
from repro.core import CentralScheduler, SynchronousScheduler
from repro.experiments import format_markdown_table, format_table
from repro.graphs import ring
from repro.protocols import ColoringProtocol


class TestRunTrial:
    def test_trial_fields(self):
        net = ring(6)
        t = execute_trial(ColoringProtocol.for_network(net), net,
                          SynchronousScheduler(), seed=1)
        assert t.protocol == "COLORING"
        assert t.scheduler == "synchronous"
        assert (t.n, t.m, t.delta) == (6, 6, 2)
        assert t.legitimate and t.silent
        assert t.k_efficiency == 1

    def test_trial_with_explicit_scheduler(self):
        net = ring(6)
        t = execute_trial(ColoringProtocol.for_network(net), net,
                          CentralScheduler(), seed=2)
        assert t.scheduler == "central"
        # Central daemon: rounds cost about n steps each.
        assert t.steps >= t.rounds

    def test_trial_deterministic(self):
        net = ring(6)
        a = execute_trial(ColoringProtocol.for_network(net), net,
                          SynchronousScheduler(), seed=7)
        b = execute_trial(ColoringProtocol.for_network(net), net,
                          SynchronousScheduler(), seed=7)
        assert a == b


class TestTables:
    def test_ascii_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["bb", 2.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "----" in lines[2]
        assert "2.50" in lines[4]

    def test_bool_rendering(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_markdown(self):
        out = format_markdown_table(["a", "b"], [[1, 2]])
        lines = out.splitlines()
        assert lines[0].startswith("| a | b |")
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"
