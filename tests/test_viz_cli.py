"""Tests for the ASCII visualization helpers and the CLI."""

import pytest

from repro.cli import main
from repro.core import Configuration, Simulator
from repro.graphs import chain, greedy_coloring, ring
from repro.protocols import ColoringProtocol, MatchingProtocol, MISProtocol
from repro.viz import (
    degree_table,
    histogram,
    render_chain_colors,
    render_coloring,
    render_matching,
    render_mis,
    render_network,
    sparkline,
)


class TestRenderers:
    def test_render_network_mentions_counts(self):
        out = render_network(ring(5))
        assert "n=5" in out and "m=5" in out

    def test_render_network_truncates(self):
        out = render_network(ring(40), max_rows=5)
        assert "more)" in out

    def test_render_coloring_flags_clashes(self):
        net = chain(3)
        config = Configuration({0: {"C": 1}, 1: {"C": 1}, 2: {"C": 2}})
        out = render_coloring(net, config)
        assert "!!" in out

    def test_render_coloring_clean_when_proper(self):
        net = chain(3)
        config = Configuration({0: {"C": 1}, 1: {"C": 2}, 2: {"C": 1}})
        assert "!!" not in render_coloring(net, config)

    def test_render_mis_marks(self):
        net = chain(3)
        config = Configuration(
            {0: {"S": "dominated"}, 1: {"S": "Dominator"}, 2: {"S": "dominated"}}
        )
        body = "\n".join(render_mis(net, config).splitlines()[1:])
        assert body.count("●") == 1 and body.count("○") == 2

    def test_render_matching_lists_pairs_and_free(self):
        net = chain(4)
        config = Configuration(
            {
                0: {"PR": 1, "M": True},
                1: {"PR": 1, "M": True},
                2: {"PR": 0, "M": False},
                3: {"PR": 0, "M": False},
            }
        )
        out = render_matching(net, config)
        assert "═══" in out and "free" in out

    def test_render_chain_colors(self):
        net = chain(3)
        config = Configuration({0: {"C": 2}, 1: {"C": 3}, 2: {"C": 1}})
        assert render_chain_colors(net, config) == "2-3-1"

    def test_sparkline_monotone(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_histogram_counts(self):
        out = histogram([1, 1, 1, 9], bins=2)
        assert "3" in out and "1" in out

    def test_histogram_empty(self):
        assert histogram([]) == "(no data)"

    def test_degree_table(self):
        assert degree_table(chain(4)) == {1: 2, 2: 2}


class TestCLI:
    def test_run_coloring(self, capsys):
        assert main(["run", "coloring", "--topology", "ring", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "stabilized=True" in out and "k-efficiency=1" in out

    def test_run_with_render(self, capsys):
        assert main(
            ["run", "mis", "--topology", "chain", "--n", "6", "--render"]
        ) == 0
        assert "●" in capsys.readouterr().out

    def test_run_with_scheduler(self, capsys):
        assert main(
            ["run", "matching", "--topology", "ring", "--n", "8",
             "--scheduler", "central"]
        ) == 0

    def test_stability_command(self, capsys):
        assert main(["stability", "mis", "--topology", "chain", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 6" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "thm1-overlay"]) == 0
        assert "demonstrates impossibility: True" in capsys.readouterr().out

    def test_demo_unknown(self):
        with pytest.raises(SystemExit):
            main(["demo", "nonsense"])

    def test_availability_command(self, capsys):
        assert main(
            ["availability", "coloring", "--topology", "ring", "--n", "8",
             "--total-rounds", "60"]
        ) == 0
        assert "availability" in capsys.readouterr().out

    def test_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["run", "paxos", "--topology", "ring", "--n", "8"])

    def test_unknown_topology(self):
        with pytest.raises(SystemExit):
            main(["run", "coloring", "--topology", "moebius", "--n", "8"])

    @pytest.mark.parametrize("command", [
        ["campaign"],
        ["fabric", "run", "--store", "fabric.sqlite"],
        ["fabric", "plan", "--workdir", "plan"],
    ], ids=["campaign", "fabric-run", "fabric-plan"])
    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_grid_commands_refuse_fewer_than_one_seed(
            self, command, seeds, capsys, tmp_path, monkeypatch):
        """An empty seed range would run an empty grid and exit 0."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--seeds", seeds])
        assert excinfo.value.code == 2
        assert (f"argument --seeds: must be at least 1, got {int(seeds)}"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())
