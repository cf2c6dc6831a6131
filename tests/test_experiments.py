"""Tests for the experiment harness: registry, tables, CLI."""

import numpy as np
import pytest

from repro.experiments import REGISTRY, Column, ResultTable, run_experiment
from repro.experiments.cli import build_parser, main


class TestResultTable:
    def make_table(self):
        table = ResultTable(
            title="Demo",
            columns=[Column("n", "N"), Column("hops", "hops", ".2f")],
        )
        table.add_row(n=128, hops=3.14159)
        table.add_row(n=256, hops=4.0)
        table.add_note("a note")
        return table

    def test_render_contains_values(self):
        text = self.make_table().render()
        assert "Demo" in text
        assert "3.14" in text
        assert "256" in text
        assert "note: a note" in text

    def test_render_aligns_columns(self):
        lines = self.make_table().render().splitlines()
        header = next(l for l in lines if "hops" in l and "|" in l)
        row = next(l for l in lines if "3.14" in l)
        assert header.index("|") == row.index("|")

    def test_missing_value_rendered_as_dash(self):
        table = ResultTable("T", [Column("a", "A"), Column("b", "B")])
        table.add_row(a=1)
        assert "-" in table.render()

    def test_csv(self):
        csv = self.make_table().to_csv()
        lines = csv.splitlines()
        assert lines[0] == "n,hops"
        assert lines[1] == "128,3.14"


class TestRegistry:
    def test_all_fourteen_registered(self):
        assert sorted(REGISTRY) == sorted(f"E{i}" for i in range(1, 15))

    def test_entries_well_formed(self):
        for exp in REGISTRY.values():
            assert exp.title
            assert exp.paper_anchor
            assert callable(exp.fn)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        tables = run_experiment("e2", seed=3, quick=True)
        assert tables[0].rows


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", sorted(REGISTRY))
def test_every_experiment_runs_quick(exp_id):
    """Smoke: every experiment completes in quick mode and yields rows."""
    tables = run_experiment(exp_id, seed=7, quick=True)
    assert tables
    for table in tables:
        assert table.rows
        rendered = table.render()
        assert exp_id.upper()[:2] in rendered or table.title


class TestExpectationsQuick:
    """Check the headline *shapes* at quick scale (fast, seed-pinned)."""

    def test_e1_hops_below_bound(self):
        (table,) = run_experiment("E1", seed=11, quick=True)
        for row in table.rows:
            assert row["interval_hops"] < row["bound"]
            assert row["success"] == 1.0

    def test_e2_bounds_hold(self):
        (table,) = run_experiment("E2", seed=11, quick=True)
        for row in table.rows:
            assert row["p_advance"] >= row["bound_c"]
            assert row["mean_run"] <= row["bound_run"]

    def test_e6_model_flat_naive_blows_up(self):
        (table,) = run_experiment("E6", seed=11, quick=True)
        first, last = table.rows[0], table.rows[-1]
        assert last["model"] < first["model"] * 1.5  # flat in skew
        assert last["naive"] > 5 * last["model"]  # naive degrades badly
        assert last["pgrid_table"] > first["pgrid_table"]  # state grows

    @pytest.mark.parametrize("seed", range(6))
    def test_e7_ks_distances_stay_small(self, seed):
        """Both E7 comparisons keep the few-percent KS distance."""
        (table,) = run_experiment("E7", seed=seed, quick=True)
        for row in table.rows:
            assert row["ks_stat"] < 0.08, row

    def test_e9_success_stays_perfect_under_link_loss(self):
        loss_table = run_experiment("E9", seed=11, quick=True)[0]
        for row in loss_table.rows:
            assert row["success"] == 1.0


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E14" in out

    def test_run_command_prints_table(self, capsys):
        assert main(["run", "E2", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "partition advance" in out
        assert "completed in" in out

    def test_run_csv(self, capsys):
        assert main(["run", "E2", "--quick", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "partition," in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E99", "--quick"]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
