"""Tests for the E13/E14 extensions."""

import pytest

from repro.experiments import run_experiment


class TestE13Ablations:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("E13", seed=5, quick=True)[0]

    def test_has_all_variants(self, table):
        variants = {row["variant"] for row in table.rows}
        assert len(variants) == 7
        assert any("lookahead" in v for v in variants)
        assert any("exact" in v for v in variants)

    def test_all_variants_deliver(self, table):
        assert all(row["success"] == 1.0 for row in table.rows)

    def test_samplers_agree(self, table):
        rows = {row["variant"]: row for row in table.rows}
        base = rows["baseline (fast, dedupe, cutoff 1/N)"]["hops"]
        assert abs(rows["exact sampler"]["hops"] - base) < 0.4 * base

    def test_no_dedupe_fewer_effective_links(self, table):
        rows = {row["variant"]: row for row in table.rows}
        base_links = rows["baseline (fast, dedupe, cutoff 1/N)"]["links"]
        assert rows["no dedupe (literal i.i.d. draws)"]["links"] < base_links

    def test_improvements_never_hurt(self, table):
        rows = {row["variant"]: row for row in table.rows}
        base = rows["baseline (fast, dedupe, cutoff 1/N)"]["hops"]
        assert rows["bidirectional long links"]["hops"] <= base * 1.1
        assert rows["NoN lookahead routing [ref 10]"]["hops"] <= base * 1.1


class TestE14Variance:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("E14", seed=5, quick=True)[0]

    def test_rows_per_model_and_size(self, table):
        assert len(table.rows) == 4  # 2 models x 2 quick sizes
        assert {row["model"] for row in table.rows} == {"uniform", "skewed"}

    def test_moments_consistent(self, table):
        for row in table.rows:
            assert row["std"] >= 0
            assert row["mean"] <= row["p95"] <= row["p99"] <= row["max"]

    def test_no_heavy_tail(self, table):
        for row in table.rows:
            assert row["p99"] < 3 * row["mean"] + 2

    def test_skew_does_not_change_spread(self, table):
        by = {(r["model"], r["n"]): r for r in table.rows}
        sizes = sorted({r["n"] for r in table.rows})
        for n in sizes:
            assert abs(by[("skewed", n)]["std"] - by[("uniform", n)]["std"]) < 1.0
