"""Experiment harnesses: shape assertions against the paper's claims.

These run the quick slave grid on the mini/real datasets in model mode,
checking the *relationships* the paper reports (who wins, monotonicity,
approximate factors) rather than exact numbers.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.ablations import (
    run_ablation_balancing,
    run_ablation_hierarchy,
    run_ablation_mcpsc,
)
from repro.experiments.common import (
    SLAVE_GRID_FULL,
    SLAVE_GRID_QUICK,
    ascii_plot,
    render_table,
)
from repro.experiments.exp1 import run_exp1
from repro.experiments.exp2 import run_exp2
from repro.experiments.table1 import run_table1
from repro.experiments.table3 import run_table3
from repro.experiments.table5 import run_table5


class TestCommon:
    def test_grids(self):
        assert len(SLAVE_GRID_FULL) == 24
        assert SLAVE_GRID_FULL[0] == 1 and SLAVE_GRID_FULL[-1] == 47
        assert set(SLAVE_GRID_QUICK) <= set(SLAVE_GRID_FULL)

    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), (10, 0.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_ascii_plot_runs(self):
        out = ascii_plot({"s": [(1, 10.0), (2, 100.0)]}, logy=True)
        assert "legend" in out

    def test_ascii_plot_rejects_nonpositive_log(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": [(1, 0.0)]}, logy=True)


class TestTable1:
    def test_mentions_key_features(self):
        text = run_table1().to_text()
        assert "6x4 mesh" in text
        assert "48 cores" in text
        assert "16KB" in text
        assert "4 iMCs" in text


class TestTable3:
    def test_reproduces_paper_within_tolerance(self):
        res = run_table3()
        for row in res.rows:
            # columns: cpu, ck34, ck34 paper, rs119, rs119 paper
            assert row[1] == pytest.approx(row[2], rel=0.02)
            assert row[3] == pytest.approx(row[4], rel=0.02)

    def test_amd_faster_than_p54c(self):
        res = run_table3()
        amd = next(r for r in res.rows if "AMD" in r[0])
        p54c = next(r for r in res.rows if "P54C" in r[0])
        assert amd[1] < p54c[1]


class TestExp1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_exp1(dataset="ck34", slave_counts=SLAVE_GRID_QUICK)

    def test_rckalign_beats_distributed_at_every_count(self, result):
        for row in result.rows:
            _, rck, _, dist, _ = row
            assert rck < dist

    def test_advantage_factor_about_two_at_full_chip(self, result):
        last = result.rows[-1]
        assert last[0] == 47
        factor = last[3] / last[1]
        assert 1.6 < factor < 2.8  # paper: 120/56 = 2.14

    def test_both_columns_monotone_decreasing(self, result):
        rck = [r[1] for r in result.rows]
        dist = [r[3] for r in result.rows]
        assert all(a > b for a, b in zip(rck, rck[1:]))
        assert all(a > b for a, b in zip(dist, dist[1:]))

    def test_close_to_paper_endpoints(self, result):
        first, last = result.rows[0], result.rows[-1]
        assert first[1] == pytest.approx(first[2], rel=0.05)  # rck @1
        assert last[1] == pytest.approx(last[2], rel=0.10)  # rck @47
        assert first[3] == pytest.approx(first[4], rel=0.05)  # dist @1
        assert last[3] == pytest.approx(last[4], rel=0.10)  # dist @47

    def test_figure5_series_attached(self, result):
        assert set(result.extras["figure5"]) == {"rckAlign", "distributed"}


class TestExp2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_exp2(datasets=("ck34", "rs119"), slave_counts=(1, 11, 23, 47))

    def test_speedup_near_linear(self, result):
        for row in result.rows:
            n = row[0]
            ck_speedup = row[1]
            assert ck_speedup == pytest.approx(n, rel=0.30)

    def test_speedups_match_paper_within_15pct(self, result):
        for row in result.rows:
            ck_speedup, ck_paper = row[1], row[2]
            rs_speedup, rs_paper = row[4], row[5]
            assert ck_speedup == pytest.approx(ck_paper, rel=0.15)
            assert rs_speedup == pytest.approx(rs_paper, rel=0.15)

    def test_larger_dataset_scales_better(self, result):
        """Paper: 'the larger the dataset the higher the speedup'."""
        last = result.rows[-1]
        ck_speedup, rs_speedup = last[1], last[4]
        assert rs_speedup > ck_speedup
        assert last[0] == 47
        assert 30 < ck_speedup < 47 and 38 < rs_speedup < 47

    def test_one_slave_speedup_is_one(self, result):
        first = result.rows[0]
        assert first[1] == pytest.approx(1.0, abs=0.05)
        assert first[4] == pytest.approx(1.0, abs=0.05)


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table5(datasets=("ck34", "rs119"))

    def test_headline_speedups(self, result):
        """~11x over the AMD and ~44x over the P54C on RS119."""
        rs = next(r for r in result.rows if r[0] == "rs119")
        vs_amd, vs_p54c = rs[4], rs[5]
        assert vs_amd == pytest.approx(11.4, rel=0.2)
        assert vs_p54c == pytest.approx(44.7, rel=0.15)
        assert 38 < vs_p54c < 50

    def test_ordering_amd_p54c_rck(self, result):
        for row in result.rows:
            _, amd, p54c, rck, *_ = row
            assert rck < amd < p54c


class TestAblations:
    def test_balancing_none_is_worst_or_close(self):
        res = run_ablation_balancing(dataset="ck34", n_slaves=47)
        by_name = {r[0]: r[1] for r in res.rows}
        assert by_name["longest_first"] <= by_name["none"] * 1.02

    def test_hierarchy_rows_present(self):
        res = run_ablation_hierarchy(dataset="ck34-mini", n_workers=10,
                                     submaster_counts=(2,))
        assert len(res.rows) == 2

    def test_mcpsc_work_beats_even(self):
        res = run_ablation_mcpsc(dataset="ck34-mini", n_slaves=9)
        by_name = {r[0]: r[2] for r in res.rows}
        assert by_name["work"] < by_name["even"]


class TestCsvExport:
    def test_to_csv_roundtrips_columns(self, tmp_path):
        res = run_table1()
        path = tmp_path / "t1.csv"
        text = res.to_csv(path)
        assert path.exists()
        first_line = text.splitlines()[0]
        assert first_line == ",".join(res.columns)
        assert len(text.splitlines()) == 1 + len(res.rows)


def test_doc_generator_replaces_only_its_own_sections():
    path = Path(__file__).resolve().parent.parent / "tools" / "gen_experiments_md.py"
    spec = importlib.util.spec_from_file_location("gen_experiments_md", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)  # importing runs no experiment
    generated = "# Doc\nnew intro\n## Table I\nnew 1\n## Table V\nnew 5\n---\nnew foot\n"
    hand = "## Notes\nkept\n```\n# shell comment\n```\n"
    old = ("# Doc\nintro\n## Table I\nold 1\n" + hand
           + "## Table V\nold 5\n### Under V\nkept too\n" + hand + "---\nfoot\n")
    assert gen.splice(old, generated) == (
        "# Doc\nnew intro\n## Table I\nnew 1\n" + hand
        + "## Table V\nnew 5\n### Under V\nkept too\n" + hand + "---\nnew foot\n")
    with pytest.raises(ValueError, match="Table V"):
        gen.splice("# Doc\n## Table I\n---\n", generated)
