"""Unit tests for report rendering and the experiment harness helpers."""

import os

import pytest

from repro.bench import experiment
from repro.bench.catalogue import tpcc_experiment
from repro.bench.errors import BenchConfigError
from repro.bench.experiment import TPCCExperimentResult, derive_method_placement
from repro.bench.reporting import (
    FIGURE3_ROWS,
    figure3_table,
    format_cell,
    format_value,
    render_series,
    render_single,
    render_table,
    save_report,
)


class TestFormatting:
    def test_counts_are_comma_grouped(self):
        assert format_value(1234567.0) == "1,234,567"

    def test_rates_keep_decimals(self):
        assert format_value(3.14159) == "3.14"
        assert format_value(0.53) == "0.53"

    def test_cells(self):
        assert format_cell(12.5) == "12.50"
        assert format_cell("text") == "text"
        assert format_cell(7) == "7"


class TestTables:
    def test_render_table_has_ratio_column(self):
        out = render_table("T", [("metric", 100.0, 80.0)], "a", "b")
        assert "0.80x" in out
        assert "metric" in out

    def test_render_table_zero_base(self):
        out = render_table("T", [("m", 0.0, 0.0)], "a", "b")
        assert "1.00x" in out

    def test_render_series_aligns_columns(self):
        out = render_series("S", ["name", "value"], [["row1", 5], ["longer-row", 12345]])
        lines = out.splitlines()
        assert "name" in lines[2]
        assert any("longer-row" in line for line in lines)

    def test_render_single(self):
        out = render_single("block", {"a": 1.0, "bb": 2.5})
        assert "a" in out and "bb" in out

    def test_save_report_writes_file(self, tmp_path, capsys):
        path = save_report("unit_test_report", "hello world", directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as f:
            assert f.read().strip() == "hello world"
        assert "hello world" in capsys.readouterr().out


class TestExperimentHelpers:
    @pytest.mark.parametrize(
        "budget, profile", [(100, 0), (100, -5), (-1, 10)], ids=["zero", "negative", "budget"]
    )
    def test_placement_derivation_rejects_bad_budgets_before_building(
        self, monkeypatch, budget, profile
    ):
        def no_build(config):
            raise AssertionError("built a database for a budget that cannot be projected")

        monkeypatch.setattr(experiment, "build_database", no_build)
        with pytest.raises(BenchConfigError):
            derive_method_placement(
                tpcc_experiment("fig3.quick"), budget, profile_transactions=profile
            )

    def test_result_row_lookup(self):
        result = TPCCExperimentResult(
            config=tpcc_experiment("fig3.quick"),
            workload={"tps": 5.0},
            window={"mgmt.gc_erases": 2.0, "mgmt.host_read_latency_mean_us": 9.0},
            load_time_us=0.0,
        )
        assert result.row("tps") == 5.0
        assert result.row("gc_erases") == 2.0
        assert result.row("read_latency_us") == 9.0  # a Figure 3 key, read from the window
        assert result.row("mgmt.gc_erases") == 2.0
        assert result.storage == {"gc_erases": 2.0, "host_read_latency_mean_us": 9.0}
        with pytest.raises(KeyError):
            result.row("nope")

    def test_figure3_rows_cover_paper_metrics(self):
        labels = [label for label, *__ in FIGURE3_ROWS]
        for expected in ("TPS", "GC COPYBACKs", "GC ERASEs", "Host READ I/Os"):
            assert any(expected in label for label in labels)
