"""Tests for the command-line interface."""

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_metrics_doc


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["fig2", "--dies", "16"],
            ["fig3", "--transactions", "100"],
            ["hotcold", "--writes", "500"],
            ["ftl", "--writes", "500"],
            ["recover", "--writes", "200"],
            ["chaos", "--plans", "5", "--seed", "3", "--intensity", "medium"],
            ["report", "some.json", "--validate"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_every_command_accepts_json_flag(self):
        parser = build_parser()
        for argv in (
            ["info", "--json"],
            ["fig2", "--json"],
            ["fig3", "--json"],
            ["hotcold", "--json"],
            ["ftl", "--json"],
            ["recover", "--json"],
            ["chaos", "--json"],
            ["report", "some.json", "--json"],
        ):
            assert parser.parse_args(argv).json is True

    def test_metrics_out_on_experiment_commands(self):
        parser = build_parser()
        for cmd in ("fig3", "hotcold", "ftl", "chaos"):
            args = parser.parse_args([cmd, "--metrics-out", "out.json"])
            assert args.metrics_out == "out.json"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "64 dies" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "rgStock" in out
        assert "29" in out

    def test_hotcold_small(self, capsys):
        assert main(["hotcold", "--writes", "2000"]) == 0
        out = capsys.readouterr().out
        assert "separated" in out

    def test_ftl_small(self, capsys):
        assert main(["ftl", "--writes", "1500"]) == 0
        out = capsys.readouterr().out
        assert "noftl-regions" in out

    def test_recover_small(self, capsys):
        assert main(["recover", "--writes", "600"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "verified" in out

    def test_chaos_small(self, capsys):
        assert main(["chaos", "--plans", "2", "--seed", "7",
                     "--transactions", "60"]) == 0
        out = capsys.readouterr().out
        assert "plan_000" in out
        assert "control (no-plan bit-identity): ok" in out
        assert "all recovery invariants held" in out

    def test_chaos_json_validates_and_carries_verdicts(self, capsys):
        assert main(["chaos", "--plans", "2", "--seed", "7",
                     "--transactions", "60", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_metrics_doc(doc)
        assert doc["command"] == "chaos"
        assert doc["chaos"]["ok"] is True
        assert doc["configs"]["plan_000"]["summary"]["ok"] == 1.0
        assert doc["configs"]["control"]["summary"]["bit_identical"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["hotcold", "--shards", "0"],
        ["hotcold", "--writes", "-5"],
        ["hotcold", "--fault-plan", "/nonexistent.json"],
        ["fig3", "--warehouses", "0"],
        ["ftl", "--bad-block-rate", "1.5"],
        # raised inside a cell: a sharded run fails exactly like a sequential one
        ["ftl", "--bad-block-rate", "1.5", "--shards", "2"],
        ["hotcold", "--bad-block-rate", "1.5", "--shards", "2"],
        ["report", "/nonexistent.json"],
        ["chaos", "--plans", "0"],
        ["fig2", "--dies", "3"],
    ],
    ids=" ".join,
)
def test_bad_input_is_one_error_line_and_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_dead_shard_worker_is_one_error_line_and_exit_3(capsys, monkeypatch):
    def broken_pool(cells, shards):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr("repro.bench.run_cells", broken_pool)
    assert main(["hotcold", "--shards", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestJsonOutput:
    def _doc(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_info_json_is_valid_metrics_doc(self, capsys):
        doc = self._doc(capsys, ["info", "--json"])
        validate_metrics_doc(doc)
        assert doc["command"] == "info"
        assert doc["configs"]["defaults"]["device"]["dies"] == 64

    def test_fig2_json_counts_regions(self, capsys):
        doc = self._doc(capsys, ["fig2", "--json"])
        validate_metrics_doc(doc)
        regions = doc["configs"]["placement"]["regions"]
        assert sum(r["dies"] for r in regions.values()) == 64

    def test_hotcold_json_matches_table_counters(self, capsys):
        doc = self._doc(capsys, ["hotcold", "--writes", "1500", "--json"])
        validate_metrics_doc(doc)
        assert sorted(doc["configs"]) == ["mixed", "separated"]
        for section in doc["configs"].values():
            assert "summary" in section and "registry" in section

    def test_recover_json_reports_recovery(self, capsys):
        doc = self._doc(capsys, ["recover", "--writes", "400", "--json"])
        validate_metrics_doc(doc)
        summary = doc["configs"]["recover"]["summary"]
        # pages allocated but never written aren't recoverable from metadata
        assert 0 < summary["recovered_pages"] <= summary["live_pages"]


class TestMetricsOutAndReport:
    def test_hotcold_metrics_out_then_report(self, tmp_path, capsys):
        out = tmp_path / "hc.json"
        assert main(["hotcold", "--writes", "1200", "--metrics-out", str(out)]) == 0
        table = capsys.readouterr().out
        assert "separated" in table and str(out) in table
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)

        assert main(["report", str(out), "--validate"]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "mixed / summary" in rendered
        assert "mgmt.gc_copybacks" in rendered

    def test_report_json_round_trips_unchanged(self, tmp_path, capsys):
        out = tmp_path / "hc.json"
        assert main(["hotcold", "--writes", "800", "--json"]) == 0
        original = capsys.readouterr().out
        out.write_text(original)
        assert main(["report", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(original)

    def test_report_rejects_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope", "command": "x", "configs": {"a": {}}}))
        assert main(["report", str(bad)]) == 1
        assert "invalid metrics document" in capsys.readouterr().err


class TestLintCommand:
    GOOD = "tests/analysis/fixtures/repro/flash/typed_raise_good.py"

    def test_lint_clean_file_exits_zero(self, capsys):
        assert main(["lint", self.GOOD]) == 0
        assert "OK" in capsys.readouterr().out
