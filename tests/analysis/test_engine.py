"""Lint mechanics, the human report, and the `repro lint` CLI surface."""

from pathlib import Path

from repro.analysis import build_rules, lint, render_human
from repro.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "hygiene_bad.py"
GOOD = FIXTURES / "hygiene_good.py"


class TestRegistry:
    def test_every_rule_has_id_and_summary(self):
        rules = build_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == 8
        assert len(set(ids)) == len(ids)
        for rule in rules:
            assert rule.summary or type(rule).__doc__


class TestEngineRuns:
    def test_exit_codes(self, tmp_path):
        assert lint([GOOD]).exit_code == 0
        assert lint([BAD]).exit_code == 1
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        result = lint([broken])
        assert result.exit_code == 2
        assert len(result.parse_errors) == 1

    def test_violations_sorted_and_clickable(self):
        result = lint([FIXTURES])
        locations = [(v.path, v.line, v.col, v.rule_id) for v in result.violations]
        assert locations == sorted(locations)
        first = result.violations[0]
        assert first.format().startswith(f"{first.path}:{first.line}:{first.col}: ")

    def test_directory_expansion_counts_files(self):
        result = lint([FIXTURES / "repro"])
        assert result.files_checked == len(
            list((FIXTURES / "repro").rglob("*.py"))
        )


class TestReporters:
    def test_human_ok_summary(self):
        text = render_human(lint([GOOD]))
        assert "OK: 1 file(s) clean" in text

    def test_human_fail_summary_counts_by_rule(self):
        text = render_human(lint([BAD]))
        assert "FAIL:" in text
        assert "hygiene.unused-import=" in text


class TestCli:
    def test_lint_parses_with_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src/repro"]

    def test_cli_exit_codes_match_engine(self, capsys, tmp_path):
        assert main(["lint", str(GOOD)]) == 0
        assert main(["lint", str(BAD)]) == 1
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert main(["lint", str(broken)]) == 2
        capsys.readouterr()
