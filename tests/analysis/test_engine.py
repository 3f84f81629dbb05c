"""Engine mechanics, reporters, and the `repro lint` CLI surface."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LintEngine,
    Rule,
    RuleRegistry,
    default_registry,
    lint_paths,
    render_human,
    render_json,
)
from repro.analysis.reporting import LINT_SCHEMA_VERSION
from repro.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "hygiene_bad.py"
GOOD = FIXTURES / "hygiene_good.py"


class TestRegistry:
    def test_default_registry_catalogue(self):
        assert default_registry().ids() == [
            "counters.doc-coverage",
            "counters.int-drift",
            "determinism.set-iteration",
            "determinism.unseeded-random",
            "determinism.wallclock",
            "errors.typed-discipline",
            "guards.optional-hook",
            "hygiene.unused-import",
        ]

    def test_duplicate_rule_id_rejected(self):
        class Dup(Rule):
            id = "x.y"
            summary = "dup"

        registry = RuleRegistry()
        registry.register(Dup())
        with pytest.raises(ValueError, match="duplicate rule id"):
            registry.register(Dup())

    def test_unknown_rule_id_names_the_catalogue(self):
        with pytest.raises(KeyError, match="determinism.wallclock"):
            default_registry().select(["no.such.rule"])

    def test_every_rule_has_id_and_summary(self):
        registry = default_registry()
        for rule_id in registry.ids():
            rule = registry.get(rule_id)
            assert rule.id == rule_id
            assert rule.summary


class TestEngineRuns:
    def test_exit_codes(self, tmp_path):
        assert lint_paths([GOOD]).exit_code == 0
        assert lint_paths([BAD]).exit_code == 1
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        result = lint_paths([broken])
        assert result.exit_code == 2
        assert len(result.parse_errors) == 1

    def test_violations_sorted_and_clickable(self):
        result = lint_paths([FIXTURES])
        locations = [(v.path, v.line, v.col, v.rule_id) for v in result.violations]
        assert locations == sorted(locations)
        first = result.violations[0]
        assert first.format().startswith(f"{first.path}:{first.line}:{first.col}: ")

    def test_directory_expansion_counts_files(self):
        result = lint_paths([FIXTURES / "repro"])
        assert result.files_checked == len(
            list((FIXTURES / "repro").rglob("*.py"))
        )

    def test_engine_reuses_registry_instance(self):
        engine = LintEngine(default_registry())
        assert engine.run([GOOD]).exit_code == 0


class TestReporters:
    def test_human_ok_summary(self):
        text = render_human(lint_paths([GOOD]))
        assert "OK: 1 file(s) clean" in text

    def test_human_fail_summary_counts_by_rule(self):
        text = render_human(lint_paths([BAD], rule_ids=["hygiene.unused-import"]))
        assert "FAIL:" in text
        assert "hygiene.unused-import=" in text

    def test_json_document_shape(self):
        document = json.loads(render_json(lint_paths([BAD])))
        assert document["schema"] == LINT_SCHEMA_VERSION
        assert document["exit_code"] == 1
        assert document["files_checked"] == 1
        assert set(document["counts"]) == {"hygiene.unused-import"}
        violation = document["violations"][0]
        assert set(violation) == {"rule", "path", "line", "col", "message"}

    def test_json_is_deterministic(self):
        assert render_json(lint_paths([BAD])) == render_json(lint_paths([BAD]))


class TestCli:
    def test_lint_parses_with_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src/repro"]
        assert args.format == "human"

    def test_cli_exit_codes_match_engine(self, capsys):
        assert main(["lint", str(GOOD)]) == 0
        assert main(["lint", str(BAD)]) == 1
        capsys.readouterr()

    def test_cli_json_output(self, capsys):
        code = main(["lint", str(BAD), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == LINT_SCHEMA_VERSION

    def test_cli_rule_selection(self, capsys):
        assert main(["lint", str(BAD), "--rules", "guards.optional-hook"]) == 0
        capsys.readouterr()

    def test_cli_unknown_rule_exits_2(self, capsys):
        assert main(["lint", str(BAD), "--rules", "no.such.rule"]) == 2
        assert "known rules" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in default_registry().ids():
            assert rule_id in out
