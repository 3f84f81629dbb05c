"""The shipped tree must satisfy its own gates.

This is the test-suite mirror of CI's `repro lint src/repro` step: if a
change introduces a violation, this fails locally before CI does.
"""

from pathlib import Path

import pytest

from repro.analysis import LintResult, lint_paths, parse_pragmas

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def result() -> LintResult:
    """One lint of the shipped tree, shared by the assertions below."""
    return lint_paths([SRC])


class TestSelfCheck:
    def test_src_repro_lints_clean(self, result):
        assert result.parse_errors == []
        assert result.violations == [], "\n" + "\n".join(
            v.format() for v in result.violations
        )
        assert result.exit_code == 0

    def test_src_covers_the_whole_package(self, result):
        assert result.files_checked == len(list(SRC.rglob("*.py")))
        assert result.files_checked > 70  # the package, not a subset

    def test_no_unused_pragmas_in_src(self, result):
        assert result.unused_pragmas == [], (
            "stale pragmas (delete them): "
            + ", ".join(f"{p}:{pr.line}" for p, pr in result.unused_pragmas)
        )

    def test_every_src_pragma_carries_a_justification(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for pragma in parse_pragmas(path.read_text(encoding="utf-8")):
                if not pragma.justification:
                    offenders.append(f"{path}:{pragma.line}")
        assert offenders == [], (
            "pragmas without `-- why` justification: " + ", ".join(offenders)
        )
