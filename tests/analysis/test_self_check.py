"""The shipped tree must satisfy its own gates.

This is the test-suite mirror of CI's `repro lint src/repro` step: if a
change introduces a violation, this fails locally before CI does.
"""

from pathlib import Path

import pytest

from repro.analysis import LintResult, lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def result() -> LintResult:
    """One lint of the shipped tree, shared by the assertions below."""
    return lint([SRC])


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
