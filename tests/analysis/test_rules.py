"""Per-rule coverage: every bad fixture trips its rule, every good one
lints clean, and seeded violations carry the right rule id."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule id, bad fixture, good fixture, minimum violations in the bad one)
RULE_CASES = [
    (
        "determinism.wallclock",
        "repro/flash/wallclock_bad.py",
        "repro/flash/wallclock_good.py",
        3,
    ),
    (
        "determinism.unseeded-random",
        "repro/flash/unseeded_random_bad.py",
        "repro/flash/unseeded_random_good.py",
        10,
    ),
    (
        "determinism.set-iteration",
        "repro/flash/set_iteration_bad.py",
        "repro/flash/set_iteration_good.py",
        3,
    ),
    ("guards.optional-hook", "guards_bad.py", "guards_good.py", 3),
    ("counters.int-drift", "counters_drift_bad.py", "counters_drift_good.py", 3),
    (
        "counters.doc-coverage",
        "counters_coverage_bad.py",
        "counters_coverage_good.py",
        1,
    ),
    ("hygiene.unused-import", "hygiene_bad.py", "hygiene_good.py", 2),
    (
        "errors.typed-discipline",
        "repro/flash/typed_raise_bad.py",
        "repro/flash/typed_raise_good.py",
        3,
    ),
]

IDS = [case[0] for case in RULE_CASES]


@pytest.mark.parametrize("rule_id,bad,good,min_hits", RULE_CASES, ids=IDS)
class TestRulePairs:
    def test_bad_fixture_trips_only_this_rule(self, rule_id, bad, good, min_hits):
        result = lint_paths([FIXTURES / bad], rule_ids=[rule_id])
        assert result.exit_code == 1
        assert len(result.violations) >= min_hits
        assert {v.rule_id for v in result.violations} == {rule_id}

    def test_good_fixture_is_clean(self, rule_id, bad, good, min_hits):
        result = lint_paths([FIXTURES / good], rule_ids=[rule_id])
        assert result.exit_code == 0, [v.format() for v in result.violations]


class TestScoping:
    def test_determinism_rules_skip_non_sim_paths(self, tmp_path):
        # Same wall-clock code outside a repro/<sim-package> path: out of scope.
        bench = tmp_path / "bench_host.py"
        bench.write_text("import time\n\ndef t() -> float:\n    return time.time()\n")
        result = lint_paths([bench], rule_ids=["determinism.wallclock"])
        assert result.exit_code == 0

    def test_shard_runner_modules_are_in_determinism_scope(self, tmp_path):
        # bench/ is host-side and exempt — except the shard runner, which
        # promises that a sharded run equals the sequential one.
        mod = tmp_path / "repro" / "bench" / "sharding.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\n\ndef t() -> float:\n    return time.time()\n")
        result = lint_paths([mod], rule_ids=["determinism.wallclock"])
        assert result.exit_code == 1
        assert {v.rule_id for v in result.violations} == {"determinism.wallclock"}

    def test_chaos_module_is_in_determinism_scope(self, tmp_path):
        mod = tmp_path / "repro" / "faults" / "chaos.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import random\n\ndef r() -> float:\n    return random.random()\n")
        result = lint_paths([mod], rule_ids=["determinism.unseeded-random"])
        assert result.exit_code == 1

    def test_unused_import_rule_skips_init_files(self, tmp_path):
        init = tmp_path / "repro" / "pkg" / "__init__.py"
        init.parent.mkdir(parents=True)
        init.write_text("from json import dumps\n")
        result = lint_paths([init], rule_ids=["hygiene.unused-import"])
        assert result.exit_code == 0


class TestCrossModuleCounters:
    """The counter rules resolve mutations against classes from *other*
    linted modules (phase 1 is project-wide)."""

    def test_mutation_in_sibling_module_is_attributed(self, tmp_path):
        (tmp_path / "model.py").write_text(
            "class RemoteStats:\n"
            "    rm_hits: int = 0\n"
            "    rm_ghost: int = 0\n"
            "\n"
            "    def snapshot(self) -> dict[str, float]:\n"
            "        return {'rm_hits': self.rm_hits}\n"
        )
        (tmp_path / "engine.py").write_text(
            "def bump(stats) -> None:\n"
            "    stats.rm_hits += 1\n"
            "    stats.rm_ghost += 1\n"
        )
        result = lint_paths([tmp_path], rule_ids=["counters.doc-coverage"])
        assert [v.rule_id for v in result.violations] == ["counters.doc-coverage"]
        assert "rm_ghost" in result.violations[0].message
        assert result.violations[0].path.endswith("engine.py")

    def test_ambiguous_field_names_are_not_attributed(self, tmp_path):
        # Two Stats classes own `shared`: no unique owner, no report.
        (tmp_path / "model.py").write_text(
            "class AStats:\n"
            "    shared: int = 0\n"
            "    def snapshot(self) -> dict[str, float]:\n"
            "        return {}\n"
            "\n"
            "class BStats:\n"
            "    shared: int = 0\n"
            "    def snapshot(self) -> dict[str, float]:\n"
            "        return {}\n"
            "\n"
            "def bump(stats) -> None:\n"
            "    stats.shared += 1\n"
        )
        result = lint_paths([tmp_path], rule_ids=["counters.doc-coverage"])
        assert result.exit_code == 0
