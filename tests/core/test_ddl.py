"""Unit tests for region DDL parsing."""

import pytest

from repro.core import (
    RegionError,
    is_region_statement,
    parse_create_region,
    parse_drop_region,
    parse_size,
)


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("4096") == 4096

    def test_suffixes(self):
        assert parse_size("128K") == 128 * 1024
        assert parse_size("1280M") == 1280 * 1024**2
        assert parse_size("2G") == 2 * 1024**3

    def test_lowercase_suffix(self):
        assert parse_size("128k") == 128 * 1024

    def test_invalid_rejected(self):
        with pytest.raises(RegionError):
            parse_size("12Q")
        with pytest.raises(RegionError):
            parse_size("")


class TestCreateRegion:
    def test_paper_example(self):
        stmt = parse_create_region(
            "CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);"
        )
        assert stmt.config.name == "rgHotTbl"
        assert stmt.config.max_chips == 8
        assert stmt.config.max_channels == 4
        assert stmt.config.max_size_bytes == 1280 * 1024**2
        assert stmt.num_dies is None

    def test_minimal_form(self):
        stmt = parse_create_region("CREATE REGION rg")
        assert stmt.config.name == "rg"
        assert stmt.config.max_chips is None

    def test_dies_and_policy_extensions(self):
        stmt = parse_create_region(
            "CREATE REGION rg (DIES=8, GC_POLICY=COST_BENEFIT)"
        )
        assert stmt.num_dies == 8
        assert stmt.config.gc_policy == "cost_benefit"

    def test_maintenance_thresholds(self):
        stmt = parse_create_region(
            "CREATE REGION rg (WEAR_LEVEL_THRESHOLD=16, READ_DISTURB_THRESHOLD=10000)"
        )
        assert stmt.config.wear_level_threshold == 16
        assert stmt.config.read_disturb_threshold == 10000

    def test_case_insensitive_keywords(self):
        stmt = parse_create_region("create region rg (max_chips=2)")
        assert stmt.config.max_chips == 2

    def test_unknown_parameter_rejected(self):
        with pytest.raises(RegionError):
            parse_create_region("CREATE REGION rg (BOGUS=1)")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(RegionError):
            parse_create_region("CREATE REGION rg (MAX_CHIPS)")

    def test_not_a_create_region(self):
        with pytest.raises(RegionError):
            parse_create_region("CREATE TABLE t (x INT)")

    @pytest.mark.parametrize(
        "key",
        ["DIES", "MAX_CHIPS", "MAX_CHANNELS", "WEAR_LEVEL_THRESHOLD", "READ_DISTURB_THRESHOLD"],
    )
    def test_non_integer_value_names_the_parameter(self, key):
        with pytest.raises(RegionError, match=f"{key} must be an integer, got 'abc'"):
            parse_create_region(f"CREATE REGION rg ({key}=abc)")

    def test_unknown_gc_policy_refused_with_the_allowed_names(self):
        with pytest.raises(
            RegionError, match=r"GC_POLICY='learnd'.*\['cost_benefit', 'greedy'\]"
        ):
            parse_create_region("CREATE REGION rg (DIES=2, GC_POLICY=learnd)")

    def test_wl_policy_is_an_unknown_parameter(self):
        # static wear levelling has one ranking; there is nothing to choose
        with pytest.raises(RegionError, match=r"unknown region parameters: \['WL_POLICY'\]"):
            parse_create_region("CREATE REGION rg (WL_POLICY=COLDEST_FIRST)")


class TestDropRegion:
    def test_simple_drop(self):
        stmt = parse_drop_region("DROP REGION rg;")
        assert stmt.name == "rg"
        assert not stmt.force

    def test_force_drop(self):
        assert parse_drop_region("DROP REGION rg FORCE").force

    def test_not_a_drop(self):
        with pytest.raises(RegionError):
            parse_drop_region("DROP TABLE t")


class TestDispatchHelper:
    def test_recognises_region_statements(self):
        assert is_region_statement("CREATE REGION rg")
        assert is_region_statement("  drop region rg;")
        assert not is_region_statement("CREATE TABLE t (x INT)")
