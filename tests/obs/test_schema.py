"""Schema pinning: the snapshot key namespace and the metrics envelope.

These tests are the compatibility contract for machine consumers of
``--json`` / ``--metrics-out`` output: root namespaces and the headline
keys under them must not drift silently.
"""

import pytest

from repro.db import Database
from repro.flash import FlashGeometry, small_geometry
from repro.obs import (
    ROOT_NAMESPACES,
    SCHEMA_VERSION,
    SchemaError,
    dump_json,
    metrics_doc,
    validate_metrics_doc,
    validate_snapshot,
)


def _native_db():
    return Database.on_native_flash(geometry=small_geometry(), buffer_pages=16)


class TestPinnedNamespaces:
    def test_root_namespaces_are_pinned(self):
        assert ROOT_NAMESPACES == (
            "flash", "mgmt", "region", "db", "workload", "faults"
        )

    def test_schema_version_is_pinned(self):
        assert SCHEMA_VERSION == "repro.obs/v1"

    def test_native_db_snapshot_covers_every_layer(self):
        db = _native_db()
        snap = db.metrics_registry().snapshot()
        validate_snapshot(snap)
        for key in (
            "flash.erases",
            "flash.programs",
            "mgmt.gc_copybacks",
            # pinned by the counters.doc-coverage lint fix: gc_programs was
            # mutated by the engine but missing from the snapshot payload
            "mgmt.gc_programs",
            "mgmt.host_writes",
            "db.buffer.hits",
            "region.rgSystem.host_writes",
        ):
            assert key in snap, f"pinned key {key} missing from snapshot"

    def test_ftl_db_snapshot_covers_every_layer(self):
        db = Database.on_block_device(
            geometry=FlashGeometry(
                channels=2, chips_per_channel=2, dies_per_chip=1, planes_per_die=1,
                blocks_per_plane=16, pages_per_block=32, page_size=2048, oob_size=64,
            ),
            overprovision=0.4,
            buffer_pages=16,
        )
        snap = db.metrics_registry().snapshot()
        validate_snapshot(snap)
        for key in ("flash.erases", "mgmt.gc_copybacks", "mgmt.trans_reads", "db.buffer.hits"):
            assert key in snap

    def test_trace_root_is_not_pinned(self):
        # no producer mounts ``trace.*``, so a key under it is refused
        assert "trace" not in ROOT_NAMESPACES
        with pytest.raises(SchemaError, match="outside pinned roots"):
            validate_snapshot({"trace.events": 1.0})


class TestValidateSnapshot:
    def test_rejects_unknown_root(self):
        with pytest.raises(SchemaError, match="outside pinned roots"):
            validate_snapshot({"bogus.key": 1.0})

    def test_rejects_non_numeric_and_bool(self):
        with pytest.raises(SchemaError):
            validate_snapshot({"flash.erases": "3"})
        with pytest.raises(SchemaError):
            validate_snapshot({"flash.erases": True})

    def test_rejects_bad_grammar(self):
        with pytest.raises(Exception):
            validate_snapshot({"flash..erases": 1.0})


class TestValidateMetricsDoc:
    def _doc(self):
        return metrics_doc("fig3", {"traditional": {"figure3": {"tps": 100.0}}})

    def test_valid_doc_passes_and_serializes(self):
        doc = self._doc()
        assert validate_metrics_doc(doc) is doc
        assert '"schema": "repro.obs/v1"' in dump_json(doc)

    def test_rejects_wrong_schema_tag(self):
        doc = self._doc()
        doc["schema"] = "repro.obs/v2"
        with pytest.raises(SchemaError, match="unsupported schema"):
            validate_metrics_doc(doc)

    def test_rejects_missing_configs(self):
        with pytest.raises(SchemaError):
            validate_metrics_doc({"schema": SCHEMA_VERSION, "command": "x", "configs": {}})

    def test_rejects_non_numeric_leaf(self):
        doc = metrics_doc("x", {"a": {"s": {"v": "not-a-number"}}})
        with pytest.raises(SchemaError):
            validate_metrics_doc(doc)

    def test_registry_section_checked_against_roots(self):
        doc = metrics_doc("x", {"a": {"registry": {"bogus.key": 1.0}}})
        with pytest.raises(SchemaError, match="outside pinned roots"):
            validate_metrics_doc(doc)
