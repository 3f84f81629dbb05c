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


class TestRegistrySectionIsTheWindow:
    """An experiment document's ``registry`` section is its measured window
    (load and preload I/O excluded), not the cumulative registry snapshot;
    ``tests/obs/test_window.py`` checks the TPC-C cell."""

    @pytest.mark.parametrize("stack", ["noftl", "dftl"])
    def test_synthetic_registry_counts_the_measured_writes_only(self, stack):
        from repro.bench import SyntheticConfig, run_ftl_synthetic, run_noftl_synthetic

        config = SyntheticConfig(writes=300, utilization=0.65)
        if stack == "noftl":
            result = run_noftl_synthetic(config, separated=True)
        else:
            result = run_ftl_synthetic(config, "dftl", cmt_entries=64)
        sections = result.metrics()
        registry = validate_snapshot(sections["registry"])
        assert registry["mgmt.host_writes"] == sections["summary"]["writes"] == 300
        assert registry["mgmt.gc_copybacks"] == sections["summary"]["copybacks"]
        assert registry["mgmt.write_amplification"] == sections["summary"]["write_amplification"]
        for key in ("mgmt.host_writes", "mgmt.write_amplification", "flash.programs"):
            assert key in registry

    def test_tpcc_registry_counts_the_figure3_window_only(self):
        from repro.bench import TPCCExperimentConfig, run_tpcc_experiment
        from repro.core import traditional_placement
        from repro.tpcc import tiny_scale

        geometry = FlashGeometry(
            channels=4, chips_per_channel=2, dies_per_chip=2, planes_per_die=1,
            blocks_per_plane=48, pages_per_block=32, page_size=2048, oob_size=64,
        )
        result = run_tpcc_experiment(
            TPCCExperimentConfig(
                name="traditional",
                placement=traditional_placement(geometry.dies),
                geometry=geometry,
                scale=tiny_scale(),
                num_transactions=40,
                buffer_pages=32,
                flusher_interval=32,
            )
        )
        sections = result.metrics()
        registry = validate_snapshot(sections["registry"])
        assert "regions" not in sections
        for key in ("host_reads", "host_writes", "gc_copybacks", "gc_erases"):
            assert registry[f"mgmt.{key}"] == sections["figure3"][key], key


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
