"""Figure 3 metrics round-trip: the JSON document equals the printed table.

Runs a miniature version of ``repro fig3`` (two placements, tiny scale),
serializes the ``repro.obs/v1`` document through JSON, and checks every
Figure 3 cell and per-region window counter against the in-memory
results the table is rendered from.
"""

import json

import pytest

from repro.bench import (
    FIGURE3_ROWS,
    TPCCExperimentConfig,
    figure3_metrics_doc,
    figure3_table,
    render_metrics_doc,
    run_tpcc_experiment,
)
from repro.core import figure2_placement, traditional_placement
from repro.flash import FlashGeometry
from repro.obs import validate_metrics_doc
from repro.tpcc import tiny_scale


def _geometry():
    return FlashGeometry(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=48,
        pages_per_block=32,
        page_size=2048,
        oob_size=64,
        max_pe_cycles=1_000_000,
    )


@pytest.fixture(scope="module")
def results():
    config = TPCCExperimentConfig(
        name="base",
        geometry=_geometry(),
        scale=tiny_scale(),
        num_transactions=120,
        terminals=4,
        buffer_pages=64,
        flusher_interval=64,
    )
    from dataclasses import replace

    traditional = run_tpcc_experiment(
        replace(config, name="traditional", placement=traditional_placement(16))
    )
    regions = run_tpcc_experiment(
        replace(config, name="regions", placement=figure2_placement(16))
    )
    return traditional, regions


@pytest.fixture(scope="module")
def doc(results):
    raw = figure3_metrics_doc(*results)
    # genuine round-trip: what a file consumer reads back
    return json.loads(json.dumps(raw))


class TestRoundTrip:
    def test_document_validates(self, doc):
        validate_metrics_doc(doc)
        assert doc["command"] == "fig3"
        assert sorted(doc["configs"]) == ["regions", "traditional"]

    def test_figure3_section_matches_table_cells(self, results, doc):
        for result in results:
            section = doc["configs"][result.config.name]["figure3"]
            for __, key, __, __ in FIGURE3_ROWS:
                assert section[key] == result.row(key), key

    def test_per_region_counters_match(self, results, doc):
        # per-region counters live in the registry section, under region.<name>.
        for result in results:
            registry = doc["configs"][result.config.name]["registry"]
            assert "regions" not in doc["configs"][result.config.name]
            assert result.per_region
            for name, counters in result.per_region.items():
                for key, value in counters.items():
                    assert registry[f"region.{name}.{key}"] == value

    def test_registry_totals_consistent_with_device(self, results, doc):
        # the registry section is the measured window: it counts exactly the
        # I/O of the Figure 3 rows, and every erase of the window is GC's or WL's
        for result in results:
            registry = doc["configs"][result.config.name]["registry"]
            figure3 = doc["configs"][result.config.name]["figure3"]
            assert registry["mgmt.host_writes"] == figure3["host_writes"]
            assert registry["flash.erases"] == figure3["gc_erases"] + registry["mgmt.wl_erases"]

    def test_report_rendering_equals_live_table(self, results, doc):
        live = figure3_table(*results)
        rendered = render_metrics_doc(doc)
        # same cells in both: every table line of the live render appears
        for line in live.splitlines()[4:-1]:  # skip title/frame differences
            cells = line.split()[-3:]
            assert any(
                all(cell in rline for cell in cells)
                for rline in rendered.splitlines()
            ), line
