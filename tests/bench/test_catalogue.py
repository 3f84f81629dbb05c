"""The experiment catalogue: one definition per experiment, and it runs.

Pins the three things that let "fig3" drift into five spellings before:
every entry is a value a spawn worker can receive and the device can be
built for; the CLI's defaults *are* the quick entries; and the frozen
benchmark copy under ``benchmarks/e2e`` still equals the entry it copied.
"""

import importlib
import pickle
import re
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.bench
from repro.bench import (
    CATALOGUE,
    SyntheticConfig,
    TPCCExperimentConfig,
    build_database,
    run_tpcc_experiment,
    synthetic_experiment,
    tpcc_experiment,
)
from repro.bench.errors import BenchConfigError
from repro.cli import build_parser
from repro.core import traditional_placement
from repro.flash.geometry import paper_geometry
from repro.tpcc import tiny_scale

REPO = Path(__file__).resolve().parents[2]

TPCC_IDS = [i for i, c in CATALOGUE.items() if isinstance(c, TPCCExperimentConfig)]


class TestEntries:
    @pytest.mark.parametrize("config_id", CATALOGUE)
    def test_entry_is_a_value_a_worker_can_receive(self, config_id):
        config = CATALOGUE[config_id]
        typed = tpcc_experiment if config_id in TPCC_IDS else synthetic_experiment
        assert typed(config_id) is config
        assert hash(config) == hash(replace(config))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_every_experiment_exists_in_both_modes(self):
        experiments = {config_id.rsplit(".", 1)[0] for config_id in CATALOGUE}
        assert set(CATALOGUE) == {f"{e}.{mode}" for e in experiments for mode in ("quick", "full")}

    def test_unknown_or_mistyped_id_is_a_config_error(self):
        with pytest.raises(BenchConfigError):
            tpcc_experiment("fig3.huge")
        with pytest.raises(BenchConfigError):
            tpcc_experiment("hotcold.quick")
        with pytest.raises(BenchConfigError):
            synthetic_experiment("fig3.quick")

    @pytest.mark.parametrize("config_id", TPCC_IDS)
    def test_tpcc_entry_builds_its_storage_stack(self, config_id):
        config = tpcc_experiment(config_id)
        if config_id.startswith("fig3."):
            # a base: every consumer lays a placement over it (fig3_cells)
            config = replace(config, placement=traditional_placement(config.geometry.dies))
        db = build_database(config)
        assert (db.store is None) == (config.placement is None)

    def test_ftl_entry_runs_through_the_harness(self):
        """The ``placement=None`` branch of ``run_tpcc_experiment``, end to end."""
        # The engine keeps die_reserve_blocks() = 5 blocks per die in reserve.
        # On fig3's 10 blocks/die that is half the device and PageMappingFTL
        # takes overprovision < 0.5 only, so nothing fits there; with one more
        # block per plane the device has 64 x 12 x 32 = 24,576 pages, the
        # reserve is 64 x 5 x 32 = 10,240, at most 14,336 (58.3 %) may be
        # exported, and 0.42 is the smallest two-decimal overprovision that
        # stays under it (14,254).
        config = replace(
            tpcc_experiment("fig3.quick"),
            placement=None,
            geometry=paper_geometry(blocks_per_plane=6, pages_per_block=32),
            overprovision=0.42,
        )
        result = run_tpcc_experiment(replace(config, scale=tiny_scale(), num_transactions=30))
        assert result.row("transactions") == 30
        assert result.row("host_writes") > 0
        assert result.per_region == {}


class TestCliRunsTheQuickEntries:
    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        entry = tpcc_experiment("fig3.quick")
        assert args.transactions == entry.num_transactions
        assert args.warehouses == entry.scale.warehouses
        assert args.customers == entry.scale.customers_per_district
        assert args.items == entry.scale.items

    @pytest.mark.parametrize("command", ["hotcold", "ftl"])
    def test_synthetic_defaults(self, command):
        args = build_parser().parse_args([command])
        assert args.writes == synthetic_experiment(f"{command}.quick").writes


@pytest.fixture
def e2e_workloads(monkeypatch):
    """``benchmarks/e2e/workloads.py``, imported read-only under its own names."""
    monkeypatch.syspath_prepend(str(REPO / "benchmarks" / "e2e"))
    before = set(sys.modules)
    yield importlib.import_module("workloads")
    for name in set(sys.modules) - before:
        del sys.modules[name]


class _Captured(Exception):
    """Carries the config a workload was about to run."""


class TestFrozenBenchmarkCopy:
    """``benchmarks/e2e`` keeps its own spelling until the next [benchmark]
    issue; until then it must stay equal to the entries it copied."""

    def test_tpcc_base_is_fig3_quick(self, e2e_workloads):
        # the arguments run_fig3 passes at full size
        copy = e2e_workloads._tpcc_base(42, False, 3000, 768)
        assert copy == replace(tpcc_experiment("fig3.quick"), name="base")

    @pytest.mark.parametrize(
        "workload, runner, config_id",
        [
            ("run_hotcold", "run_noftl_synthetic", "hotcold.quick"),
            ("run_ftl", "run_ftl_synthetic", "ftl.quick"),
        ],
    )
    def test_synthetic_configs_differ_in_size_and_seed_only(
        self, monkeypatch, e2e_workloads, workload, runner, config_id
    ):
        def capture(config, *args, **kwargs):
            raise _Captured(config)

        monkeypatch.setattr(repro.bench, runner, capture)
        tracer = SimpleNamespace(call=lambda span, fn, *args, **kwargs: fn(*args, **kwargs))
        with pytest.raises(_Captured) as caught:
            getattr(e2e_workloads, workload)(5, False, tracer, None)
        (copy,) = caught.value.args
        entry = synthetic_experiment(config_id)
        assert isinstance(copy, SyntheticConfig)
        assert copy.seed == 5
        assert replace(copy, writes=entry.writes, seed=entry.seed) == entry


def test_experiments_md_figure3_setup_matches_fig3_full():
    """The prose under the Figure 3 heading restates ``fig3.full``: check it."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    setup = re.search(r"^Setup \(`fig3\.full`\):.*?\n\n", text, re.S | re.M)
    assert setup, "EXPERIMENTS.md lost its Figure 3 'Setup (`fig3.full`):' paragraph"
    paragraph = " ".join(setup.group(0).split())
    entry = tpcc_experiment("fig3.full")
    geometry, scale = entry.geometry, entry.scale
    for stated in (
        f"{geometry.dies}-die device ({geometry.channels} channels, "
        f"{geometry.blocks_per_die} blocks × {geometry.pages_per_block} pages per die)",
        f"{scale.warehouses} warehouses × {scale.districts} districts",
        f"{scale.items:,} items".replace(",", " "),
        f"{scale.customers_per_district} customers/district",
        f"{scale.initial_orders_per_district} initial orders/district",
        f"{entry.terminals} closed-loop terminals",
        f"{entry.buffer_pages:,}-page buffer".replace(",", " "),
        f"{entry.num_transactions:,} transactions".replace(",", " "),
    ):
        assert stated in paragraph, f"EXPERIMENTS.md Figure 3 setup does not say {stated!r}"
