"""Unit tests for the synthetic hot/cold workload harness."""

import random
from bisect import bisect_left

import pytest

from repro.bench import (
    HOT_COLD_CLASSES,
    ObjectClass,
    SyntheticConfig,
    run_ftl_synthetic,
    run_noftl_synthetic,
)
from repro.bench.errors import BenchConfigError
from repro.bench.synthetic import _cumulative_shares, _die_shares
from repro.flash import instant_timing


def quick_config(**kwargs):
    defaults = dict(writes=3000, timing=instant_timing())
    defaults.update(kwargs)
    return SyntheticConfig(**defaults)


class TestObjectClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectClass("x", space_share=0.0, traffic_share=0.5)
        with pytest.raises(ValueError):
            ObjectClass("x", space_share=0.5, traffic_share=1.5)
        with pytest.raises(ValueError):
            ObjectClass("x", space_share=0.5, traffic_share=0.5, kind="other")


class TestSyntheticConfig:
    @pytest.mark.parametrize(
        "bad", [dict(writes=-1), dict(utilization=0.0), dict(utilization=1.0)], ids=str
    )
    def test_out_of_range_parameters_rejected(self, bad):
        with pytest.raises(BenchConfigError):
            SyntheticConfig(**bad)


class TestDieShares:
    def test_covers_all_dies(self):
        shares = _die_shares(HOT_COLD_CLASSES, 8, utilization=0.7)
        assert sum(shares) == 8
        assert all(s >= 1 for s in shares)

    def test_capacity_repair_gives_cold_class_room(self):
        shares = _die_shares(HOT_COLD_CLASSES, 8, utilization=0.7)
        # cold holds 87.5% of data: its region must hold it with slack
        cold_need = 0.875 * 0.7 * 8
        assert shares[1] >= cold_need / 0.9

    def test_single_class(self):
        shares = _die_shares((ObjectClass("only", 1.0, 1.0),), 4, utilization=0.5)
        assert shares == [4]


class TestClassDraw:
    """Both write loops pick a class with ``bisect_left`` over the running
    traffic shares.  That is the pick of the generator scan it replaced,
    and it consumes a seeded ``Random`` exactly as that loop did."""

    CLASSES = (
        ObjectClass("hot", 0.1, 0.6),
        ObjectClass("idle", 0.2, 0.0),
        ObjectClass("warm", 0.3, 0.3),
        ObjectClass("cold", 0.3, 0.1),
        ObjectClass("frozen", 0.1, 0.0),
    )

    def test_bisect_pick_is_the_scan_pick(self):
        targets = [list(range(100 * i, 100 * i + 3 + i)) for i in range(len(self.CLASSES))]
        # the loop before: a running sum by hand, then a scan per write
        bounds, acc = [], 0.0
        for cls in self.CLASSES:
            acc += cls.traffic_share
            bounds.append(acc)
        old = random.Random(5)
        old_picks = []
        for __ in range(10_000):
            draw = old.random() * bounds[-1]
            index = next(i for i, bound in enumerate(bounds) if draw <= bound)
            old_picks.append((index, old.choice(targets[index])))

        cumulative = _cumulative_shares(self.CLASSES)
        assert cumulative == bounds
        new = random.Random(5)
        draw, choice, total = new.random, new.choice, cumulative[-1]
        new_picks = []
        for __ in range(10_000):
            index = bisect_left(cumulative, draw() * total)
            new_picks.append((index, choice(targets[index])))
        assert new_picks == old_picks
        assert new.getstate() == old.getstate()
        assert {index for index, __ in new_picks} == {0, 2, 3}  # never a zero share


class TestNoFTLSynthetic:
    def test_mixed_and_separated_complete(self):
        config = quick_config()
        mixed = run_noftl_synthetic(config, separated=False)
        separated = run_noftl_synthetic(config, separated=True)
        assert mixed.writes == separated.writes == config.writes
        assert mixed.name == "mixed"
        assert separated.name == "separated"

    def test_separation_reduces_copybacks(self):
        config = quick_config(writes=8000)
        mixed = run_noftl_synthetic(config, separated=False)
        separated = run_noftl_synthetic(config, separated=True)
        assert separated.copybacks < mixed.copybacks

    def test_append_class_grows(self):
        classes = (
            ObjectClass("hot", space_share=0.2, traffic_share=0.7),
            ObjectClass("log", space_share=0.3, traffic_share=0.3, kind="append"),
        )
        config = quick_config(classes=classes, utilization=0.4, writes=2000)
        result = run_noftl_synthetic(config, separated=True)
        assert result.writes == 2000

    def test_write_amplification_at_least_one(self):
        result = run_noftl_synthetic(quick_config(), separated=True)
        assert result.write_amplification >= 1.0

    def test_deterministic(self):
        a = run_noftl_synthetic(quick_config(), separated=False)
        b = run_noftl_synthetic(quick_config(), separated=False)
        assert (a.copybacks, a.erases) == (b.copybacks, b.erases)


class TestFTLSynthetic:
    def test_page_ftl_completes(self):
        result = run_ftl_synthetic(quick_config(), ftl="page")
        assert result.writes == 3000
        assert result.erases > 0

    def test_dftl_adds_translation_overhead(self):
        config = quick_config(writes=6000)
        page = run_ftl_synthetic(config, ftl="page")
        dftl = run_ftl_synthetic(config, ftl="dftl", cmt_entries=64)
        assert dftl.erases >= page.erases

    def test_unknown_ftl_rejected(self):
        with pytest.raises(ValueError):
            run_ftl_synthetic(quick_config(), ftl="hybrid")

    def test_ftl_matches_mixed_noftl(self):
        """Same engine, same knowledge: page FTL == mixed NoFTL exactly."""
        config = quick_config(writes=6000)
        ftl = run_ftl_synthetic(config, ftl="page")
        noftl = run_noftl_synthetic(config, separated=False)
        assert ftl.copybacks == noftl.copybacks
        assert ftl.erases == noftl.erases
