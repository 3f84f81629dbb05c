"""``benchmarks/paired_e2e.py``: the pair schedule and the summary, on stub
records (no subprocess, no tree is extracted)."""

import importlib.util
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def paired():
    path = REPO / "benchmarks" / "paired_e2e.py"
    spec = importlib.util.spec_from_file_location("paired_e2e", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "peak_rss_mb", "better": "lower"},
    {"name": "ops_per_host_s", "better": "higher"},
]


def record(rss, ops, fingerprint="f00d", failed=0):
    return {
        "end_to_end": {"peak_rss_mb": {"median": rss}, "ops_per_host_s": {"median": ops}},
        "sim_fingerprint": fingerprint,
        "attempted": 10,
        "failed": failed,
        "failures": [],
    }


def test_the_schedule_alternates_which_revision_runs_first(paired):
    assert paired.schedule(4) == ["ab", "ba", "ab", "ba"]
    assert paired.schedule(1) == ["ab"]
    orders = paired.schedule(10)
    assert orders.count("ab") == orders.count("ba") == 5


def test_pairs_run_in_their_order_and_come_back_as_a_then_b(paired, tmp_path):
    trees = (Path("tree-a"), Path("tree-b"))
    calls = []

    def run(tree, out):
        calls.append((tree.name, out.name))
        return {"tree": tree.name}

    pairs = paired.run_pairs(trees, paired.schedule(3), run, tmp_path)
    assert calls == [
        ("tree-a", "a-0.json"), ("tree-b", "b-0.json"),
        ("tree-b", "b-1.json"), ("tree-a", "a-1.json"),
        ("tree-a", "a-2.json"), ("tree-b", "b-2.json"),
    ]
    assert pairs == [({"tree": "tree-a"}, {"tree": "tree-b"})] * 3


def test_the_summary_reports_each_order_apart(paired):
    # B saves 2% of memory in the A-first pairs and 6% in the B-first ones;
    # its throughput is 10% higher in every pair
    orders = paired.schedule(4)
    pairs = [
        (record(100.0, 1000.0), record(98.0, 1100.0)),
        (record(100.0, 1000.0), record(94.0, 1100.0)),
        (record(50.0, 2000.0), record(49.0, 2200.0)),
        (record(50.0, 2000.0), record(47.0, 2200.0)),
    ]
    lines, same = paired.summarise(pairs, METRICS, orders)
    assert same
    rss = next(line for line in lines if line.startswith("peak_rss_mb")).split()
    # name, 3 A quartiles, 3 B quartiles, the median ratio, better, by order
    assert rss[7] == "-4.00%" and rss[8] == "4/4"
    assert rss[9:] == ["-2.00%", "-6.00%"]
    ops = next(line for line in lines if line.startswith("ops_per_host_s")).split()
    assert ops[7:] == ["+10.00%", "4/4", "+10.00%", "+10.00%"]
    assert "failed operations A: 0 of 40" in lines


def test_a_differing_fingerprint_or_a_failed_run_is_reported(paired):
    orders = paired.schedule(2)
    failed = {"failures": ["run.py exited with 1"], "attempted": 1, "failed": 1,
              "sim_fingerprint": ""}
    pairs = [(record(1.0, 1.0), record(1.0, 1.0, fingerprint="beef")), (record(1.0, 1.0), failed)]
    lines, same = paired.summarise(pairs, METRICS, orders)
    assert not same
    assert any(line.startswith("sim_fingerprint: DIFFERENT") for line in lines)
    assert "  B: run.py exited with 1" in lines
    # only the usable pair is summarised, and it ran A first
    rss = next(line for line in lines if line.startswith("peak_rss_mb")).split()
    assert rss[8] == "0/1" and rss[9] == "+0.00%" and math.isnan(float(rss[10].rstrip("%")))
