"""Self-test of the end-to-end benchmark at ``--smoke`` scale.

Run explicitly (``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFINITIONS = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITIONS["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import LAYERS  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, dict]:
    """One smoke run of everything: (results file, contract lines by workload+mode)."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "1", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == 2 * len(WORKLOADS)
    by_mode = {
        (name, mode): lines[2 * i + mode]
        for i, name in enumerate(WORKLOADS) for mode in (0, 1)
    }
    return json.loads(out.read_text()), by_mode


def test_workloads_match_the_definitions() -> None:
    from workloads import WORKLOADS as implemented

    assert list(implemented) == WORKLOADS


@pytest.mark.parametrize("mode, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(smoke, mode: int, kind: str) -> None:
    _results, lines = smoke
    for name in WORKLOADS:
        line = lines[name, mode]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metric in DEFINITIONS[kind]:
            reported = line["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
        assert len(line["metrics"]) == len(DEFINITIONS[kind])
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in line["metrics"].values())


def test_results_are_stamped_smoke_and_refused_by_compare(smoke, tmp_path: Path) -> None:
    results, _lines = smoke
    assert results["smoke"] is True
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(results))
    done = subprocess.run([sys.executable, str(HERE / "compare.py"), str(path), str(path)],
                          capture_output=True, text=True)
    assert done.returncode != 0 and "smoke" in done.stderr


def test_self_times_partition_the_traced_wall(smoke) -> None:
    results, _lines = smoke
    for name, record in results["workloads"].items():
        layers = record["per_layer"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)  # "other" included
        assert total == pytest.approx(record["traced_wall_s"], rel=0.01), name
        assert layers["trace.spans"] > 0


def test_traced_and_untraced_fingerprints_match(smoke) -> None:
    # run.py compares the fingerprints of every repetition, traced or not,
    # and reports a mismatch as a failure
    results, _lines = smoke
    for name, record in results["workloads"].items():
        assert record["failures"] == [], name
        assert len(record["sim_fingerprint"]) == 64


def test_layers_a_workload_never_enters_stay_at_zero(smoke) -> None:
    results, _lines = smoke
    layers = {name: record["per_layer"] for name, record in results["workloads"].items()}
    for name in ("hotcold", "ftl"):
        assert layers[name]["db.calls"] == layers[name]["tpcc.calls"] == 0
    for name in WORKLOADS:
        assert (layers[name]["ftl.calls"] > 0) == (name == "ftl")
    assert layers["chaos"]["flash.command_calls"] > 0
    assert layers["hotcold"]["flash.packed_calls"] > layers["hotcold"]["flash.command_calls"]
    assert layers["chaos"]["faults.injected_total"] > 0


def test_every_patched_attribute_is_restored() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer

    tracer = Tracer("restore", fine=True)
    tracer.start()
    replaced = tracer.patched()
    assert len(replaced) > 50
    assert all(vars(owner)[name] is not original for owner, name, original in replaced)
    tracer.stop()
    assert all(vars(owner)[name] is original for owner, name, original in replaced)
    assert tracer.patched() == []


def test_compare_of_the_baseline_against_itself_is_all_unchanged() -> None:
    baseline = HERE / "baseline.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(baseline), str(baseline)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[-1] for line in done.stdout.splitlines() if " bound " in line]
    assert len(verdicts) == len(WORKLOADS) * len(DEFINITIONS["end_to_end"])
    assert set(verdicts) == {"unchanged"}


def test_compare_verdicts() -> None:
    from compare import verdict

    a = {"median": 10.0, "min": 9.8, "max": 10.3}
    assert verdict(a, {"median": 11.5, "min": 11.0, "max": 12.0}, "lower", 0.1) == "worse"
    assert verdict(a, {"median": 9.0, "min": 8.8, "max": 9.2}, "lower", 0.1) == "better"
    assert verdict(a, {"median": 10.1, "min": 9.9, "max": 10.2}, "lower", 0.1) == "unchanged"
    wide = {"median": 10.0, "min": 8.0, "max": 12.0}
    assert verdict(wide, {"median": 10.5, "min": 8.5, "max": 12.5}, "lower", 0.1) == "unresolved"
    assert verdict(a, {"median": 8.0, "min": 7.9, "max": 8.1}, "higher", 0.1) == "worse"


def test_fails_without_the_source_tree(tmp_path: Path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no simulator to run: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hotcold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
