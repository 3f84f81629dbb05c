"""The committed smoke fingerprints and the comparison CI runs on them.

The 20-second smoke run itself belongs to the ``e2e-smoke`` CI job; what is
checked here is that the committed file is what that job expects, and that
the comparison reports each kind of difference instead of passing it.
"""

import json
import re

import pytest

from tests.integration import e2e_smoke_fingerprints as smoke


def committed():
    return json.loads(smoke.COMMITTED.read_text())


def test_committed_file_names_every_benchmark_workload():
    declared = json.loads((smoke.HERE.parents[1] / "BENCHMARK.json").read_text())
    assert sorted(committed()) == sorted(w["name"] for w in declared["workloads"])
    for row in committed().values():
        assert set(row) == {"seed", "sim_fingerprint"}
        assert isinstance(row["seed"], int)
        assert re.fullmatch(r"[0-9a-f]{64}", row["sim_fingerprint"])


def results(**changes):
    """A smoke results file that reproduces the committed fingerprints."""
    rows = {name: dict(row, reps=1) for name, row in committed().items()}
    return {"smoke": True, "workloads": rows, **changes}


def test_same_outcomes_compare_equal():
    assert smoke.differences(committed(), smoke.fingerprints(results())) == []


def test_each_kind_of_difference_is_reported():
    moved = results()
    moved["workloads"]["ftl"]["sim_fingerprint"] = "0" * 64
    moved["workloads"]["fig3"]["seed"] += 1
    del moved["workloads"]["chaos"]
    moved["workloads"]["extra"] = {"seed": 1, "sim_fingerprint": "f" * 64}
    lines = smoke.differences(committed(), smoke.fingerprints(moved))
    assert [line.split(":")[0] for line in lines] == ["chaos", "extra", "fig3", "ftl"]
    assert "this run None" in lines[0] and "committed None" in lines[1]


def test_full_size_results_are_refused():
    with pytest.raises(ValueError, match="not a smoke run"):
        smoke.fingerprints(results(smoke=False))
