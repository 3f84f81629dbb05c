"""Sharded execution: order-stable fan-out and deterministic doc merge.

The contract under test is the one the CLI relies on: ``--shards N``
must produce the exact ``repro.obs/v1`` document the sequential path
emits.  Cells are partition-closed by construction (each owns its whole
device), so the merge is an order-preserving union — pinned here both at
the unit level and end-to-end with real worker processes.
"""

import math
import operator

import pytest

from repro.bench import (
    MergeError,
    ShardCell,
    SyntheticConfig,
    hotcold_cells,
    merge_metrics_docs,
    run_cells,
    run_supervised,
)
from repro.obs.export import metrics_doc, validate_metrics_doc


class TestRunCells:
    def test_sequential_runs_in_order(self):
        cells = [ShardCell(str(n), math.factorial, (n,)) for n in (3, 5, 7)]
        assert run_cells(cells, shards=1) == [6, 120, 5040]

    def test_parallel_results_keep_submission_order(self):
        # stdlib callables: picklable by reference in spawn workers
        cells = [ShardCell(str(n), operator.neg, (n,)) for n in range(6)]
        assert run_cells(cells, shards=3) == [0, -1, -2, -3, -4, -5]

    def test_single_cell_never_spawns(self):
        # a lambda is unpicklable: this only passes on the in-process path
        assert run_cells([ShardCell("one", lambda: 42)], shards=8) == [42]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            run_cells([], shards=0)


class TestMergeMetricsDocs:
    def _doc(self, name, value, **extra):
        return metrics_doc("demo", {name: {"summary": {"x": value}}}, **extra)

    def test_disjoint_union_preserves_order_and_extras(self):
        merged = merge_metrics_docs([
            self._doc("a", 1.0, policies={"gc": "greedy"}),
            self._doc("b", 2.0, policies={"gc": "greedy"}),
        ])
        assert list(merged["configs"]) == ["a", "b"]
        assert merged["policies"] == {"gc": "greedy"}
        assert validate_metrics_doc(merged) is merged
        assert merged == metrics_doc(
            "demo",
            {"a": {"summary": {"x": 1.0}}, "b": {"summary": {"x": 2.0}}},
            policies={"gc": "greedy"},
        )

    def test_colliding_configs_sum_counters(self):
        merged = merge_metrics_docs([self._doc("a", 1.0), self._doc("a", 2.5)])
        assert merged["configs"]["a"]["summary"]["x"] == 3.5

    def test_colliding_lists_sum_elementwise(self):
        docs = [
            metrics_doc("demo", {"a": {"s": {"buckets": [1, 2]}}}),
            metrics_doc("demo", {"a": {"s": {"buckets": [10, 20]}}}),
        ]
        assert merge_metrics_docs(docs)["configs"]["a"]["s"]["buckets"] == [11, 22]

    def test_command_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_metrics_docs([
                metrics_doc("demo", {"a": {}}),
                metrics_doc("other", {"b": {}}),
            ])

    def test_conflicting_extras_rejected(self):
        with pytest.raises(ValueError):
            merge_metrics_docs([
                self._doc("a", 1.0, policies={"gc": "greedy"}),
                self._doc("b", 2.0, policies={"gc": "cost_benefit"}),
            ])

    def test_structural_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_metrics_docs([
                metrics_doc("demo", {"a": {"s": {"x": 1.0}}}),
                metrics_doc("demo", {"a": {"s": {"x": [1.0]}}}),
            ])

    def test_inputs_are_not_mutated(self):
        left, right = self._doc("a", 1.0), self._doc("a", 2.0)
        merge_metrics_docs([left, right])
        assert left["configs"]["a"]["summary"]["x"] == 1.0
        assert right["configs"]["a"]["summary"]["x"] == 2.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_metrics_docs([])

    def test_merge_error_is_typed_and_a_value_error(self):
        # pre-existing callers catch ValueError; new callers can be precise
        assert issubclass(MergeError, ValueError)
        with pytest.raises(MergeError):
            merge_metrics_docs([])

    def test_schema_version_mismatch_is_loud(self):
        doc = self._doc("a", 1.0)
        other = self._doc("b", 2.0)
        other["schema"] = "repro.obs/v2"
        with pytest.raises(MergeError, match="different schema versions"):
            merge_metrics_docs([doc, other])

    def test_key_set_mismatch_names_the_stray_keys(self):
        # a shard missing one counter (or inventing one) is a corrupted
        # shard: the merge must fail, not union a half-empty tree
        docs = [
            metrics_doc("demo", {"a": {"s": {"x": 1.0, "y": 2.0}}}),
            metrics_doc("demo", {"a": {"s": {"x": 1.0, "z": 3.0}}}),
        ]
        with pytest.raises(MergeError, match="disagree on keys") as exc:
            merge_metrics_docs(docs)
        assert "'y'" in str(exc.value) and "'z'" in str(exc.value)

    def test_nested_key_set_mismatch_reports_the_path(self):
        docs = [
            metrics_doc("demo", {"a": {"s": {"inner": {"x": 1.0}}}}),
            metrics_doc("demo", {"a": {"s": {"inner": {}}}}),
        ]
        with pytest.raises(MergeError, match=r"a\.s\.inner"):
            merge_metrics_docs(docs)


def _hotcold_doc(config, shards) -> dict:
    (mixed, separated), _report = run_supervised(hotcold_cells(config), shards)
    return merge_metrics_docs([
        metrics_doc("hotcold", {result.name: result.metrics()})
        for result in (mixed, separated)
    ])


def test_two_shards_match_single_process_doc():
    """End-to-end gate: the merged 2-shard document equals the sequential
    one, field for field — real spawn workers, real simulation."""
    config = SyntheticConfig(writes=1200)
    sequential = _hotcold_doc(config, shards=1)
    sharded = _hotcold_doc(config, shards=2)
    assert sharded == sequential
