"""Sharded execution: order-stable fan-out and deterministic doc merge.

The contract under test is the one the CLI relies on: ``--shards N``
must produce the exact ``repro.obs/v1`` document the sequential path
emits, and must fail the way the sequential path fails.  Cells are
partition-closed by construction (each owns its whole device), so the
merge is an order-preserving union — pinned here both at the unit level
and end-to-end with real worker processes.

Worker functions live at module level so spawn workers can unpickle them
by qualified name.
"""

import math
import operator
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.bench import (
    MergeError,
    ShardCell,
    SyntheticConfig,
    ftl_cells,
    hotcold_cells,
    merge_metrics_docs,
    run_cells,
    synthetic_experiment,
)
from repro.flash.errors import StaleReservationError
from repro.obs.export import dump_json, metrics_doc, validate_metrics_doc


def _stale_reservation() -> None:
    raise StaleReservationError("die 3", 1.0, 20_000.0)


def _sigkill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


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

    def test_worker_exception_keeps_its_type_and_message(self):
        cells = [ShardCell("ok", operator.neg, (1,)), ShardCell("bad", _stale_reservation)]
        with pytest.raises(StaleReservationError) as exc:
            run_cells(cells, shards=2)
        assert str(exc.value) == str(StaleReservationError("die 3", 1.0, 20_000.0))

    def test_dead_worker_breaks_the_pool(self):
        cells = [ShardCell("dies", _sigkill_self), ShardCell("ok", operator.neg, (1,))]
        with pytest.raises(BrokenProcessPool):
            run_cells(cells, shards=2)


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

    def test_colliding_config_names_rejected(self):
        # each cell owns its config names
        with pytest.raises(MergeError, match="'a' appears in more than one document"):
            merge_metrics_docs([self._doc("a", 1.0), self._doc("b", 2.0), self._doc("a", 2.5)])

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
        left, right = self._doc("a", 1.0), self._doc("b", 2.0)
        merge_metrics_docs([left, right])
        assert left == self._doc("a", 1.0)
        assert right == self._doc("b", 2.0)

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


def _merged_doc(command, cells, shards) -> dict:
    return merge_metrics_docs([
        metrics_doc(command, {result.name: result.metrics()})
        for result in run_cells(cells, shards)
    ])


def test_two_shards_match_single_process_doc():
    """End-to-end gate: the merged 2-shard document equals the sequential
    one, field for field — real spawn workers, real simulation."""
    config = SyntheticConfig(writes=1200)
    sequential = _merged_doc("hotcold", hotcold_cells(config), shards=1)
    sharded = _merged_doc("hotcold", hotcold_cells(config), shards=2)
    assert sharded == sequential


def test_reused_workers_match_single_process_doc():
    """Five FTL cells over two workers: each worker runs cells after
    another cell's stack, and the merged document is still the sequential
    one byte for byte."""
    config = replace(synthetic_experiment("ftl.quick"), writes=1000)
    sequential = _merged_doc("ftl", ftl_cells(config), shards=1)
    sharded = _merged_doc("ftl", ftl_cells(config), shards=2)
    assert dump_json(sharded) == dump_json(sequential)
