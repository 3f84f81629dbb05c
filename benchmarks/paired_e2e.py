"""Paired end-to-end comparison of two revisions on one benchmark workload.

    python3 benchmarks/paired_e2e.py REV_A REV_B --workload tpcc_smallbuf \
        [--pairs 10] [--reps 1] [--seed N]

Both revisions (anything ``git archive`` takes: a commit, a branch, a tree
id) are extracted with ``git archive`` into one temporary directory, so
both trees are built the same way (a ``cp -r`` copy of a checkout reads
``peak_rss_mb`` differently from the tree it was copied from).  Then
``benchmarks/e2e/run.py --workload W --trace 0 --reps R [--seed N]`` runs
in each tree in turn, one at a time.  The pairs are counterbalanced:
``REV_A`` runs first in the even pairs (0, 2, ...) and ``REV_B`` first in
the odd ones (:func:`schedule`), so whatever favours the first (or the
second) run of a pair weighs on both revisions alike.  An uncommitted
change is a tree id: ``GIT_INDEX_FILE=/tmp/i git add -A`` and
``GIT_INDEX_FILE=/tmp/i git write-tree`` name it without touching the
real index.

For each end-to-end metric of ``BENCHMARK.json`` the report gives both
revisions' medians with their quartiles, the median over the pairs of the
ratio ``B / A`` and how many pairs got better in the metric's direction,
then that median ratio over the A-first pairs and over the B-first pairs
alone: where the two differ by more than the effect, the order of the
runs, not the revision, moved the metric.  It then says whether every
run's ``sim_fingerprint`` was the same and how many operations failed.
Exit status 1 means some fingerprint differed (a run that failed has
none), 0 that every run agreed.

A/A floor: ``REV REV`` runs one tree against itself.  Ten counterbalanced
pairs of one repetition each, on a 2-vCPU VM shared with other
tenants, read as follows.  Each cell is the largest |paired median − 1|
and the "better in n/10" count farthest from 5/10.  A change that reads
inside these bounds on these workloads is unresolved, not a gain or a
loss:

    workload        wall_s         setup_s         ops_per_host_s   peak_rss_mb
    fig3            3.4%  (3/10)   0.0%  (5/10)    3.1%  (3/10)     0.07% (7/10)
    tpcc_smallbuf   1.9%  (4/10)   2.9%  (3/10)    0.2%  (5/10)     0.21% (4/10)
    hotcold         1.7%  (4/10)   11.6% (2/10)    0.5%  (5/10)     0.01% (5/10)
    ftl             5.8%  (7/10)   10.9% (8/10)    3.9%  (8/10)     0.07% (5/10)
    chaos           4.9%  (4/10)   8.7%  (3/10)    0.8%  (3/10)     0.30% (3/10)

Each row is one A/A run; a cell that one run happened to read small
(``fig3`` ``setup_s``) is a lower bound on the floor, not the floor.

``sim_ops_per_s`` and ``sim_write_amplification`` are deterministic: every
pair reads the same, 0.0%.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from collections.abc import Callable
from statistics import median, quantiles
from typing import Any

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked under ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(
    tree: Path, workload: str, reps: int, out: Path, seed: int | None = None
) -> dict[str, Any]:
    """One ``run.py`` invocation in ``tree``; its record for ``workload``,
    or a stand-in with the failure when it wrote none."""
    command = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--trace", "0", "--reps", str(reps), "--out", str(out)]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if not out.exists():
        return {"failures": [f"run.py exited with {done.returncode}: {done.stderr[-2000:]}"],
                "attempted": 1, "failed": 1, "sim_fingerprint": ""}
    return dict(json.loads(out.read_text())["workloads"][workload])


def schedule(pairs: int) -> list[str]:
    """The order of each pair's two runs: ``"ab"`` (``REV_A`` first) for
    the even pairs, ``"ba"`` for the odd ones."""
    return ["ab" if index % 2 == 0 else "ba" for index in range(pairs)]


def run_pairs(
    trees: tuple[Path, Path], orders: list[str], run: Callable[[Path, Path], dict[str, Any]],
    scratch: Path,
) -> list[tuple[dict[str, Any], dict[str, Any]]]:
    """``(A record, B record)`` of each pair, its runs made in the pair's
    order by ``run(tree, out_file)``."""
    pairs = []
    for index, order in enumerate(orders):
        records = {side: run(trees["ab".index(side)], scratch / f"{side}-{index}.json")
                   for side in order}
        pairs.append((records["a"], records["b"]))
        print(f"pair {index + 1}/{len(orders)} ({order.upper()}) done",
              file=sys.stderr, flush=True)
    return pairs


def median_ratio(a_values: list[float], b_values: list[float]) -> float:
    """Median over the pairs of ``B / A``, minus one; NaN for no pairs."""
    ratios = [b / a if a else float("nan") for a, b in zip(a_values, b_values)]
    return median(ratios) - 1 if ratios else float("nan")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(
    pairs: list[tuple[dict[str, Any], dict[str, Any]]], metrics: list[dict[str, Any]],
    orders: list[str],
) -> tuple[list[str], bool]:
    """Report lines for ``(A record, B record)`` pairs run in ``orders``,
    and whether every fingerprint agreed."""
    lines = [f"{'metric':24s} {'A q1/median/q3':>32s} {'B q1/median/q3':>32s}"
             f" {'B/A median':>11s} {'better':>7s} {'A first':>9s} {'B first':>9s}"]
    usable = [(a, b, order) for (a, b), order in zip(pairs, orders)
              if "end_to_end" in a and "end_to_end" in b]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if not usable:
            break
        a_values = [a["end_to_end"][name]["median"] for a, __, ___ in usable]
        b_values = [b["end_to_end"][name]["median"] for __, b, ___ in usable]
        better = sum((b < a) if lower else (b > a) for a, b in zip(a_values, b_values))
        by_order = []
        for first in ("ab", "ba"):
            kept = [i for i, (__, ___, order) in enumerate(usable) if order == first]
            by_order.append(median_ratio([a_values[i] for i in kept], [b_values[i] for i in kept]))
        a_q, b_q = quartiles(a_values), quartiles(b_values)
        lines.append(
            f"{name:24s} {a_q[0]:10.4g} {a_q[1]:10.4g} {a_q[2]:10.4g}"
            f" {b_q[0]:10.4g} {b_q[1]:10.4g} {b_q[2]:10.4g}"
            f" {median_ratio(a_values, b_values):+10.2%} {better:>3d}/{len(usable):<3d}"
            f" {by_order[0]:+9.2%} {by_order[1]:+9.2%}"
        )
    prints = {record.get("sim_fingerprint", "") for pair in pairs for record in pair}
    same = len(prints) == 1 and "" not in prints
    lines.append(f"sim_fingerprint: {'all equal' if same else 'DIFFERENT'} {sorted(prints)}")
    for side, index in (("A", 0), ("B", 1)):
        records = [pair[index] for pair in pairs]
        failed = sum(record.get("failed", 0) for record in records)
        attempted = sum(record.get("attempted", 0) for record in records)
        lines.append(f"failed operations {side}: {failed} of {attempted}")
        lines += [f"  {side}: {failure}" for record in records for failure in record["failures"]]
    return lines, same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", metavar="REV_A", help="the baseline revision")
    parser.add_argument("rev_b", metavar="REV_B", help="the revision compared with it")
    parser.add_argument("--workload", required=True, help="one workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="default %(default)s")
    parser.add_argument("--reps", type=int, default=1,
                        help="untraced repetitions per run.py call (default %(default)s)")
    parser.add_argument("--seed", type=int,
                        help="passed on to run.py; default: the workload's own seed")
    args = parser.parse_args()
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in definitions["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be at least 1")
    orders = schedule(args.pairs)
    with tempfile.TemporaryDirectory(prefix="paired-e2e-") as tmp:
        base = Path(tmp)
        trees = (extract(args.rev_a, base / "a"), extract(args.rev_b, base / "b"))

        def run(tree: Path, out: Path) -> dict[str, Any]:
            return run_once(tree, args.workload, args.reps, out, args.seed)

        pairs = run_pairs(trees, orders, run, base)
    seed = "its own seed" if args.seed is None else f"seed {args.seed}"
    print(f"{args.workload} ({seed}): A = {args.rev_a}, B = {args.rev_b}, {args.pairs} pairs "
          f"of {args.reps} repetition(s), A first in {orders.count('ab')}, "
          f"B first in {orders.count('ba')}")
    lines, same = summarise(pairs, definitions["end_to_end"], orders)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
