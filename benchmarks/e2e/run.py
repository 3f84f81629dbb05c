"""End-to-end benchmark: five workloads, host cost and simulated outcome.

    python3 benchmarks/e2e/run.py                      # everything, both modes
    python3 benchmarks/e2e/run.py --workload fig3 --seed 42 --seconds 10 --trace 0

Every repetition of a workload runs ``unit.py`` in a fresh interpreter,
one at a time (``PYTHONHASHSEED=0``).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over the untraced
repetitions; ``--trace 1`` runs one untraced and one traced repetition
and reports the per-layer metrics; without ``--trace`` both happen.  For
each (workload, mode) one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` is printed on its own line, last.

Exit code 0 means every output was checked and correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: the metric lists of BENCHMARK.json, indexed by ``--trace``
KINDS = ("end_to_end", "per_layer")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (imports nothing from repro)


def run_unit(workload: str, seed: int, trace: bool, smoke: bool) -> dict[str, Any]:
    """One repetition in a fresh interpreter; wall time is taken out here,
    from process start to process exit."""
    command = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    if trace:
        command += ["--trace-out", str(RESULTS / f"trace-{workload}.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # compiled modules go under results/, not next to the sources
    env["PYTHONPYCACHEPREFIX"] = str(RESULTS / "pycache")
    started = perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True, cwd=ROOT)
    wall_s = perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"failures": [f"repetition exited with {done.returncode}: "
                             f"{done.stderr.strip()[-2000:]}"], "wall_s": wall_s}
    unit = json.loads(lines[-1])
    unit["wall_s"] = wall_s
    return unit


def spread(values: list[float]) -> dict[str, float]:
    return {"median": median(values), "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(units: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Host metrics as medians over the repetitions, in seconds of the
    reference box at normal speed (raw seconds / the repetition's measured
    slowdown, see speed.py); simulated ones are the same in every
    repetition (checked through the fingerprint)."""
    first = units[0]
    return {
        "wall_s": spread([u["wall_s"] / u["slowdown"] for u in units]),
        # everything outside the measured windows: interpreter start, imports,
        # building and loading, placement derivation, checks, teardown
        "setup_s": spread([(u["wall_s"] - u["measured_s"]) / u["slowdown"] for u in units]),
        "ops_per_host_s": spread([u["ops"] * u["slowdown"] / u["measured_s"] for u in units]),
        "peak_rss_mb": spread([u["peak_rss_mb"] for u in units]),
        "sim_ops_per_s": spread([first["sim_ops_per_s"]]),
        "sim_write_amplification": spread([first["sim_write_amplification"]]),
    }


def check_units(units: list[dict[str, Any]]) -> list[str]:
    failures = [failure for unit in units for failure in unit["failures"]]
    fingerprints = {unit.get("sim_fingerprint") for unit in units if not unit["failures"]}
    if len(fingerprints) > 1:
        failures.append(f"sim_fingerprint differs between repetitions: {sorted(fingerprints)}")
    return failures


def run_workload(name: str, seed: int, reps: int, modes: tuple[int, ...],
                 smoke: bool, definitions: dict[str, Any]) -> dict[str, Any]:
    """Run one workload in the requested modes; returns its results record."""
    record: dict[str, Any] = {"seed": seed, "ops_unit": WORKLOADS[name].ops_unit}
    untraced = [run_unit(name, seed, False, smoke) for _ in range(reps if 0 in modes else 1)]
    units = list(untraced)
    if 1 in modes:
        traced = run_unit(name, seed, True, smoke)
        units.append(traced)
    failures = check_units(units)
    record["failures"] = failures
    record["sim_fingerprint"] = units[0].get("sim_fingerprint", "")
    good = [u for u in untraced if not u["failures"]]
    record["attempted"] = sum(u.get("ops", 1) for u in units)
    # a repetition that failed a check counts all of its operations as failed
    record["failed"] = sum(u.get("ops", 1) for u in units if u["failures"])
    if failures and record["failed"] == 0:  # fingerprint mismatch: nothing can be trusted
        record["failed"] = record["attempted"]
    if not good:
        return record
    record["pair"] = good[0]["pair"]
    if 0 in modes:
        record["reps"] = len(good)
        record["end_to_end"] = end_to_end(good)
        record["raw"] = [{key: u[key] for key in ("wall_s", "measured_s", "slowdown")}
                         for u in good]
    if 1 in modes and not traced["failures"]:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            traced["wall_s"] / traced["slowdown"]
            / median(u["wall_s"] / u["slowdown"] for u in good) - 1
        )
        layers["host.slowdown"] = traced["slowdown"]
        record["per_layer"] = layers
        record["traced_wall_s"] = traced["traced_wall_s"]
    for kind in KINDS:
        defined = {m["name"] for m in definitions[kind]}
        if kind in record and set(record[kind]) != defined:
            record["failures"].append(
                f"{kind} metrics differ from BENCHMARK.json: "
                f"{sorted(defined ^ set(record[kind]))}"
            )
    return record


def contract_line(record: dict[str, Any], kind: str, units: dict[str, str]) -> str:
    """The one-line result object for a (workload, mode)."""
    values = record.get(kind, {})
    metrics = {
        name: {"value": value["median"] if isinstance(value, dict) else value,
               "unit": units[name]}
        for name, value in values.items()
    }
    return json.dumps({
        "correct": not record["failures"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": metrics,
    })


PAPER = {"speedup": 1.21, "copyback_ratio": 0.81, "erase_ratio": 0.956}


def print_workload(name: str, record: dict[str, Any], units: dict[str, str]) -> None:
    print(f"\n== {name} (seed {record['seed']}, operations = {record['ops_unit']}) ==")
    for key, row in record.get("end_to_end", {}).items():
        print(f"  {key:28s} {row['median']:14.4f} {units[key]:10s}"
              f" min {row['min']:.4f} max {row['max']:.4f} n {row['n']}")
    for key, value in record.get("pair", {}).items():
        paper = f"   (paper {PAPER[key]})" if name == "fig3" else ""
        print(f"  sim.{key:24s} {value:14.4f} ratio{paper}")
    for key, value in record.get("per_layer", {}).items():
        print(f"  {key:28s} {value:14.4f} {units[key]}")
    print(f"  sim_fingerprint              {record['sim_fingerprint']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark runs the "
                 "simulator from the repository's source tree")
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, help="default: each workload's own seed")
    parser.add_argument("--seconds", type=float, default=float(definitions["run_seconds"]),
                        help="host seconds of measured windows per workload, reached by "
                             "scaling the number of untraced repetitions "
                             "(default %(default)s)")
    parser.add_argument("--reps", type=int, help="untraced repetitions, overriding --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test; results are stamped and "
                             "refused by compare.py")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json")
    args = parser.parse_args()

    modes = (0, 1) if args.trace is None else (args.trace,)
    units = {m["name"]: m["unit"] for kind in KINDS for m in definitions[kind]}
    results: dict[str, Any] = {"schema": "repro.bench-e2e/v1", "smoke": args.smoke,
                               "workloads": {}}
    lines = []
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        reps = args.reps or max(1, round(workload.reps * args.seconds / definitions["run_seconds"]))
        record = run_workload(name, seed, reps, modes, args.smoke, definitions)
        print_workload(name, record, units)
        lines += [contract_line(record, KINDS[mode], units) for mode in modes]
        results["workloads"][name] = record
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nresults written to {args.out}")
    print("\n".join(lines))
    return 1 if any(r["failures"] for r in results["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
