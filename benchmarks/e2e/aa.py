"""A/A check: do two sets of runs of the same code agree with each other?

``aa.py --sets 2`` runs back-to-back sets of ten seeds per workload on
this checkout, the way the driver does, and prints per (end-to-end
metric, workload) each set's median and middle-half spread, the drift
of the last set's median against the first (positive = worse) and the
metric's bound, marked ``ok`` or ``over``.  One traced run per set and
workload checks that every exact count repeats.

Exits non-zero on any ``over``, any differing exact count, or any
failed op.  Takes about half an hour at the contract's run length.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import middle_half_spread

ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, last: float, better: str) -> float:
    """Share of ``first`` by which ``last`` is worse (negative = better)."""
    change = (last - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=contract["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in contract["workloads"]])
    args = parser.parse_args(argv)

    # values[workload][metric][set] -> one value per seed
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m["name"]: [[] for _ in range(args.sets)]
            for m in contract["end_to_end"]} for w in args.workloads}
    counts: Dict[str, List[Dict[str, float]]] = {w: [] for w in args.workloads}
    failed_ops = 0
    for index in range(args.sets):
        for workload in args.workloads:
            for seed in range(1, args.seeds + 1):
                result = run_once(workload, seed, args.seconds, trace=0)
                failed_ops += result["failed"] + (not result["correct"])
                for name, metric in result["metrics"].items():
                    values[workload][name][index].append(metric["value"])
                print("set %d %s seed %d: %s" % (
                    index + 1, workload, seed,
                    " ".join("%s=%.4g" % (n, m["value"])
                             for n, m in result["metrics"].items())),
                    file=sys.stderr, flush=True)
            traced = run_once(workload, 1, args.seconds, trace=1)
            counts[workload].append(
                {n: m["value"] for n, m in traced["metrics"].items()
                 if m["unit"] == "count"})

    over = 0
    print("| workload | metric | " + " | ".join(
        "median %d | spread %d" % (i + 1, i + 1) for i in range(args.sets))
        + " | drift | bound | |")
    print("|---|---|" + "---:|---:|" * args.sets + "---:|---:|---|")
    for workload in args.workloads:
        for metric in contract["end_to_end"]:
            sets = values[workload][metric["name"]]
            medians = [statistics.median(s) for s in sets]
            spreads = [middle_half_spread(s) for s in sets]
            drift = worse_by(medians[0], medians[-1], metric["better"])
            # the spread of setup_s is not held to its bound, only its drift
            held = spreads if metric["name"] != "setup_s" else []
            ok = drift <= metric["bound"] and all(
                s <= metric["bound"] for s in held)
            over += not ok
            print("| %s | %s | " % (workload, metric["name"]) + " | ".join(
                "%.5g | %.1f%%" % (m, 100 * s)
                for m, s in zip(medians, spreads))
                + " | %+.1f%% | %.0f%% | %s |" % (
                    100 * drift, 100 * metric["bound"],
                    "ok" if ok else "over"))
    differing = [(workload, name)
                 for workload, per_set in counts.items()
                 for name in per_set[0]
                 if any(other[name] != per_set[0][name]
                        for other in per_set[1:])]
    print("\nexact counts differing between sets: %s"
          % (", ".join("%s/%s" % pair for pair in differing) or "none"))
    print("failed ops: %d" % failed_ops)
    return 1 if over or differing or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
