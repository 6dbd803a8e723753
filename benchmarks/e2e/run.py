"""One benchmark run: ``run.py --workload W --seed N --seconds S --trace 0|1``.

Prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` when untraced, every per-layer
metric when traced.  Everything a reader needs to interpret the run
(host fingerprint, sample counts, gate failures) goes to standard
error.  One process, one thread.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# before numpy is imported: nproc is 2 and shared, one BLAS thread
# keeps a run from competing with itself
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import pathlib
import platform
import resource
import statistics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

if not (SRC / "repro").is_dir():
    sys.exit("benchmarks/e2e/run.py: no src/repro under %s — nothing to "
             "measure" % ROOT)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np

import refresh_ivf
import serve_zipf
import train_deep
from harness import SCRATCH

WORKLOADS = {module.NAME: module
             for module in (train_deep, refresh_ivf, serve_zipf)}
IMPORT_SECONDS = time.perf_counter() - _PROCESS_START
#: full set-ups timed per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


def contract() -> dict:
    return json.loads(CONTRACT.read_text())


def fingerprint(kernel_mode: str) -> dict:
    """The host facts a reader needs to compare two runs."""
    from repro.geometry import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    return {
        "cpu_count": os.cpu_count(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": kernels.NUMBA_VERSION,
        "kernels": kernel_mode,
        "git_commit": commit,
    }


def end_to_end(measured, setup_seconds) -> dict:
    """The six end-to-end metrics of one untraced run."""
    return {
        # imports happen once per process; the rest of the set-up is
        # repeated and its median taken
        "setup_s": IMPORT_SECONDS + statistics.median(setup_seconds),
        "work_per_s": measured.work_per_s,
        "op_ms_p50": measured.op_ms_p50,
        "op_ms_tail": measured.op_ms_tail,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result_quality": measured.result_quality,
    }


def run_untraced(module, seed: int, seconds: float):
    """Set up ``SETUP_REPEATS`` times, measure on the last set-up."""
    setups = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                module.close(state)
                state = None
                gc.collect()
            start = time.perf_counter()
            state = module.build(seed, module.FULL)
            setups.append(time.perf_counter() - start)
        measured = module.measure(state, seconds)
        mode = module.kernel_mode(state)
    finally:
        if state is not None:
            module.close(state)
    notes = dict(measured.notes, setup_seconds=setups,
                 import_seconds=IMPORT_SECONDS,
                 gate_failures=measured.gate_failures)
    return end_to_end(measured, setups), measured, notes, mode


def run_traced(module, seed: int):
    """One set-up, then equal untraced and traced fixed-op passes."""
    state = module.build(seed, module.FULL)
    try:
        metrics, tracer = module.layers(state)
        mode = module.kernel_mode(state)
    finally:
        module.close(state)
    return metrics, tracer, mode


def result_line(metrics: dict, declared: list, attempted: int,
                failed: int) -> str:
    """The contract's JSON object, metrics in the declared order."""
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        raise KeyError("metrics not declared in BENCHMARK.json: %s"
                       % ", ".join(unknown))
    return json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        # a per-layer metric of a layer this workload never enters is
        # a measured 0: the boundary was wrapped and never called
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in declared},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    module = WORKLOADS[args.workload]
    declared = contract()

    if args.trace:
        metrics, tracer, mode = run_traced(module, args.seed)
        tracer.dump(SCRATCH / ("trace_%s.json" % args.workload),
                    args.workload)
        notes = {"spans": len(tracer.spans), "counts": tracer.counts}
        line = result_line(metrics, declared["per_layer"],
                           attempted=len(tracer.op_roots), failed=0)
    else:
        metrics, measured, notes, mode = run_untraced(module, args.seed,
                                                      args.seconds)
        line = result_line(metrics, declared["end_to_end"],
                           measured.attempted, measured.failed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": fingerprint(mode), "notes": notes},
                     default=str), file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
