"""Shared CLI conventions for the standalone benchmark scripts.

The pytest-driven benches (``pytest benchmarks/bench_*.py``) write
their reports through :mod:`repro.bench`.  Scripts meant to be run
directly (``python benchmarks/bench_training_throughput.py``) share
one convention via this module:

- ``--out PATH`` — where the single machine-readable JSON payload
  lands; defaults into the repo root's ``BENCH_<name>.json`` perf
  trajectory (committed, unlike the ``benchmarks/results/`` scratch
  directory, which is gitignored);
- ``--scale X`` — multiplies workload sizes, mirroring the
  ``REPRO_BENCH_SCALE`` convention of the pytest benches (CI runs tiny
  scales; the trajectory numbers use the default 1.0).

Figures are absolute (rates, seconds, counts); every payload carries
the host fingerprint they were taken under, so two files are only
compared when their hosts match.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def exact_ground_truth(space, queries, k):
    """Top-``k`` ``(ids, dists)`` under the true mixed-curvature metric.

    One shared ground-truth path for every bench that compares an
    approximate search against the exact MNN result: the streamed
    :class:`~repro.retrieval.backend.ExactBackend`, never a
    materialised full distance matrix.  Compute it once per
    ``(space, queries)`` and pass the ids around.
    """
    from repro.retrieval import make_backend
    backend = make_backend("exact").build(space)
    return backend.search(np.asarray(queries, dtype=np.int64), k)


def euclidean_view(space):
    """A flat-Euclidean :class:`RelationSpace` over the same points.

    Concatenates the per-subspace embeddings into one κ=0 subspace with
    constant attention weights, so the mixed metric reduces to
    ``2·||x − y||`` — rank-equivalent to plain Euclidean search.  Lets
    a bench compute a Euclidean control ranking through the exact same
    streamed backend as the true-metric ground truth, instead of a
    second, memory-heavy ``(Q, N)`` distance matrix.
    """
    from repro.retrieval.mnn import RelationSpace
    src = np.concatenate(space.src_embeddings, axis=1)
    dst = np.concatenate(space.dst_embeddings, axis=1)
    return RelationSpace(
        relation=space.relation,
        src_embeddings=[src], dst_embeddings=[dst],
        src_weights=np.full((src.shape[0], 1), 0.5),
        dst_weights=np.full((dst.shape[0], 1), 0.5),
        kappas=[0.0])


def bench_parser(name: str, description: str) -> argparse.ArgumentParser:
    """Argument parser with the shared ``--out`` / ``--scale`` flags."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=REPO_ROOT / ("BENCH_%s.json" % name),
        help="JSON result path (default: BENCH_%s.json at the repo root)"
             % name)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload multiplier; < 1 for smoke runs (default 1.0)")
    return parser


def host_fingerprint() -> dict:
    """The host facts a reader needs before comparing two BENCH files."""
    from repro.geometry import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": kernels.NUMBA_VERSION,
        "kernels": kernels.resolve_mode("auto"),
    }


def write_json_out(path, payload) -> pathlib.Path:
    """Write one bench's JSON payload (plus the host fingerprint)."""
    payload = dict(payload, host=host_fingerprint())
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % path)
    return path
