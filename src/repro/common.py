"""Shared constants, crash-safe filesystem primitives, retired keys.

Every persisted artifact in the repo goes through the atomic writers
here: content lands in a same-directory temp file first (flushed and
fsynced), then a single ``os.replace`` makes it visible.  A crash —
real, or injected at the ``"io.atomic_write"`` fault point — at any
instant leaves either the complete old file or the complete new file,
never a torn hybrid; stray ``*.tmp-*`` staging files are dead weight a
later write of the same path sweeps up.

Published artifacts are immutable, so everything that reads a config
(``TrainerConfig``, ``PipelineConfig.from_dict``, ``load_model``,
``make_backend``, ``IndexSet``, ``ServingEngine``) drops the keys of
retired planes through :func:`drop_retired_planes`, which also maps a
retired backend name to the backend that replaced it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import tempfile
from typing import Iterator, Union

import numpy as np

from repro.testing.faults import InjectedFault, fault_point

#: Padding id for variable-length categorical feature slots (e.g. terms).
PAD = -1

PathLike = Union[str, "os.PathLike[str]"]


def _sweep_stale_tmp(path: pathlib.Path) -> None:
    """Best-effort removal of staging files a crashed writer left behind."""
    for stale in path.parent.glob(path.name + ".tmp-*"):
        with contextlib.suppress(OSError):
            stale.unlink()


@contextlib.contextmanager
def atomic_writer(path: PathLike, mode: str = "wb") -> Iterator:
    """Open a temp file that replaces ``path`` atomically on clean exit.

    The ``"io.atomic_write"`` fault point sits between the flushed
    write and the publishing ``os.replace``; a ``torn``-mode fault
    additionally truncates the staged bytes to half before raising, so
    regression tests can prove a mid-write crash never corrupts the
    published file.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_tmp(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".tmp-")
    tmp = pathlib.Path(tmp_name)
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        try:
            fault_point("io.atomic_write", path=str(path))
        except InjectedFault as exc:
            if exc.torn:    # simulate the crash tearing the staged bytes
                size = tmp.stat().st_size
                with open(tmp, "r+b") as handle:
                    handle.truncate(size // 2)
            raise
        os.replace(tmp, path)
    except BaseException:
        # leave ``path`` untouched; drop the staging file (a real crash
        # would leave it behind — the sweep above handles that later)
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_bytes(path: PathLike, payload: bytes) -> pathlib.Path:
    with atomic_writer(path, "wb") as handle:
        handle.write(payload)
    return pathlib.Path(path)


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> pathlib.Path:
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_savez(path: PathLike, arrays: dict) -> pathlib.Path:
    """``np.savez`` through the atomic writer — stored, never deflated.

    zlib shrinks a model to 0.95, a checkpoint to ~0.85 and an index
    set to 0.58 of its size for 10–30x the write time; ``np.load``
    reads the deflated archives already published unchanged.
    """
    with atomic_writer(path, "wb") as handle:
        np.savez(handle, **arrays)
    return pathlib.Path(path)


def _number(minimum: float = float("-inf")):
    return lambda value: isinstance(value, (int, float)) and value >= minimum


#: ``section -> {key: (accepts, accepted)}``: keys of retired planes
#: that configs (and, for the model section, ``model.npz`` headers)
#: published before the retirement carry.  A value the plane accepted
#: is dropped on load, so old artifact stores keep opening; any other
#: value is rejected by name.  ``backend`` holds search-backend
#: constructor kwargs (a config's ``index.backend_kwargs`` and
#: ``inner_kwargs``, an ``indices.npz`` header's ``backend_params``)
#: and ``engine`` the ``ServingEngine`` kwargs.
_RETIRED_PLANES = {
    "training": {
        "data_plane": (lambda value: value == "batched", "'batched'"),
        # the multi-process sampler: the keys only scheduled sampling
        "prefetch_workers": (_number(0), "a number >= 0"),
        "prefetch_depth": (_number(1), "a number >= 1"),
    },
    "model": {
        "compute_plane": (lambda value: value == "frontier", "'frontier'"),
        # the geometry kernel dial: numpy is the one implementation left
        "kernels": (lambda value: value in ("auto", "numpy", "compiled"),
                    "'auto', 'numpy' or 'compiled'"),
    },
    # the in-process thread pools of search and serving, and the shard
    # deadline only a pool could enforce
    "index": {
        "num_workers": (_number(), "a number"),
        "shard_parallelism": (_number(1), "a number >= 1"),
        "shard_timeout_ms": (_number(0), "a number >= 0"),
        # the NSW graph backend's beam width
        "ef_search": (_number(1), "a number >= 1"),
    },
    "backend": {
        "num_workers": (_number(), "a number"),
        "parallelism": (_number(), "a number"),
        "shard_timeout": (lambda value: value is None
                          or (_number()(value) and value > 0),
                          "null or a number > 0"),
        # the NSW graph backend's constructor-only kwargs
        "max_degree": (_number(1), "a number >= 1"),
        "ef_construction": (_number(1), "a number >= 1"),
        "ef_search": (_number(1), "a number >= 1"),
        "insert_chunk": (_number(1), "a number >= 1"),
        "expand_hops": (_number(0), "a number >= 0"),
        # the product-quantisation backend's codebook shape
        "num_blocks": (_number(1), "a number >= 1"),
        "codebook_size": (_number(1), "a number >= 1"),
    },
    "engine": {
        "shard_parallelism": (_number(), "a number"),
    },
}


#: retired search backend -> the backend a published config or index
#: header naming it loads as (its stored indices still serve unchanged;
#: a rebuild builds the replacement)
_RETIRED_BACKENDS = {"nsw": "ivf", "pq": "ivf"}

#: ``section -> keys`` whose value is a search-backend name
_BACKEND_NAME_KEYS = {
    "index": ("backend", "inner_backend"),
    "backend": ("inner_backend",),
}

#: ``section -> keys`` whose value is a dict of backend constructor kwargs
_BACKEND_KWARGS_KEYS = {
    "index": ("backend_kwargs",),
    "backend": ("inner_kwargs",),
}


def current_backend(name):
    """The backend a (possibly retired) backend name loads as."""
    return _RETIRED_BACKENDS.get(name, name)


def is_retired_key(section: str, key: str) -> bool:
    return key in _RETIRED_PLANES.get(section, {})


def drop_retired_planes(section: str, given: dict) -> dict:
    """``given`` without the retired plane keys of ``section``, with
    any retired backend name replaced by its successor, and with nested
    backend kwargs cleaned the same way."""
    given = dict(given)
    for key in _BACKEND_NAME_KEYS.get(section, ()):
        if isinstance(given.get(key), str):
            given[key] = current_backend(given[key])
    for key in _BACKEND_KWARGS_KEYS.get(section, ()):
        if isinstance(given.get(key), dict):
            given[key] = drop_retired_planes("backend", given[key])
    for key, (accepts, accepted) in _RETIRED_PLANES.get(section, {}).items():
        if key not in given:
            continue
        value = given.pop(key)
        if not accepts(value):
            raise ValueError(
                "%s.%s=%r: that plane was retired and the key no longer "
                "exists; it is accepted (and ignored) only as %s — remove "
                "it from the config" % (section, key, value, accepted))
    return given


def file_sha256(path: PathLike, chunk_bytes: int = 1 << 20) -> str:
    """Streaming SHA-256 hex digest of one file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_bytes), b""):
            digest.update(chunk)
    return digest.hexdigest()
