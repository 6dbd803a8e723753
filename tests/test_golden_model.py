"""A published ``model.npz`` keeps loading, encoding and saving the same.

``tests/fixtures/golden_model/`` holds a small trained model written
before the κ-vector geometry (one ``(M,)`` curvature vector and stacked
``(M, n, d)`` parameters), its config and a sha256 digest of
``encode_all`` per node type.  Loading it must reproduce those encodes
bit for bit, and saving the loaded model must write back the same
``param_%06d`` arrays: the file layout is per subspace whatever the
in-memory layout is.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.io import load_model, save_model

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "golden_model"


def _make_module():
    spec = importlib.util.spec_from_file_location("golden_make",
                                                  FIXTURE / "make.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    make = _make_module()
    graph, _ = make.build(make.load_config())
    return make, graph, load_model(FIXTURE / "model.npz", graph)


def test_encode_all_matches_digest(golden):
    make, graph, model = golden
    want = json.loads((FIXTURE / "digest.json").read_text())
    assert make.digest(model, graph) == want


def test_save_writes_back_the_same_arrays(golden, tmp_path):
    _, _, model = golden
    save_model(model, tmp_path / "model.npz")
    with np.load(FIXTURE / "model.npz") as old, \
            np.load(tmp_path / "model.npz") as new:
        names = sorted(k for k in old.files if k != "header")
        assert sorted(k for k in new.files if k != "header") == names
        for name in names:
            assert new[name].shape == old[name].shape, name
            assert new[name].dtype == old[name].dtype, name
            assert new[name].tobytes() == old[name].tobytes(), name
        header = json.loads(bytes(new["header"]).decode("utf-8"))
        assert header["num_parameters"] == len(names)
