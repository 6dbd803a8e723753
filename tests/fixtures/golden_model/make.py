"""Write the golden ``model.npz`` fixture, its config and its digest.

The committed files were written by the commit before the κ-vector
geometry (one curvature vector per space): a later commit must load
that ``model.npz``, encode bit-identically to ``digest.json`` and save
the same arrays back.  Regenerate only on purpose, with the ``src/`` of
the layout being frozen on ``PYTHONPATH``::

    PYTHONPATH=src python tests/fixtures/golden_model/make.py
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent


def load_config() -> dict:
    return json.loads((HERE / "config.json").read_text())


def build(config: dict):
    """The fixture's graph and a freshly initialised model over it."""
    from repro.data import SimulatorConfig, SponsoredSearchSimulator
    from repro.graph import build_graph
    from repro.models import make_model

    simulator = SponsoredSearchSimulator(
        SimulatorConfig(**config["simulator"]))
    graph = build_graph(simulator.universe, simulator.simulate_days(1))
    return graph, make_model(config["model"], graph, **config["model_args"])


def digest(model, graph) -> dict:
    """sha256 of every node type's ``encode_all`` output, per type."""
    from repro.graph.schema import NodeType

    out = {}
    for node_type in NodeType:
        h = hashlib.sha256()
        for array in model.encode_all(node_type):
            h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        out[node_type.value] = h.hexdigest()
    return out


def main() -> None:
    from repro.io import save_model
    from repro.training import Trainer, TrainerConfig

    config = load_config()
    graph, model = build(config)
    Trainer(model, TrainerConfig(**config["training"])).train()
    save_model(model, HERE / "model.npz")
    (HERE / "digest.json").write_text(
        json.dumps(digest(model, graph), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
