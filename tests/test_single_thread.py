"""Retrieval and serving run on the calling thread: nothing starts one.

Index builds (exact and sharded), shard searches and sharded serving
with slice retries all happen with ``threading.Thread.start`` made to
raise, so a thread pool creeping back into any of them fails here.
"""

import threading

import numpy as np
import pytest

from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.serving import ServingEngine
from repro.testing.faults import FaultSpec, install, reset
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def model(train_graph):
    m = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                   seed=5)
    Trainer(m, TrainerConfig(steps=5, batch_size=32, seed=5)).train()
    return m


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("thread %r started" % self.name)

    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.mark.parametrize("backend,backend_kwargs", [
    ("exact", {}),
    ("sharded", {"num_shards": 4, "inner_backend": "exact"}),
])
def test_index_build_starts_no_thread(model, no_threads, backend,
                                      backend_kwargs):
    index_set = IndexSet(model, top_k=8, backend=backend,
                         backend_kwargs=backend_kwargs).build()
    assert len(index_set.indices) == 6


def test_sharded_serving_with_slice_retry_starts_no_thread(model,
                                                           no_threads):
    retriever = TwoLayerRetriever(IndexSet(model, top_k=8).build(),
                                  expansion_k=3, ads_per_key=3)
    queries, preclicks = np.arange(16), [[i % 5] for i in range(16)]
    engine = ServingEngine(retriever, max_batch_size=16, num_shards=4,
                           slice_retries=1)
    install(FaultSpec(site="engine.slice", match={"slice": 2},
                      max_fires=1))
    try:
        results = engine.serve(queries, preclicks, k=5)
    finally:
        reset()
    assert engine.stats.slice_errors == 1
    assert not engine.stats.degraded
    assert len(engine.stats.batch_wall_seconds) == 1
    for got, want in zip(results,
                         retriever.retrieve_batch(queries, preclicks, k=5)):
        np.testing.assert_array_equal(got.ads, want.ads)
