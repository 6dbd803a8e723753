"""Outside-in tracing: spans around calls into each layer's public functions.

The traced run wraps, at run time and only from this file, the table
of public functions below.  Each call made while a root span is open
records ``[name, start, end, parent, op]`` in memory; a layer's *self
time* is its span's duration minus the part its child spans cover, so
the self times of one op sum to the root span's duration.  Nothing in
``src/`` knows it is being traced — in-program spans are a later
change, which must keep these span names.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

TRAIN, REFRESH, SERVE = "train_deep", "refresh_ivf", "serve_zipf"

#: span name given to every registry-dispatched geometry primitive
KERNEL_SPAN = "geometry.kernel"
#: workloads on which the geometry kernels are expected to do work
KERNEL_WORKLOADS = (TRAIN, REFRESH)

#: (module whose namespace holds the function, qualified name, span
#: name, workloads on which the layer is expected to do work).  The
#: module is where the *callers* look the name up, which for a function
#: imported by name is the importing module.
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.graph.metapath", "MetaPathWalker.sample_pair_blocks",
     "graph.sample", (TRAIN,)),
    ("repro.graph.sampling", "NegativeSampler.sample_arrays",
     "graph.sample", (TRAIN,)),
    ("repro.models.encoder", "build_encode_plan", "models.plan", (TRAIN,)),
    ("repro.models.amcad", "AMCAD.loss", "models.loss_fwd", (TRAIN,)),
    ("repro.autodiff.tensor", "Tensor.backward", "autodiff.backward",
     (TRAIN,)),
    ("repro.training.optim", "AdaGrad.step", "training.optim", (TRAIN,)),
    ("repro.models.amcad", "AMCAD.constrain", "training.optim", (TRAIN,)),
    ("repro.models.amcad", "AMCAD.build_full_plan", "models.full_plan",
     (REFRESH,)),
    ("repro.models.amcad", "AMCAD.encode_all", "models.encode_all",
     (REFRESH,)),
    ("repro.retrieval.mnn", "RelationSpace.from_model", "retrieval.project",
     (REFRESH,)),
    ("repro.retrieval.ann", "IVFBackend.build", "retrieval.backend_build",
     (REFRESH,)),
    ("repro.retrieval.ann", "IVFBackend.search", "retrieval.search",
     (REFRESH,)),
    ("repro.retrieval.ann", "candidate_dist", "retrieval.rerank",
     (REFRESH,)),
    ("repro.retrieval.index", "IndexSet.save", "io.save", (REFRESH,)),
    ("repro.retrieval.index", "IndexSet.load", "io.load", (REFRESH,)),
    ("repro.pipeline.artifacts", "ArtifactStore.publish_generation",
     "pipeline.publish", (REFRESH,)),
    ("repro.pipeline.artifacts", "ArtifactStore.verify_generation",
     "pipeline.verify", (REFRESH,)),
    ("repro.pipeline.artifacts", "ArtifactStore.gc", "pipeline.gc",
     (REFRESH,)),
    ("repro.pipeline.core", "Pipeline.hot_swap", "pipeline.swap",
     (REFRESH,)),
    ("repro.serving.admission", "AdmissionController.offer",
     "serving.admission", (SERVE,)),
    ("repro.serving.admission", "AdmissionController.drain",
     "serving.admission", (SERVE,)),
    ("repro.serving.engine", "ServingEngine.serve_batch", "serving.engine",
     (SERVE,)),
    ("repro.retrieval.two_layer", "TwoLayerRetriever.expand_keys_batch",
     "retrieval.expand", (SERVE,)),
    ("repro.retrieval.two_layer", "TwoLayerRetriever.gather_batch",
     "retrieval.gather", (SERVE,)),
    ("repro.retrieval.index", "InvertedIndex.lookup_batch",
     "retrieval.lookup", (SERVE,)),
)


# -- exact counts taken at the boundaries -----------------------------------
# Each hook sees ``(args, kwargs, result)`` of one outermost call and
# returns the counts to add; they read plain arrays and public fields.

def _count_pairs(args, kwargs, blocks) -> Dict[str, float]:
    return {"graph.pairs": sum(len(block) for block in blocks)}


def _count_plan(args, kwargs, plan) -> Dict[str, float]:
    requested = plan.indices.size
    for level in plan.levels[1:]:
        requested += sum(f.size for f in level.frontiers.values())
        requested += sum(int(block.mask.sum())
                         for blocks in level.blocks.values()
                         for block in blocks)
    return {"models.plan_rows": plan.num_encoded(),
            "models.plan_rows_requested": requested}


def _count_tape(args, kwargs, result) -> Dict[str, float]:
    return {"autodiff.tape_nodes": args[0].graph_size()}


def _count_embedded(args, kwargs, points) -> Dict[str, float]:
    return {"models.nodes_embedded": points[0].shape[0]}


def _count_search(args, kwargs, result) -> Dict[str, float]:
    backend, keys = args[0], np.asarray(args[1])
    return {"retrieval.keys": keys.size,
            "retrieval.scan_budget": keys.size * backend.space.num_targets}


def _count_rerank(args, kwargs, result) -> Dict[str, float]:
    valid = kwargs["valid"] if "valid" in kwargs else args[3]
    return {"retrieval.reranked": int(np.count_nonzero(valid))}


def _count_generation(args, kwargs, generation) -> Dict[str, float]:
    files = args[0].load_manifest(generation)["files"]
    return {"io.generation_bytes": sum(f["bytes"] for f in files.values()),
            "io.generations": 1}


def _count_expansion(args, kwargs, expansions) -> Dict[str, float]:
    return {"retrieval.expanded_requests": len(expansions),
            "retrieval.expanded_keys": sum(e.num_keys for e in expansions)}


COUNT_HOOKS: Dict[str, Callable] = {
    "MetaPathWalker.sample_pair_blocks": _count_pairs,
    "build_encode_plan": _count_plan,
    "Tensor.backward": _count_tape,
    "AMCAD.encode_all": _count_embedded,
    "IVFBackend.search": _count_search,
    "candidate_dist": _count_rerank,
    "ArtifactStore.publish_generation": _count_generation,
    "TwoLayerRetriever.expand_keys_batch": _count_expansion,
}


class Tracer:
    """In-memory span recorder with self-time accounting."""

    COLUMNS = ("name", "start", "end", "parent", "op")

    def __init__(self):
        #: ``[name, start, end, parent index (-1 = root), op id]``
        self.spans: List[list] = []
        #: exact counts, keyed by the root span name of the op they
        #: were taken in, then by count name
        self.counts: Dict[str, collections.Counter] = \
            collections.defaultdict(collections.Counter)
        #: root span name of each op, by op id
        self.op_roots: List[str] = []
        self._stack: List[int] = []
        self._own: List[float] = []

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """One benchmark op: the span every boundary span nests under."""
        if self._stack:
            raise RuntimeError("root span %r opened inside another op" % name)
        span = [name, 0.0, 0.0, -1, len(self.op_roots)]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.op_roots.append(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call made inside an open op."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent, spans[parent][4]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            # counts belong to the outermost call of a boundary that
            # recurses into itself (blocked re-rank)
            if count is not None and spans[parent][0] != name:
                self.counts[self.op_roots[span[4]]].update(
                    count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading the trace ---------------------------------------------------

    def select(self, name: str, root: Optional[str] = None) -> List[int]:
        """Indices of the spans called ``name`` (in ops rooted at ``root``)."""
        return [i for i, span in enumerate(self.spans)
                if span[0] == name
                and (root is None or self.op_roots[span[4]] == root)]

    def self_seconds(self) -> List[float]:
        """Per span: duration minus the time its direct children cover.

        Read between ops only; recomputed when spans were added since.
        """
        if len(self._own) != len(self.spans):
            own = [span[2] - span[1] for span in self.spans]
            for span in self.spans:
                if span[3] >= 0:
                    own[span[3]] -= span[2] - span[1]
            self._own = own
        return self._own

    def self_ms(self, name: str, root: Optional[str] = None) -> float:
        """Total self time of the spans called ``name``, in ms."""
        own = self.self_seconds()
        return 1000.0 * sum(own[i] for i in self.select(name, root))

    def durations_ms(self, name: str, root: Optional[str] = None
                     ) -> List[float]:
        return [1000.0 * (self.spans[i][2] - self.spans[i][1])
                for i in self.select(name, root)]

    def calls(self, name: str, root: Optional[str] = None) -> int:
        return len(self.select(name, root))

    def unattributed_share(self) -> float:
        """Self time of the root spans over their duration."""
        own = self.self_seconds()
        roots = [i for i, span in enumerate(self.spans) if span[3] < 0]
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        return sum(own[i] for i in roots) / total if total > 0 else 0.0

    def dump(self, path, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"workload": workload, "columns": self.COLUMNS,
                       "spans": self.spans, "counts": self.counts}, handle)


def resolve(module_name: str, qualname: str):
    """``(owner, attribute name, raw attribute)`` of one table row."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # vars(): a classmethod must be re-wrapped as one, not bound
    return owner, attr, vars(owner)[attr]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every boundary (and geometry kernel) for the ``with`` body."""
    from repro.geometry import kernels

    saved = []
    for module_name, qualname, span, _ in BOUNDARIES:
        owner, attr, raw = resolve(module_name, qualname)
        count = COUNT_HOOKS.get(qualname)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, span, count))
        else:
            wrapped = tracer.wrap(raw, span, count)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    saved_kernels = []
    for kernel in kernels.REGISTRY.values():
        saved_kernels.append((kernel, kernel.numpy, kernel.compiled))
        kernel.numpy = tracer.wrap(kernel.numpy, KERNEL_SPAN)
        if kernel.compiled is not None:
            kernel.compiled = tracer.wrap(kernel.compiled, KERNEL_SPAN)
    kernels.set_mode(kernels.get_mode())    # re-point the dispatch table
    try:
        yield tracer
    finally:
        for owner, attr, raw in saved:
            setattr(owner, attr, raw)
        for kernel, numpy_impl, compiled in saved_kernels:
            kernel.numpy, kernel.compiled = numpy_impl, compiled
        kernels.set_mode(kernels.get_mode())
