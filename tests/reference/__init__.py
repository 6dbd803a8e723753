"""Parity oracles: the slow, obviously-correct implementations the
product paths are tested against.

Nothing here ships in ``src/`` or is selectable by a config key; each
oracle is built from the public stage methods of the object it mirrors
(``NodeEncoder.inductive``/``tangents``/``gcn_round``/``fuse``,
``InvertedIndex.lookup``/``lookup_batch``), so it keeps computing the
reference answer however the product path is reorganised.
``encoder`` also holds ``TwoPassAMCAD``, the loss and scoring with one
encoder pass per endpoint role and one scorer pass per pair kind that
the one-pass ``AMCAD.loss`` / ``pair_distance`` replaced.
``sampling`` reads the graph's CSR adjacency and the negative
sampler's alias tables directly: it is the per-pair walker and negative
sampler that ``MetaPathWalker.sample_pair_blocks`` and
``NegativeSampler.sample_arrays`` replaced, seed for seed.  ``lru`` is
the admission-free LRU the serving engine's result cache replaced; it
is the miss-count baseline, not an answer oracle.  ``pq`` is product
quantisation, retired as a search backend because it cannot express
the attention-weighted metric; it is the recall baseline
``benchmarks/bench_pq_vs_mnn.py`` measures that against.
``stereographic`` is the κ-stereographic geometry composed from
autodiff micro-ops (``ops`` holds the ones only it uses), one scalar κ
at a time: the gradcheck oracle of every fused, subspace-stacked kernel
in ``repro.geometry.kernels``.
"""
