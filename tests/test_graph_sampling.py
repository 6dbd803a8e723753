"""Tests for hard/easy negative sampling."""

import numpy as np
import pytest

from repro.graph import MetaPathWalker, NegativeSampler, NodeType
from repro.graph.schema import Relation


@pytest.fixture(scope="module")
def sampler(train_graph):
    return NegativeSampler(train_graph, num_negatives=6)


@pytest.fixture(scope="module")
def blocks(train_graph):
    walker = MetaPathWalker(train_graph)
    return walker.sample_pair_blocks(np.random.default_rng(5), 400)


def _draw(sampler, rng, block):
    return sampler.sample_arrays(rng, block.relation, block.src_idx,
                                 block.dst_idx)


class TestNegativeSampler:
    def test_rejects_zero_negatives(self, train_graph):
        with pytest.raises(ValueError):
            NegativeSampler(train_graph, num_negatives=0)

    def test_rejects_easy_ratio_out_of_range(self, train_graph):
        with pytest.raises(ValueError, match="easy_ratio"):
            NegativeSampler(train_graph, easy_ratio=1.5)
        with pytest.raises(ValueError, match="easy_ratio"):
            NegativeSampler(train_graph, easy_ratio=-0.1)

    def test_rejects_non_finite_degree_smoothing(self, train_graph):
        with pytest.raises(ValueError, match="degree_smoothing"):
            NegativeSampler(train_graph, degree_smoothing=float("nan"))
        with pytest.raises(ValueError, match="degree_smoothing"):
            NegativeSampler(train_graph, degree_smoothing=float("inf"))

    def test_sample_count_and_type(self, sampler, train_graph, blocks, rng):
        """K negatives per pair, all of the relation's target type."""
        for block in blocks:
            batch = _draw(sampler, rng, block)
            assert batch.neg_idx.shape == (len(block), 6)
            target = block.relation.target_type
            assert np.all((batch.neg_idx >= 0)
                          & (batch.neg_idx < train_graph.num_nodes[target]))

    def test_negatives_exclude_positive(self, sampler, blocks, rng):
        for block in blocks:
            batch = _draw(sampler, rng, block)
            assert not np.any(batch.neg_idx == batch.pos_idx[:, None])

    def test_hard_easy_split(self, sampler, train_graph, blocks, rng):
        """About 1/3 of negatives share the positive's category (hard)."""
        hard = total = 0
        for block in blocks:
            batch = _draw(sampler, rng, block)
            cats = train_graph.categories[block.relation.target_type]
            hard += int((cats[batch.neg_idx]
                         == cats[batch.pos_idx][:, None]).sum())
            total += batch.neg_idx.size
        ratio = hard / total
        assert 0.15 < ratio < 0.55, "expected roughly 1/3 hard negatives"

    def test_relation_preserved(self, sampler, blocks, rng):
        block = blocks[0]
        batch = _draw(sampler, rng, block)
        assert batch.relation == block.relation
        np.testing.assert_array_equal(batch.src_idx, block.src_idx)
        np.testing.assert_array_equal(batch.pos_idx, block.dst_idx)

    def test_batch_form(self, sampler, blocks, rng):
        block = max(blocks, key=len)
        batch = sampler.sample_arrays(rng, block.relation, block.src_idx[:10],
                                      block.dst_idx[:10])
        assert len(batch) == 10
        assert batch.num_negatives == 6

    def test_easy_ratio_extremes(self, train_graph, blocks, rng):
        all_easy = NegativeSampler(train_graph, num_negatives=4,
                                   easy_ratio=1.0)
        all_hard = NegativeSampler(train_graph, num_negatives=4,
                                   easy_ratio=0.0)
        block = max(blocks, key=len)
        cats = train_graph.categories[block.relation.target_type]
        pos_cat = cats[block.dst_idx][:, None]
        easy = _draw(all_easy, rng, block)
        assert not np.any(cats[easy.neg_idx] == pos_cat)
        hard = _draw(all_hard, rng, block)
        same_cat = (cats[hard.neg_idx] == pos_cat).sum(axis=1)
        # hard sampling falls back to easy when the category is a
        # singleton, but with a populated category most rows match
        assert np.mean(same_cat == 4) > 0.5

    def test_degree_weighting_prefers_popular(self, train_graph, rng):
        sampler = NegativeSampler(train_graph, num_negatives=6,
                                  easy_ratio=1.0, degree_smoothing=1.0)
        degree = train_graph.degree(NodeType.ITEM)
        zeros = np.zeros(200, dtype=np.int64)
        batch = sampler.sample_arrays(rng, Relation.Q2I, zeros, zeros)
        mean_deg = degree[batch.neg_idx.ravel()].mean()
        assert mean_deg > degree.mean(), \
            "degree-weighted negatives should be more popular than average"
