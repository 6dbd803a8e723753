"""Figure 7 — structure of learned query embeddings per subspace.

The paper trains 2 subspaces of 2 dims each and illustrates that the
learned mixture is genuinely mixed: one subspace goes hyperbolic and
organises the query hierarchy radially ("women shoes" nearer the
origin than "catwalk leather shoes"), while same-leaf queries spread
in a ring in the spherical subspace.

Quantitative checks here (robust at laptop scale):

- **mixed geometry emerges**: the adaptive query subspaces end with one
  κ < 0 and one κ > 0 — the model discovers the mixture by itself;
- **category structure is captured**: in the learned Q2Q metric,
  same-leaf query pairs are closer than cross-leaf pairs;
- the radius-by-depth profile of the hyperbolic subspace is reported
  descriptively (the paper's radial-hierarchy picture needs production
  scale/training to stabilise; at this scale its sign is noisy).
"""

import numpy as np
import pytest
from scipy import stats

from repro.bench import scaled_steps, write_report
from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.retrieval.mnn import RelationSpace
from repro.training import Trainer, TrainerConfig


def test_fig07_embedding_structure(benchmark, bench_data):
    def run():
        model = make_model("amcad", bench_data.train_graph, num_subspaces=2,
                           subspace_dim=2, seed=2)
        Trainer(model, TrainerConfig(steps=scaled_steps(300), batch_size=64,
                                     learning_rate=0.05, seed=2)).train()

        kappas = model.node_kappas[NodeType.QUERY].data.tolist()
        hyper = int(np.argmin(kappas))

        # descriptive: radius by category depth in the hyperbolic subspace
        graph = bench_data.train_graph
        active = graph.degree(NodeType.QUERY) > 0
        embeddings = model.encode_all(NodeType.QUERY)
        radii = np.linalg.norm(embeddings[hyper], axis=-1)
        depths = np.array([bench_data.universe.category_tree.depth[c]
                           for c in bench_data.universe.queries.category],
                          dtype=float)
        corr, pvalue = stats.spearmanr(depths[active], radii[active])
        lines = ["learned query-subspace curvatures: %s"
                 % ["%+.3f" % k for k in kappas]]
        for depth in sorted(set(depths[active].tolist())):
            mask = active & (depths == depth)
            lines.append("  depth %d: mean hyperbolic radius %.4f (n=%d)"
                         % (depth, radii[mask].mean(), int(mask.sum())))
        lines.append("spearman(depth, radius) = %.3f (p=%.2g) "
                     "[descriptive only]" % (corr, pvalue))

        # structural: same-leaf pairs closer than cross-leaf pairs in
        # the learned Q2Q metric
        space = RelationSpace.from_model(model, Relation.Q2Q)
        rng = np.random.default_rng(0)
        cats = bench_data.universe.queries.category
        active_ids = np.flatnonzero(active)
        same, cross = [], []
        for _ in range(4000):
            a, b = rng.choice(active_ids, size=2, replace=False)
            d = space.pair_distance(np.array([a]), np.array([b]))[0]
            if cats[a] == cats[b]:
                same.append(d)
            else:
                cross.append(d)
        same_mean = float(np.mean(same))
        cross_mean = float(np.mean(cross))
        lines.append("mean learned Q2Q distance: same-category %.3f vs "
                     "cross-category %.3f" % (same_mean, cross_mean))

        mean_weights = space.src_weights.mean(axis=0)
        lines.append("mean Q2Q attention per subspace: %s"
                     % ["%.3f" % w for w in mean_weights])
        lines.append("")
        lines.append("paper (Fig. 7): one hyperbolic + one spherical "
                     "subspace; hierarchy radial in the hyperbolic one; "
                     "same-leaf queries ring-shaped in the spherical one")

        assert kappas[hyper] < 0, "one subspace should turn hyperbolic"
        assert max(kappas) > 0, "one subspace should stay/turn spherical"
        assert same_mean < cross_mean, (
            "same-category queries must be closer in the learned metric")
        write_report("fig07_embedding_structure.txt",
                     "Fig 7 - mixed-geometry query structure", lines)
        return kappas, same_mean, cross_mean

    benchmark.pedantic(run, rounds=1, iterations=1)
