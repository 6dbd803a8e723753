"""Curvature analysis: what geometry does each entity type learn?

Reproduces the analysis behind paper Fig. 7 numerically:

- trains the full model with 2 subspaces of 2 dims (as the paper's
  visualisation does),
- reports learned curvatures per node type and per relation space,
- measures the radial-hierarchy effect in the most hyperbolic subspace
  (broad queries near the origin, specific queries near the boundary),
- reports the mean subspace attention weights for the Q2Q relation.

Usage::

    python examples/curvature_analysis.py
"""

import numpy as np
from scipy import stats

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import build_graph
from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.retrieval.mnn import RelationSpace
from repro.training import Trainer, TrainerConfig


def main():
    simulator = SponsoredSearchSimulator(SimulatorConfig(seed=13))
    logs = simulator.simulate_days(1)
    graph = build_graph(simulator.universe, logs)
    print("graph: %r" % graph)

    model = make_model("amcad", graph, num_subspaces=2, subspace_dim=2,
                       seed=5)
    print("training (2 subspaces x 2 dims, as in paper Fig. 7)...")
    Trainer(model, TrainerConfig(steps=250, batch_size=64,
                                 learning_rate=0.05)).train()

    print("\nlearned curvatures:")
    for name, kappas in sorted(model.curvature_report().items()):
        labels = ["hyperbolic" if k < -1e-3 else
                  "spherical" if k > 1e-3 else "flat" for k in kappas]
        print("  %-18s %s  (%s)" % (name, ["%+.3f" % k for k in kappas],
                                    ", ".join(labels)))

    # radial hierarchy in the most hyperbolic query subspace
    kappas = model.node_kappas[NodeType.QUERY].data.tolist()
    hyper = int(np.argmin(kappas))
    embeddings = model.encode_all(NodeType.QUERY)
    radii = np.linalg.norm(embeddings[hyper], axis=-1)
    tree = simulator.universe.category_tree
    depths = np.array([tree.depth[c]
                       for c in simulator.universe.queries.category])
    corr, p = stats.spearmanr(depths, radii)
    print("\nradial hierarchy (subspace %d, kappa=%.3f):" % (hyper,
                                                             kappas[hyper]))
    for depth in sorted(set(depths.tolist())):
        mask = depths == depth
        print("  category depth %d: mean radius %.4f (n=%d)"
              % (depth, radii[mask].mean(), int(mask.sum())))
    print("  spearman(depth, radius) = %.3f (p=%.2g)" % (corr, p))
    print("  paper Fig. 7: 'women shoes' nearer origin than "
          "'catwalk leather shoes'")

    # attention mass per subspace for Q2Q
    space = RelationSpace.from_model(model, Relation.Q2Q)
    weights = space.src_weights.mean(axis=0)
    print("\nmean Q2Q attention per subspace: %s"
          % ["%.3f" % w for w in weights])
    print("paper: hyperbolic weight > spherical weight for Q2Q "
          "(hierarchy dominates query-query similarity)")


if __name__ == "__main__":
    main()
