"""The full staged recipe on a small planted-cluster graph.

Stage 1 fine-tunes the text encoder alone with a link contrast in CLS space.
Stage 2 freezes it and warm-starts the GNN plus scoring head.  Stage 3 opens
everything up end to end.  Per-epoch validation MRR is logged throughout and
each stage hands its best-validation weights to the next.
"""

import numpy as np

import textgraph.pipeline as pl
from textgraph.graph import SyntheticSpec, generate_synthetic

graph = generate_synthetic(SyntheticSpec(
    nodes_per_type=150, clusters=3, intra_p=0.15, inter_p=0.01,
    vocab_size=80, tokens_per_node=6, seed=9))

settings = pl.TrainSettings(
    task="link",
    stages=("PreFineTuneLM", "WarmStartGNN", "EndToEnd"),
    epochs=(2, 4, 2),
    # open the encoder gently in the joint stage; at 1e-3 it would shred the
    # warm-started GNN's input features within an epoch
    stage_learning_rates=(1e-3, 1e-3, 1e-5),
    batch_size=16,
    negatives_k=4,
    budget_train_nodes=32,
    budget_infer_batch=64,
    cache_capacity=2048,
    cache_staleness=10,
    seed=3,
)

models, log, final = pl.run_stagewise(graph, settings)

for stage in settings.stages:
    curve = [f"{r['value']:.3f}" for r in log.records
             if r["kind"] == "metric" and r["stage"] == stage
             and r["metric"] == "mrr" and r["split"] == "valid"]
    print(f"{stage:14s} valid MRR per epoch: {curve}")

steps = [r for r in log.records if r["kind"] == "step"]
hit = np.mean([r["cache_hit_rate"] for r in steps[-50:]])
print(f"steps {len(steps)}, cache hit rate over last 50: {hit:.2f}")
print(f"test metrics: { {k: round(v, 4) for k, v in final.items()} }")

# a random scorer on ~150 candidates sits near MRR 0.04; the trained model
# should land clearly above that even on this toy budget
assert final["mrr"] > 0.06, final
