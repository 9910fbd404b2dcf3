"""What the embedding cache buys, and what it costs.

During GNN-stage training most ego-batch nodes only need a forward pass
through the text encoder.  Those rows go into an LRU cache keyed by node and
stamped with the encoder version that wrote them, a count of encoder
updates; a staleness limit bounds how many updates old a reused row may be.
staleness 0 + capacity 0 must reproduce the cache-free run bit for bit,
because then the cache can only ever serve values computed at the current
encoder weights.
"""

import time

import numpy as np

import textgraph.pipeline as pl
from textgraph.graph import SyntheticSpec, generate_synthetic

graph = generate_synthetic(SyntheticSpec(
    nodes_per_type=150, clusters=3, intra_p=0.1, inter_p=0.01,
    vocab_size=80, tokens_per_node=6, seed=6))


def run(capacity, staleness, epochs=2):
    settings = pl.TrainSettings(
        stages=("EndToEnd",), epochs=(epochs,), batch_size=16,
        budget_train_nodes=24, budget_infer_batch=64,
        cache_capacity=capacity, cache_staleness=staleness, seed=1)
    t0 = time.time()
    _, log, final = pl.run_stagewise(graph, settings)
    steps = [r for r in log.records if r["kind"] == "step"]
    losses = [r["loss"] for r in steps]
    hits = np.mean([r["cache_hit_rate"] for r in steps[len(steps) // 2:]])
    return losses, hits, final["mrr"], time.time() - t0


base_losses, _, base_mrr, base_s = run(capacity=0, staleness=0)
sound_losses, _, sound_mrr, _ = run(capacity=4096, staleness=0)
fast_losses, fast_hits, fast_mrr, fast_s = run(capacity=4096, staleness=25)

print(f"cache-free       mrr {base_mrr:.4f}  {base_s:5.1f}s")
print(f"staleness 0      mrr {sound_mrr:.4f}  losses bit-identical: "
      f"{base_losses == sound_losses}")
print(f"staleness 25     mrr {fast_mrr:.4f}  {fast_s:5.1f}s  "
      f"late hit rate {fast_hits:.2f}")
assert base_losses == sound_losses
