"""Relational graph convolution over sampled ego-network blocks.

Each layer computes, per target node n:

    h'_n = act(W_self h_n + sum_r agg_{n' in N_n^r} W_r h_{n'})

with one weight per message relation (both directions of every base
relation).  agg is plain sum, or mean over the sampled neighbors.  Layers
consume the blocks of an EgoBatch in order; block sources are targets-first,
so a layer's first num_targets input rows are its own targets.

A layer aggregates first and then transforms once.  Sum and mean are linear,
so agg(W_r h) = W_r agg(h): one gather_segment_sum pools the messages into a
(target, relation) bucket each, and one GEMM multiplies the rows
[h_n | agg_1 ... agg_R] by the stacked weights [W_self; W_1 ... W_R].  That
GEMM runs over target rows rather than message rows, and it equals the
per-message formula up to the order of its floating-point sums.  Only the
relations with a message in the block enter the stack, so a relation without
messages gets no gradient and Adam leaves its weight alone.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tg
from .errors import ContractError, ShapeError
from .graph import EgoBatch, Block
from .tensor import Tensor

AGGREGATIONS = ("sum", "mean")


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / (fan_in + fan_out))


class RgcnLayer:
    def __init__(self, in_dim: int, out_dim: int, num_message_relations: int,
                 aggregation: str = "mean", rng=0):
        if aggregation not in AGGREGATIONS:
            raise ContractError(f"aggregation must be one of {AGGREGATIONS}")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.aggregation = aggregation
        self.w_self = Tensor(_glorot(rng, in_dim, out_dim), grad_enabled=True)
        self.w_rel = [Tensor(_glorot(rng, in_dim, out_dim), grad_enabled=True)
                      for _ in range(num_message_relations)]


def rgcn_layer_forward(layer: RgcnLayer, block: Block, h_in: Tensor,
                       activate: bool = True) -> Tensor:
    """One layer over one block: (num_sources, in) -> (num_targets, out)."""
    s = block.src_refs.shape[0]
    t = block.num_targets
    if h_in.shape != (s, layer.in_dim):
        raise ShapeError(
            f"block has {s} sources of width {layer.in_dim}, features are {h_in.shape}")
    if len(block.edges) != len(layer.w_rel):
        raise ContractError(
            f"block carries {len(block.edges)} message relations, layer has "
            f"{len(layer.w_rel)}")
    x = [tg.take_rows(h_in, np.arange(t))]
    w = [layer.w_self]
    live = [k for k, (src_pos, _) in enumerate(block.edges) if src_pos.size]
    if live:
        r = len(live)
        # bucket (target, j) holds live relation j's messages, in edge order
        src = np.concatenate([block.edges[k][0] for k in live])
        bucket = np.concatenate([block.edges[k][1] * r + j for j, k in enumerate(live)])
        agg = tg.gather_segment_sum(h_in, src, bucket, t * r)
        if layer.aggregation == "mean":
            counts = np.bincount(bucket, minlength=t * r).astype(np.float64)
            agg = tg.mul(agg, Tensor(1.0 / np.maximum(counts, 1.0)[:, None]))
        x.append(tg.reshape(agg, (t, r * layer.in_dim)))
        w.extend(layer.w_rel[k] for k in live)
    out = tg.matmul(tg.concat(x, axis=1), tg.concat(w, axis=0))
    return tg.relu(out) if activate else out


class RgcnStack:
    """num_layers relational conv layers, width dim at both ends with
    hidden_dim between, plus learned input embeddings for textless types."""

    def __init__(self, num_layers: int, dim: int, hidden_dim: int,
                 num_message_relations: int, aggregation: str = "mean",
                 type_embedding_counts: dict[int, int] | None = None,
                 activate_last: bool = False, rng=0):
        if num_layers < 1:
            raise ContractError("num_layers must be >= 1")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        dims = [dim] + [hidden_dim] * (num_layers - 1) + [dim]
        self.dim = dim
        self.activate_last = activate_last
        self.layers = [RgcnLayer(dims[i], dims[i + 1], num_message_relations,
                                 aggregation, rng)
                       for i in range(num_layers)]
        self.type_embeddings: dict[int, Tensor] = {
            t: Tensor(rng.normal(size=(count, dim)) * 0.1, grad_enabled=True)
            for t, count in (type_embedding_counts or {}).items()
        }

    def params(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}_self"] = layer.w_self
            for mi, w in enumerate(layer.w_rel):
                out[f"layer{i}_rel{mi}"] = w
        for t, emb in self.type_embeddings.items():
            out[f"type_emb_{t}"] = emb
        return out


def gnn_forward(stack: RgcnStack, batch: EgoBatch, features: Tensor) -> Tensor:
    """Run the stack over an ego batch: features for blocks[0] sources in,
    (num_targets, dim) embeddings of batch.target_refs out."""
    if len(stack.layers) != batch.num_layers:
        raise ContractError(
            f"batch has {batch.num_layers} layers, stack has {len(stack.layers)}")
    if features.shape[0] != batch.num_sources:
        raise ShapeError(
            f"need {batch.num_sources} feature rows for block sources, "
            f"got {features.shape[0]}")
    h = features
    last = len(stack.layers) - 1
    for i, (layer, block) in enumerate(zip(stack.layers, batch.blocks)):
        h = rgcn_layer_forward(layer, block, h,
                               activate=(i < last) or stack.activate_last)
    return h
