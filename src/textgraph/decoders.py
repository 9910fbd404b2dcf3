"""Task heads over node embeddings: DistMult link scoring, a softmax node
classifier, and an edge classifier over concatenated endpoint embeddings."""

from __future__ import annotations

import numpy as np

from . import tensor as tg
from .errors import ShapeError
from .graph import _as_rng
from .negatives import TripletBatch
from .tensor import Tensor
from .text import _glorot


class DistMultParams:
    """One diagonal bilinear vector per relation."""

    def __init__(self, num_relations: int, dim: int, rng=0):
        rng = _as_rng(rng)
        self.dim = dim
        self.rel_vectors = Tensor(rng.normal(size=(num_relations, dim)) * 0.5,
                                  grad_enabled=True)

    def params(self) -> dict[str, Tensor]:
        return {"rel_vectors": self.rel_vectors}


def distmult_scores(h_heads: Tensor, relations, h_tails: Tensor,
                    params: DistMultParams) -> Tensor:
    """(n,) scores sum_d head_d * rel_d * tail_d for row-aligned batches."""
    relations = np.asarray(relations, dtype=np.int64)
    n = relations.shape[0]
    if h_heads.shape != (n, params.dim) or h_tails.shape != (n, params.dim):
        raise ShapeError(
            f"expected ({n}, {params.dim}) head/tail embeddings, got "
            f"{h_heads.shape} and {h_tails.shape}")
    rel = tg.take_rows(params.rel_vectors, relations)
    return tg.tensor_sum(tg.mul(tg.mul(h_heads, rel), h_tails), axis=1)


def link_loss(batch: TripletBatch, scores: Tensor) -> Tensor:
    """Contrastive loss mean_i log(1 + exp(-y_i * score_i)), y in {+1, -1}."""
    if scores.shape != (len(batch),):
        raise ShapeError(f"scores must be ({len(batch)},), got {scores.shape}")
    signed = tg.mul(scores, Tensor(batch.labels))
    return tg.tensor_mean(tg.softplus(tg.neg(signed)))


class NodeClassifierHead:
    def __init__(self, dim: int, num_classes: int, rng=0):
        rng = _as_rng(rng)
        self.num_classes = num_classes
        self.proj = Tensor(_glorot(rng, dim, num_classes), grad_enabled=True)
        self.bias = Tensor(np.zeros(num_classes), grad_enabled=True)

    def params(self) -> dict[str, Tensor]:
        return {"node_proj": self.proj, "node_bias": self.bias}


def node_logits(head: NodeClassifierHead, h: Tensor) -> Tensor:
    return tg.linear(h, head.proj, head.bias)


def node_loss(head: NodeClassifierHead, h: Tensor, labels) -> Tensor:
    return tg.softmax_cross_entropy(node_logits(head, h), labels)


class EdgeClassifierHead:
    """Logits = W_ec [h_head ; h_tail] + b, head block first."""

    def __init__(self, dim: int, num_classes: int, rng=0):
        rng = _as_rng(rng)
        self.dim = dim
        self.num_classes = num_classes
        self.w_ec = Tensor(_glorot(rng, 2 * dim, num_classes), grad_enabled=True)
        self.bias = Tensor(np.zeros(num_classes), grad_enabled=True)

    def params(self) -> dict[str, Tensor]:
        return {"edge_w": self.w_ec, "edge_bias": self.bias}


def edge_logits(head: EdgeClassifierHead, h_heads: Tensor, h_tails: Tensor) -> Tensor:
    if h_heads.shape != h_tails.shape or h_heads.shape[-1] != head.dim:
        raise ShapeError(
            f"expected matching (n, {head.dim}) endpoint embeddings, got "
            f"{h_heads.shape} and {h_tails.shape}")
    pair = tg.concat([h_heads, h_tails], axis=1)
    return tg.linear(pair, head.w_ec, head.bias)


def edge_loss(head: EdgeClassifierHead, h_heads: Tensor, h_tails: Tensor,
              labels) -> Tensor:
    return tg.softmax_cross_entropy(edge_logits(head, h_heads, h_tails), labels)
