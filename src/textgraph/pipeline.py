"""Stage-wise training: text-encoder pre-fine-tuning, GNN warm start, and
joint end-to-end fine-tuning, with a per-step node budget and an embedding
cache so the text encoder runs on a bounded sample of nodes per step.

Parameter groups: "lm" (text encoder), "gnn" (conv layers + textless type
embeddings), "distmult", "node_head", "edge_head".  Stage kinds freeze and
train fixed sets of groups:

  PreFineTuneLM  trains lm + distmult on link contrast over text-pair edges
  WarmStartGNN   trains gnn + the task head, text encoder frozen
  EndToEnd       trains lm + gnn + the task head
  HeadOnly       trains only the task head

Back-prop-on-samples: per step, at most budget.train_nodes texted rows are
encoded on the tape; every other row comes from the cache or, when it
missed, from a no-grad encode of exactly the rows that missed, at most
budget.infer_batch rows per encode call.  Those encodes run at the width of
the type's whole token table, so a row's encoded value never depends on
which other rows share its call.  Cache staleness counts encoder updates,
not steps: under a frozen encoder a cached row never expires, and per-epoch
evals share one encode of it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import decoders as dec
from . import negatives as ng
from . import rgcn
from . import tensor as tg
from . import text as tx
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError, LoadError, NumericsError
from .graph import (TEST, TRAIN, VALID, HeteroGraph, PartitionMap, TargetSample,
                    _as_rng, _train_pool, assign_partitions, sample_neighbors,
                    sample_targets)
from .metrics import RankedQuery, accuracy, f1_scores, mrr
from .tensor import Tensor

STAGE_KINDS = ("PreFineTuneLM", "WarmStartGNN", "EndToEnd", "HeadOnly")
TASKS = ("link", "node", "edge")

_TASK_HEAD_GROUP = {"link": "distmult", "node": "node_head", "edge": "edge_head"}


def stage_trainable_groups(kind: str, task: str) -> set[str]:
    if kind == "PreFineTuneLM":
        return {"lm", "distmult"}
    head = _TASK_HEAD_GROUP[task]
    if kind == "WarmStartGNN":
        return {"gnn", head}
    if kind == "EndToEnd":
        return {"lm", "gnn", head}
    if kind == "HeadOnly":
        return {head}
    raise ContractError(f"unknown stage kind '{kind}'")


def primary_metric(task: str) -> str:
    return {"link": "mrr", "node": "accuracy", "edge": "macro_f1"}[task]


@dataclass
class TrainSettings:
    """Everything a run needs; CLI configs parse into one of these."""

    task: str = "link"
    stages: tuple = ("PreFineTuneLM", "WarmStartGNN", "EndToEnd")
    epochs: tuple = (2, 2, 2)
    batch_size: int = 32
    fanouts: int = 4
    num_layers: int = 2
    hidden_dim: int = 128
    learning_rate: float = 1e-3
    # per-stage override, same length as stages; None means learning_rate
    # everywhere.  Late stages that unfreeze the encoder usually want a
    # smaller step than the GNN-only stages.
    stage_learning_rates: tuple | None = None
    negatives_k: int = 4
    negative_mode: str = "joint"
    budget_train_nodes: int = 64
    budget_infer_batch: int = 256
    cache_capacity: int = 4096
    # staleness a cached row may accumulate, in encoder updates (optimizer
    # steps that train the "lm" group).  Keep small whenever the encoder
    # trains: desk-scale models drift fast enough that generously stale
    # features derail the GNN.  Frozen-encoder steps do not age a row.
    cache_staleness: int = 10
    target_mode: str = "global"
    partitions: int = 4
    mlm_epochs: int = 0
    mlm_mask_prob: float = 0.15
    max_len: int = 32
    dim: int = 64
    num_heads: int = 4
    num_blocks: int = 2
    aggregation: str = "mean"
    seed: int = 0


@dataclass
class NodeBudget:
    """Per-step encoder workload: the most rows encoded on the tape, and the
    most rows one no-grad encode call may take (a memory bound only; encoded
    values do not depend on it)."""

    train_nodes: int
    infer_batch: int

    def __post_init__(self):
        if self.train_nodes < 1:
            raise ContractError("budget train_nodes must be >= 1")
        if self.infer_batch < 1:
            raise ContractError("budget infer_batch must be >= 1")


def split_train_inference(num_rows: int, budget: int, rng):
    """Uniform subset of at most budget row indices for on-tape encoding; the
    complement, in original order, goes through the no-grad path.  The two
    index sets partition range(num_rows) exactly."""
    if budget < 1:
        raise ContractError("train budget must be >= 1")
    if num_rows <= budget:
        return np.arange(num_rows, dtype=np.int64), np.empty(0, dtype=np.int64)
    rng = _as_rng(rng)
    train = np.sort(rng.choice(num_rows, size=budget, replace=False))
    mask = np.ones(num_rows, dtype=bool)
    mask[train] = False
    return train, np.nonzero(mask)[0].astype(np.int64)


class EmbeddingCache:
    """LRU of (type, local) -> embedding with a staleness stamp per entry.

    Stamps are encoder versions: `version` goes up once per encoder update
    (advance()) and on every clear(), and never resets.  Callers pass it as
    the `step` of get/put.  An entry written at version s is served only
    while step - s stays within staleness_limit; older entries count as
    misses.  capacity 0 disables storage entirely.  Only no-grad encodes of
    rows that missed are stored, so a cached value is always bit-identical
    to what a fresh encode would give under unchanged encoder weights.
    """

    def __init__(self, capacity: int, staleness_limit: int):
        if capacity < 0:
            raise ContractError("cache capacity must be >= 0")
        if staleness_limit < 0:
            raise ContractError("cache staleness_limit must be >= 0")
        self.capacity = capacity
        self.staleness_limit = staleness_limit
        self._store: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0
        self.version = 0

    def __len__(self):
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key, step: int):
        entry = self._store.get(key)
        if entry is not None:
            value, stamp = entry
            if step - stamp <= self.staleness_limit:
                self._store.move_to_end(key)
                self.hits += 1
                return value
            del self._store[key]
            self.stale_drops += 1
        self.misses += 1
        return None

    def put(self, key, value: np.ndarray, step: int):
        if self.capacity == 0:
            return
        self._store[key] = (value, step)
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def advance(self):
        """Count one encoder update: every entry ages by one."""
        self.version += 1

    def clear(self):
        """Drop every entry and advance the version; counters survive.
        Called at the end of a stage that trained the encoder, whose best
        epoch's weights may differ from the ones cached rows came from."""
        self._store.clear()
        self.advance()

    def restamp(self, old: int, new: int):
        """Stamp the entries written at version old as written at new, for
        rows known to be exact under the weights of both versions."""
        for key, (value, stamp) in list(self._store.items()):
            if stamp == old:
                self._store[key] = (value, new)


@dataclass
class ModelBundle:
    vocab: tx.Vocab
    encoder: tx.TextEncoderModel
    gnn: rgcn.RgcnStack
    distmult: dec.DistMultParams
    node_head: dec.NodeClassifierHead | None
    edge_head: dec.EdgeClassifierHead | None
    max_len: int
    dim: int

    def param_groups(self) -> dict[str, dict[str, Tensor]]:
        groups = {"lm": self.encoder.params,
                  "gnn": self.gnn.params(),
                  "distmult": self.distmult.params()}
        if self.node_head is not None:
            groups["node_head"] = self.node_head.params()
        if self.edge_head is not None:
            groups["edge_head"] = self.edge_head.params()
        return groups

    def all_params(self) -> dict[str, Tensor]:
        flat = {}
        for gname, params in self.param_groups().items():
            for name, p in params.items():
                flat[f"{gname}/{name}"] = p
        return flat

    def set_trainable(self, groups: set[str]):
        for gname, params in self.param_groups().items():
            flag = gname in groups
            for p in params.values():
                p.grad_enabled = flag

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.all_params().items()}

    def restore(self, snap: dict[str, np.ndarray]):
        for name, p in self.all_params().items():
            p.data = snap[name].copy()


def build_models(graph: HeteroGraph, settings: TrainSettings, rng=0) -> ModelBundle:
    rng = _as_rng(rng)
    vocab = tx.Vocab.from_texts(
        t for ti in range(len(graph.node_types)) if graph.has_text(ti)
        for t in graph.texts[ti])
    encoder = tx.TextEncoderModel(vocab.size, dim=settings.dim,
                                  num_heads=settings.num_heads,
                                  num_blocks=settings.num_blocks,
                                  max_len=settings.max_len, rng=rng)
    textless = {t: graph.node_counts[t] for t in range(len(graph.node_types))
                if not graph.has_text(t)}
    gnn = rgcn.RgcnStack(settings.num_layers, settings.dim, settings.hidden_dim,
                         len(graph.message_relations), settings.aggregation,
                         type_embedding_counts=textless, rng=rng)
    distmult = dec.DistMultParams(len(graph.relations), settings.dim, rng=rng)
    node_head = None
    node_classes = max((int(c.max()) + 1 for c in graph.node_class_ids if c.size
                        and c.max() >= 0), default=0)
    if node_classes > 0:
        node_head = dec.NodeClassifierHead(settings.dim, node_classes, rng=rng)
    edge_head = None
    if graph.edge_labels:
        ri = graph.designated_relation
        edge_classes = int(graph.edge_labels[ri].class_ids.max()) + 1
        edge_head = dec.EdgeClassifierHead(settings.dim, edge_classes, rng=rng)
    return ModelBundle(vocab, encoder, gnn, distmult, node_head, edge_head,
                       settings.max_len, settings.dim)


# ----------------------------------------------------------------- features


def node_refs(graph: HeteroGraph, *, texted_only: bool = False) -> np.ndarray:
    """(type, local) rows for every node, in global-index order; with
    texted_only, for every node of a texted type."""
    parts = [np.stack([np.full(graph.node_counts[t], t, dtype=np.int64),
                       np.arange(graph.node_counts[t], dtype=np.int64)], axis=1)
             for t in range(len(graph.node_types))
             if graph.has_text(t) or not texted_only]
    return np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)


def token_table(models: ModelBundle, graph: HeteroGraph, type_index: int) -> np.ndarray:
    key = ("tokens", type_index, models.max_len)
    table = graph._cache.get(key)
    if table is None:
        table = tx.tokenize_batch(models.vocab, graph.texts[type_index], models.max_len)
        graph._cache[key] = table
    return table


def _encode_nograd(models, graph, type_index: int, locals_: np.ndarray,
                   max_rows: int) -> np.ndarray:
    """No-grad [CLS] rows for the given locals of one type, at most max_rows
    per encode call.  Every call keeps the width of the type's whole table,
    cropped to its widest text, so a row's value does not depend on which
    rows share its call."""
    table = tx.crop_padding(token_table(models, graph, type_index))
    with tg.no_grad():
        return np.concatenate([
            tx.encode_cls(models.encoder, table[locals_[lo:lo + max_rows]],
                          crop=False).data
            for lo in range(0, locals_.size, max_rows)])


def assemble_features(models: ModelBundle, graph: HeteroGraph, refs: np.ndarray,
                      *, cache: EmbeddingCache, step: int, budget: NodeBudget,
                      rng, lm_trainable: bool):
    """Feature rows for refs, mixing tape-encoded text, cached text, and
    textless type embeddings.  Returns (features, stats).

    When the text encoder is trainable, a uniform sample of at most
    budget.train_nodes texted rows is encoded on the tape; everything else is
    served from the cache, and what missed is encoded without grad, once per
    distinct row, and written back to the cache.
    """
    n = refs.shape[0]
    if n == 0:
        raise ContractError("assemble_features needs at least one ref")
    texted = graph.type_has_text[refs[:, 0]]
    texted_idx = np.nonzero(texted)[0]
    plain_idx = np.nonzero(~texted)[0]

    pieces: list[Tensor] = []
    perm = np.empty(n, dtype=np.int64)
    offset = 0
    stats = {"train_rows": 0, "infer_rows": 0, "hits": 0, "misses": 0,
             "encoded_rows": 0}

    if plain_idx.size:
        # textless types read straight from their embedding tables
        for t in np.unique(refs[plain_idx, 0]):
            rows = plain_idx[refs[plain_idx, 0] == t]
            emb = models.gnn.type_embeddings.get(int(t))
            if emb is None:
                raise ContractError(
                    f"type '{graph.node_types[int(t)]}' has neither text nor "
                    "an embedding table")
            pieces.append(tg.take_rows(emb, refs[rows, 1]))
            perm[rows] = offset + np.arange(rows.size)
            offset += rows.size

    if texted_idx.size:
        if lm_trainable:
            train_sel, infer_sel = split_train_inference(
                texted_idx.size, budget.train_nodes, rng)
        else:
            train_sel = np.empty(0, dtype=np.int64)
            infer_sel = np.arange(texted_idx.size, dtype=np.int64)
        if train_sel.size:
            rows = texted_idx[train_sel]
            table_rows = np.stack([token_table(models, graph, int(t))[int(l)]
                                   for t, l in refs[rows]])
            pieces.append(tx.encode_cls(models.encoder, table_rows))
            perm[rows] = offset + np.arange(rows.size)
            offset += rows.size
            stats["train_rows"] = int(rows.size)
            stats["encoded_rows"] += int(rows.size)
        if infer_sel.size:
            rows = texted_idx[infer_sel]
            keys = refs[rows]
            values = np.empty((rows.size, models.dim))
            missed = []
            # two lists of ints rather than a list per row: row lists would
            # outlive gc's young generations and trigger full collections
            for i, key in enumerate(zip(keys[:, 0].tolist(),
                                        keys[:, 1].tolist())):
                hit = cache.get(key, step)
                if hit is None:
                    missed.append(i)
                else:
                    values[i] = hit
            missed = np.asarray(missed, dtype=np.int64)
            stats["hits"] = int(rows.size - missed.size)
            stats["misses"] = int(missed.size)
            for t in np.unique(keys[missed, 0]).tolist():
                waiting = missed[keys[missed, 0] == t]
                locals_, inverse = np.unique(keys[waiting, 1], return_inverse=True)
                block = _encode_nograd(models, graph, t, locals_,
                                       budget.infer_batch)
                for l, row in zip(locals_.tolist(), block):
                    cache.put((t, l), row, step)
                values[waiting] = block[inverse]
                stats["encoded_rows"] += int(locals_.size)
            pieces.append(Tensor(values))
            perm[rows] = offset + np.arange(rows.size)
            offset += rows.size
            stats["infer_rows"] = int(rows.size)

    cat = pieces[0] if len(pieces) == 1 else tg.concat(pieces, axis=0)
    return tg.take_rows(cat, perm), stats

# -------------------------------------------------------------- step builders


def _node_embeddings_for_refs(models, graph, refs, *, settings, cache, step,
                              budget, rng, lm_trainable, use_gnn=True):
    """GNN-space (or CLS-space) embeddings for the given node refs, in order."""
    if not use_gnn:
        feats, stats = assemble_features(
            models, graph, refs, cache=cache, step=step, budget=budget,
            rng=rng, lm_trainable=lm_trainable)
        return feats, stats, None
    batch = sample_neighbors(graph, refs, fanouts=settings.fanouts,
                             num_layers=settings.num_layers, rng=rng)
    feats, stats = assemble_features(
        models, graph, batch.source_refs, cache=cache, step=step,
        budget=budget, rng=rng, lm_trainable=lm_trainable)
    h = rgcn.gnn_forward(models.gnn, batch, feats)
    pos = batch.target_index(refs)
    return tg.take_rows(h, pos), stats, batch


def _link_step(models, graph, sample, *, settings, cache, step, budget, rng,
               lm_trainable, use_gnn):
    """Contrastive link loss over one batch of positive edges."""
    batch = (ng.corrupt_joint if settings.negative_mode == "joint"
             else ng.corrupt_independent)(
        graph, sample.edge_rels, sample.edge_srcs, sample.edge_dsts,
        settings.negatives_k, rng)
    head_t, tail_t = ng.endpoint_types(graph, batch.rels)
    refs = np.concatenate([np.stack([head_t, batch.heads], axis=1),
                           np.stack([tail_t, batch.tails], axis=1)])
    uniq, inverse = np.unique(refs, axis=0, return_inverse=True)
    h, stats, _ = _node_embeddings_for_refs(
        models, graph, uniq, settings=settings, cache=cache, step=step,
        budget=budget, rng=rng, lm_trainable=lm_trainable, use_gnn=use_gnn)
    m = len(batch)
    h_heads = tg.take_rows(h, inverse[:m])
    h_tails = tg.take_rows(h, inverse[m:])
    scores = dec.distmult_scores(h_heads, batch.rels, h_tails, models.distmult)
    loss = dec.link_loss(batch, scores)
    stats["unique_nodes"] = int(uniq.shape[0])
    return loss, stats


def _node_step(models, graph, sample, *, settings, cache, step, budget, rng,
               lm_trainable, use_gnn):
    h, stats, _ = _node_embeddings_for_refs(
        models, graph, sample.node_refs, settings=settings, cache=cache,
        step=step, budget=budget, rng=rng, lm_trainable=lm_trainable,
        use_gnn=use_gnn)
    loss = dec.node_loss(models.node_head, h, sample.node_classes)
    stats["unique_nodes"] = int(np.unique(sample.node_refs, axis=0).shape[0])
    return loss, stats


def _edge_step(models, graph, sample, *, settings, cache, step, budget, rng,
               lm_trainable, use_gnn):
    head_t, tail_t = ng.endpoint_types(graph, sample.edge_rels)
    refs = np.concatenate([np.stack([head_t, sample.edge_srcs], axis=1),
                           np.stack([tail_t, sample.edge_dsts], axis=1)])
    uniq, inverse = np.unique(refs, axis=0, return_inverse=True)
    h, stats, _ = _node_embeddings_for_refs(
        models, graph, uniq, settings=settings, cache=cache, step=step,
        budget=budget, rng=rng, lm_trainable=lm_trainable, use_gnn=use_gnn)
    m = sample.edge_rels.shape[0]
    h_heads = tg.take_rows(h, inverse[:m])
    h_tails = tg.take_rows(h, inverse[m:])
    loss = dec.edge_loss(models.edge_head, h_heads, h_tails, sample.edge_classes)
    stats["unique_nodes"] = int(uniq.shape[0])
    return loss, stats


_STEP_FN = {"link": _link_step, "node": _node_step, "edge": _edge_step}


# ----------------------------------------------------------------- evaluation


def full_graph_embeddings(models: ModelBundle, graph: HeteroGraph, *,
                          settings: TrainSettings, cache: EmbeddingCache,
                          step: int, budget: NodeBudget,
                          representation: str = "gnn") -> np.ndarray:
    """Embeddings for every node, rows in global-index order, computed with
    no grad.  GNN representation uses a saturating-fanout neighborhood so
    message passing sees every edge."""
    all_refs = node_refs(graph)
    with tg.no_grad():
        if representation == "cls":
            feats, _ = assemble_features(
                models, graph, all_refs, cache=cache, step=step, budget=budget,
                rng=0, lm_trainable=False)
            return feats.data
        if representation != "gnn":
            raise ContractError(f"unknown representation '{representation}'")
        key = ("full_ego", settings.num_layers)
        batch = graph._cache.get(key)
        if batch is None:
            saturate = max(graph.node_counts) if graph.node_counts else 1
            batch = sample_neighbors(graph, all_refs, fanouts=saturate,
                                     num_layers=settings.num_layers, rng=0)
            graph._cache[key] = batch
        feats, _ = assemble_features(
            models, graph, batch.source_refs, cache=cache, step=step,
            budget=budget, rng=0, lm_trainable=False)
        h = rgcn.gnn_forward(models.gnn, batch, feats)
        pos = batch.target_index(all_refs)
        return h.data[pos]


EVAL_FULL_CORRUPTION_LIMIT = 10_000
EVAL_SAMPLED_NEGATIVES = 500
# the most rows one no-grad encode call takes in evals; a memory bound only,
# encoded values do not depend on it
EVAL_CHUNK = 256


def _eval_link(models, graph, emb, split, rng) -> dict[str, float]:
    rels, srcs, dsts = graph.link_edges(split)
    if rels.size == 0:
        raise ContractError("no edges in evaluation split")
    rel_vecs = models.distmult.rel_vectors.data
    queries = []
    for r, s, d in zip(rels, srcs, dsts):
        head_type = graph.type_index(graph.relations[r].src_type)
        tail_type = graph.type_index(graph.relations[r].dst_type)
        h_head = emb[graph.global_index(head_type, s)]
        hr = h_head * rel_vecs[r]
        pos = float(hr @ emb[graph.global_index(tail_type, d)])
        if graph.node_counts[tail_type] <= EVAL_FULL_CORRUPTION_LIMIT:
            neg_ids = ng.full_eval_negatives(graph, int(r), int(s), int(d),
                                             filtered=True)
        else:
            neg_ids, _ = ng.sample_eval_negatives(
                graph, int(r), int(s), int(d), EVAL_SAMPLED_NEGATIVES, rng)
        base = graph.type_offsets[tail_type]
        neg = emb[base + neg_ids] @ hr if neg_ids.size else np.empty(0)
        queries.append(RankedQuery(pos, neg))
    return {"mrr": mrr(queries)}


def _eval_node(models, graph, emb, split, rng) -> dict[str, float]:
    refs, classes = graph.node_label_rows(split)
    if refs.shape[0] == 0:
        raise ContractError("no node labels in evaluation split")
    rows = np.array([graph.global_index(int(t), int(l)) for t, l in refs])
    with tg.no_grad():
        logits = dec.node_logits(models.node_head, Tensor(emb[rows])).data
    pred = logits.argmax(axis=1)
    report = f1_scores(pred, classes, models.node_head.num_classes)
    return {"accuracy": accuracy(pred, classes), "macro_f1": report.macro}


def _eval_edge(models, graph, emb, split, rng) -> dict[str, float]:
    srcs, dsts, classes = graph.edge_label_rows(split)
    if srcs.size == 0:
        raise ContractError("no edge labels in evaluation split")
    rels = np.full(srcs.size, graph.designated_relation, dtype=np.int64)
    head_t, tail_t = ng.endpoint_types(graph, rels)
    hrow = np.array([graph.global_index(int(t), int(l))
                     for t, l in zip(head_t, srcs)])
    trow = np.array([graph.global_index(int(t), int(l))
                     for t, l in zip(tail_t, dsts)])
    with tg.no_grad():
        logits = dec.edge_logits(models.edge_head, Tensor(emb[hrow]),
                                 Tensor(emb[trow])).data
    pred = logits.argmax(axis=1)
    report = f1_scores(pred, classes, models.edge_head.num_classes)
    return {"accuracy": accuracy(pred, classes), "macro_f1": report.macro}


_EVAL_FN = {"link": _eval_link, "node": _eval_node, "edge": _eval_edge}


def eval_memo(graph: HeteroGraph) -> EmbeddingCache:
    """A cache for evaluate() that holds every row of the graph and serves
    only entries of the current encoder version."""
    return EmbeddingCache(sum(graph.node_counts), 0)


def evaluate(models: ModelBundle, graph: HeteroGraph, task: str, split: int, *,
             settings: TrainSettings, rng=0,
             representation: str = "gnn", memo: EmbeddingCache | None = None,
             version: int = 0) -> dict:
    """Task metrics on one split, from full-graph embeddings.

    Encoded rows depend on nothing but the weights, so a report computed
    mid-training, after training, or from a reloaded checkpoint is
    byte-for-byte the same.
    Without a memo the encode runs on a scratch cache.  Training loops pass
    an eval_memo() with the training cache's encoder version, so an eval
    under an encoder that has not been updated since the last one reuses
    its rows.  They must not hand their training cache here: its entries may
    be stale by up to cache_staleness encoder updates, and eval writes would
    reach the next training step.
    """
    if task not in TASKS:
        raise ContractError(f"unknown task '{task}'")
    if memo is None:
        memo = EmbeddingCache(0, 0)
    emb = full_graph_embeddings(models, graph, settings=settings, cache=memo,
                                step=version, budget=NodeBudget(1, EVAL_CHUNK),
                                representation=representation)
    return _EVAL_FN[task](models, graph, emb, split, _as_rng(rng))

# -------------------------------------------------------------- training loop


@dataclass
class RunLog:
    """Flat record stream for a run; one dict per step or per epoch metric."""

    records: list = field(default_factory=list)

    def add_step(self, stage: str, step: int, loss: float, cache_hit_rate: float,
                 unique_nodes: int, elapsed_ms: float, *, cache_hits: int = 0,
                 cache_misses: int = 0, encoded_rows: int = 0):
        """cache_hit_rate is cumulative since the run started; cache_hits,
        cache_misses and encoded_rows (tape and no-grad) are this step's."""
        self.records.append({
            "kind": "step", "stage": stage, "step": step, "loss": loss,
            "cache_hit_rate": cache_hit_rate, "unique_nodes": unique_nodes,
            "elapsed_ms": elapsed_ms, "cache_hits": cache_hits,
            "cache_misses": cache_misses, "encoded_rows": encoded_rows})

    def add_metric(self, stage: str, epoch: int, split: str, metric: str,
                   value: float):
        self.records.append({
            "kind": "metric", "stage": stage, "epoch": epoch, "split": split,
            "metric": metric, "value": value})

    def metric_values(self, stage: str, metric: str, split: str = "valid"):
        return [r["value"] for r in self.records
                if r["kind"] == "metric" and r["stage"] == stage
                and r["metric"] == metric and r["split"] == split]

    def dump_jsonl(self, path: str):
        import json
        with open(path, "w", encoding="utf-8") as f:
            for r in self.records:
                f.write(json.dumps(r, sort_keys=True) + "\n")


def _texted_link_pool(graph: HeteroGraph):
    """Train link edges whose relation joins two texted types; the encoder
    pre-fine-tuning stage scores these directly in CLS space."""
    rels, srcs, dsts = graph.link_edges(TRAIN)
    texted = np.array([graph.has_text(graph.type_index(r.src_type))
                       and graph.has_text(graph.type_index(r.dst_type))
                       for r in graph.relations], dtype=bool)
    keep = texted[rels]
    return rels[keep], srcs[keep], dsts[keep]


def _pool_batch(size: int, batch_size: int, rng) -> np.ndarray:
    if batch_size >= size:
        idx = rng.permutation(size)
        if batch_size > size:
            extra = rng.integers(size, size=batch_size - size)
            idx = np.concatenate([idx, extra])
        return idx
    return rng.choice(size, size=batch_size, replace=False)


def validate_plan(graph: HeteroGraph, settings: TrainSettings,
                  models: ModelBundle):
    if settings.task not in TASKS:
        raise ContractError(f"unknown task '{settings.task}'")
    for kind in settings.stages:
        if kind not in STAGE_KINDS:
            raise ContractError(f"unknown stage kind '{kind}'")
    if len(settings.stages) != len(settings.epochs):
        raise ContractError("stages and epochs must have equal length")
    if any(e < 1 for e in settings.epochs):
        raise ContractError("every stage needs at least one epoch")
    if settings.stage_learning_rates is not None:
        if len(settings.stage_learning_rates) != len(settings.stages):
            raise ContractError(
                "stage_learning_rates and stages must have equal length")
        if any(lr <= 0 for lr in settings.stage_learning_rates):
            raise ContractError("stage learning rates must be positive")
    if settings.task == "node" and models.node_head is None:
        raise ContractError("node task needs node labels")
    if settings.task == "edge" and models.edge_head is None:
        raise ContractError("edge task needs edge labels")
    if settings.task == "link" and graph.link_edges(TRAIN)[0].size == 0:
        raise ContractError("link task needs train edges")
    if "PreFineTuneLM" in settings.stages:
        if _texted_link_pool(graph)[0].size == 0:
            raise ContractError(
                "encoder pre-fine-tuning needs train edges between texted types")
    if settings.target_mode == "partition_local" and settings.partitions < 2:
        raise ContractError("partition_local mode needs at least 2 leaves")
    if settings.negative_mode not in ("independent", "joint"):
        raise ContractError(f"unknown negative mode '{settings.negative_mode}'")


def mlm_warmup(models: ModelBundle, graph: HeteroGraph,
               settings: TrainSettings, log: RunLog, rng) -> int:
    """Masked-token pretraining epochs over every texted node, before any
    stage runs.  Returns the number of optimizer steps taken."""
    refs = node_refs(graph, texted_only=True)
    if refs.shape[0] == 0:
        raise ContractError("masked-token pretraining needs texted nodes")
    rng = _as_rng(rng)
    models.set_trainable({"lm"})
    opt = tg.Adam({f"lm/{k}": p for k, p in models.encoder.params.items()},
                  learning_rate=settings.learning_rate)
    tables = {t: token_table(models, graph, t)
              for t in np.unique(refs[:, 0]).tolist()}
    steps = 0
    for epoch in range(settings.mlm_epochs):
        order = rng.permutation(refs.shape[0])
        for lo in range(0, order.size, settings.batch_size):
            rows = refs[order[lo:lo + settings.batch_size]]
            tokens = np.stack([tables[int(t)][int(l)] for t, l in rows])
            t0 = time.perf_counter()
            with tg.Tape() as tape:
                loss, masked = tx.mlm_pretrain_step(
                    models.encoder, tokens, settings.mlm_mask_prob, rng)
                if masked:
                    if not np.isfinite(loss.data):
                        raise NumericsError(f"mlm loss diverged at step {steps}")
                    opt.zero_grad()
                    tg.backward(loss, tape)
                    opt.step()
            log.add_step("MLM", steps, loss.item(), 0.0, rows.shape[0],
                         (time.perf_counter() - t0) * 1e3,
                         encoded_rows=rows.shape[0])
            steps += 1
    return steps


def train_stage(models: ModelBundle, graph: HeteroGraph, kind: str, *,
                settings: TrainSettings, epochs: int, cache: EmbeddingCache,
                budget: NodeBudget, log: RunLog, rng, step_start: int = 0,
                partition_map: PartitionMap | None = None,
                heldout_split: int = VALID,
                learning_rate: float | None = None,
                memo: EmbeddingCache | None = None) -> tuple[int, float]:
    """Run one stage for `epochs` epochs, restoring the epoch snapshot that
    scored best on the held-out split.  Returns (next_step, best_value).

    Cache entries are stamped with cache.version, which advances after every
    step that trains the encoder, and once more when such a stage ends and
    its training cache is dropped.  The per-epoch evals share `memo` (an
    eval_memo(), fresh for this stage when None) under the same version.
    When the last epoch scored best its weights are kept as they are, and
    the memo's rows from that epoch's eval stay valid for the next stage."""
    if kind not in STAGE_KINDS:
        raise ContractError(f"unknown stage kind '{kind}'")
    rng = _as_rng(rng)  # normalize once; a per-call reseed would freeze sampling
    task = "link" if kind == "PreFineTuneLM" else settings.task
    trainable = stage_trainable_groups(kind, settings.task)
    models.set_trainable(trainable)
    groups = models.param_groups()
    params = {f"{g}/{k}": p for g in sorted(trainable)
              for k, p in groups[g].items()}
    opt = tg.Adam(params, learning_rate=settings.learning_rate
                  if learning_rate is None else learning_rate)

    use_gnn = kind != "PreFineTuneLM"
    lm_trainable = "lm" in trainable
    representation = "gnn" if use_gnn else "cls"
    step_fn = _STEP_FN[task]
    metric_name = primary_metric(task)

    if kind == "PreFineTuneLM":
        pre_pool = _texted_link_pool(graph)
        pool_size = pre_pool[0].size
    else:
        pre_pool = None
        pool_size = _train_pool(graph, task)[1].shape[0]
    if pool_size == 0:
        raise ContractError(f"no train targets for task '{task}'")
    steps_per_epoch = max(1, -(-pool_size // settings.batch_size))

    if memo is None:
        memo = eval_memo(graph)
    step = step_start
    best_value = -np.inf
    best_snapshot = None
    best_epoch = -1
    for epoch in range(epochs):
        for _ in range(steps_per_epoch):
            if pre_pool is not None:
                # CLS-space contrast always samples globally
                idx = _pool_batch(pool_size, settings.batch_size, rng)
                sample = TargetSample(kind="edges", edge_rels=pre_pool[0][idx],
                                      edge_srcs=pre_pool[1][idx],
                                      edge_dsts=pre_pool[2][idx])
            else:
                sample = sample_targets(graph, task, settings.batch_size,
                                        mode=settings.target_mode,
                                        partition_map=partition_map, rng=rng)
            t0 = time.perf_counter()
            with tg.Tape() as tape:
                loss, stats = step_fn(
                    models, graph, sample, settings=settings, cache=cache,
                    step=cache.version, budget=budget, rng=rng,
                    lm_trainable=lm_trainable, use_gnn=use_gnn)
                if not np.isfinite(loss.data):
                    raise NumericsError(
                        f"loss diverged in stage {kind} at step {step}: "
                        f"{loss.data!r}")
                opt.zero_grad()
                tg.backward(loss, tape)
                opt.step()
            if lm_trainable:
                cache.advance()
            log.add_step(kind, step, loss.item(), cache.hit_rate,
                         stats.get("unique_nodes", 0),
                         (time.perf_counter() - t0) * 1e3,
                         cache_hits=stats["hits"], cache_misses=stats["misses"],
                         encoded_rows=stats["encoded_rows"])
            step += 1
        metrics = evaluate(models, graph, task, heldout_split,
                           settings=settings, rng=rng,
                           representation=representation, memo=memo,
                           version=cache.version)
        for mname, value in sorted(metrics.items()):
            log.add_metric(kind, epoch, SPLIT_LABELS[heldout_split], mname,
                           float(value))
        if metrics[metric_name] > best_value:
            best_value = metrics[metric_name]
            best_snapshot = models.snapshot()
            best_epoch = epoch
    if best_snapshot is not None:
        last_is_best = best_epoch == epochs - 1
        if not last_is_best:
            models.restore(best_snapshot)
        if lm_trainable:
            # rows cached in training predate the kept encoder weights
            cache.clear()
            if last_is_best:
                # the weights are the last eval's, so its memo rows stay exact
                memo.restamp(cache.version - 1, cache.version)
    return step, best_value


SPLIT_LABELS = ("train", "valid", "test")


def run_stagewise(graph: HeteroGraph, settings: TrainSettings,
                  log: RunLog | None = None, stage_callback=None):
    """Build models and run the whole staged plan.

    Seeds fan out from settings.seed in a fixed order (model init, partition
    layout, masked-token warmup, then one stream per stage), so any prefix of
    the plan is reproduced exactly by a run with the same seed.
    stage_callback(index, kind, models), when given, fires after each stage
    finishes (weights already restored to that stage's best epoch).  Returns
    (models, log, test_metrics).
    """
    if log is None:
        log = RunLog()
    ss = np.random.SeedSequence(settings.seed)
    children = ss.spawn(3 + len(settings.stages))
    models = build_models(graph, settings,
                          rng=np.random.default_rng(children[0]))
    validate_plan(graph, settings, models)

    partition_map = None
    if settings.target_mode == "partition_local":
        partition_map = assign_partitions(graph, settings.partitions,
                                          rng=np.random.default_rng(children[1]))

    if settings.mlm_epochs > 0:
        mlm_warmup(models, graph, settings, log,
                   np.random.default_rng(children[2]))

    cache = EmbeddingCache(settings.cache_capacity, settings.cache_staleness)
    memo = eval_memo(graph)
    budget = NodeBudget(settings.budget_train_nodes, settings.budget_infer_batch)
    rates = settings.stage_learning_rates or \
        (settings.learning_rate,) * len(settings.stages)
    step = 0
    for i, (kind, epochs) in enumerate(zip(settings.stages, settings.epochs)):
        step, _ = train_stage(
            models, graph, kind, settings=settings, epochs=epochs, cache=cache,
            budget=budget, log=log, rng=np.random.default_rng(children[3 + i]),
            step_start=step, partition_map=partition_map,
            learning_rate=rates[i], memo=memo)
        if stage_callback is not None:
            stage_callback(i, kind, models)

    last = settings.stages[-1] if settings.stages else "EndToEnd"
    representation = "cls" if last == "PreFineTuneLM" else "gnn"
    final = evaluate(models, graph, settings.task, TEST, settings=settings,
                     rng=0, representation=representation, memo=memo,
                     version=cache.version)
    for mname, value in sorted(final.items()):
        log.add_metric("final", 0, "test", mname, float(value))
    return models, log, final


# ------------------------------------------------------------- bundle saving


def _bundle_stem(path: str) -> str:
    return path[:-4] if path.endswith(".bin") else (
        path[:-5] if path.endswith(".json") else path)


def save_bundle(path: str, models: ModelBundle, graph: HeteroGraph,
                settings: TrainSettings) -> str:
    """Weights + vocab + enough structure to validate a later load."""
    meta = {
        "dim": models.dim, "max_len": models.max_len,
        "hidden_dim": settings.hidden_dim, "num_layers": settings.num_layers,
        "num_heads": settings.num_heads, "num_blocks": settings.num_blocks,
        "aggregation": settings.aggregation,
        "vocab_size": models.vocab.size,
        "node_types": list(graph.node_types),
        "node_counts": [int(c) for c in graph.node_counts],
        "relations": [[r.name, r.src_type, r.dst_type] for r in graph.relations],
        "node_classes": (models.node_head.num_classes
                         if models.node_head else 0),
        "edge_classes": (models.edge_head.num_classes
                         if models.edge_head else 0),
    }
    manifest = save_checkpoint(path, models.snapshot(), meta)
    models.vocab.save(_bundle_stem(path) + ".vocab.txt")
    return str(manifest)


def load_bundle(path: str, graph: HeteroGraph) -> ModelBundle:
    arrays, meta = load_checkpoint(path)
    if list(graph.node_types) != meta["node_types"]:
        raise LoadError(f"{path}: checkpoint node types {meta['node_types']} "
                        f"do not match graph {list(graph.node_types)}")
    counts = [int(c) for c in graph.node_counts]
    if counts != meta["node_counts"]:
        raise LoadError(f"{path}: checkpoint node counts {meta['node_counts']} "
                        f"do not match graph {counts}")
    rels = [[r.name, r.src_type, r.dst_type] for r in graph.relations]
    if rels != [list(r) for r in meta["relations"]]:
        raise LoadError(f"{path}: checkpoint relations do not match graph")
    vocab = tx.Vocab.load(_bundle_stem(path) + ".vocab.txt")
    if vocab.size != meta["vocab_size"]:
        raise LoadError(f"{path}: vocab file size {vocab.size} does not match "
                        f"manifest {meta['vocab_size']}")
    settings = TrainSettings(
        dim=meta["dim"], max_len=meta["max_len"], hidden_dim=meta["hidden_dim"],
        num_layers=meta["num_layers"], num_heads=meta["num_heads"],
        num_blocks=meta["num_blocks"], aggregation=meta["aggregation"])
    encoder = tx.TextEncoderModel(vocab.size, dim=settings.dim,
                                  num_heads=settings.num_heads,
                                  num_blocks=settings.num_blocks,
                                  max_len=settings.max_len, rng=0)
    textless = {t: graph.node_counts[t] for t in range(len(graph.node_types))
                if not graph.has_text(t)}
    gnn = rgcn.RgcnStack(settings.num_layers, settings.dim, settings.hidden_dim,
                         len(graph.message_relations), settings.aggregation,
                         type_embedding_counts=textless, rng=0)
    distmult = dec.DistMultParams(len(graph.relations), settings.dim, rng=0)
    node_head = (dec.NodeClassifierHead(settings.dim, meta["node_classes"], rng=0)
                 if meta["node_classes"] else None)
    edge_head = (dec.EdgeClassifierHead(settings.dim, meta["edge_classes"], rng=0)
                 if meta["edge_classes"] else None)
    models = ModelBundle(vocab, encoder, gnn, distmult, node_head, edge_head,
                         settings.max_len, settings.dim)
    params = models.all_params()
    if set(params) != set(arrays):
        missing = sorted(set(params) - set(arrays))[:3]
        extra = sorted(set(arrays) - set(params))[:3]
        raise LoadError(f"{path}: parameter names do not match rebuilt models "
                        f"(missing {missing}, unexpected {extra})")
    for name, p in params.items():
        if p.data.shape != arrays[name].shape:
            raise LoadError(f"{path}: shape mismatch for '{name}': "
                            f"{arrays[name].shape} vs {p.data.shape}")
        p.data = arrays[name].astype(np.float64)
    return models
