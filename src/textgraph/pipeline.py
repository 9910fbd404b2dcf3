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

Feature assembly and the embedding cache live in features.

Training steps and evals embed nodes through embed_nodes, which reads the
GNN's depth from the models; full_graph_embeddings alone holds the eval
encode policy (no grad, rng 0, saturating fanout, EVAL_CHUNK rows per call).
An eval takes nothing but the models and the graph: its encoded rows are
kept with the graph and reused while the encoder's weights are bit for bit
those they were encoded under, so a per-epoch eval under a frozen encoder
encodes nothing, and every eval equals one on a freshly loaded graph.
Stages and evals read their rows from graph.task_targets; validate_plan
checks every row set a plan reads before the first step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import decoders as dec
from . import negatives as ng
from . import rgcn
from . import tensor as tg
from . import text as tx
from .checkpoint import checkpoint_stem, load_checkpoint, save_checkpoint
from .errors import ContractError, LoadError, NumericsError
# assemble_features and sample_neighbors are re-exported: the benchmark's
# spans trace them by their pipeline names
from .features import (EmbeddingCache, assemble_features,  # noqa: F401
                       embed_nodes, node_refs, token_table)
from .graph import (SPLIT_NAMES, TARGET_MODES, TEST, TRAIN, VALID, HeteroGraph,
                    PartitionMap, TargetSample, _as_rng, _NoDraw,
                    assign_partitions, require_targets, sample_neighbors,
                    sample_targets, task_targets)
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


def stage_representation(kind: str) -> str:
    """The embeddings a stage trains and evaluates on: PreFineTuneLM reads
    the encoder's [CLS] rows, every other stage reads the GNN's output."""
    return "cls" if kind == "PreFineTuneLM" else "gnn"


def primary_metric(task: str) -> str:
    return {"link": "mrr", "node": "accuracy", "edge": "macro_f1"}[task]


@dataclass(frozen=True)
class TrainSettings:
    """Everything a run needs; CLI configs parse into one of these.  Checked
    on construction against SETTING_RULES and the per-stage lengths."""

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

    def __post_init__(self):
        rules = [*((f.name, *SETTING_RULES[f.name]) for f in fields(self)),
                 ("epochs", "a tuple with one entry per stage",
                  lambda v: len(v) == len(self.stages)),
                 ("stage_learning_rates",
                  "None or a tuple with one entry per stage",
                  lambda v: v is None or len(v) == len(self.stages)),
                 ("partitions", ">= 2 under target_mode partition_local",
                  lambda v: v >= 2 or self.target_mode != "partition_local"),
                 # a step's batch, negatives included, has to fit in memory
                 ("batch_size", "<= 2**32, the most edges one step may hold",
                  lambda v: v <= ng.MAX_BATCH_EDGES),
                 ("negatives_k", "such that batch_size * (negatives_k + 1), "
                  "the edges one step holds, is <= 2**32",
                  lambda v: int(self.batch_size) * (int(v) + 1)
                  <= ng.MAX_BATCH_EDGES)]
        for key, what, ok in rules:
            value = getattr(self, key)
            if not ok(value):
                raise ContractError(f"key '{key}' must be {what}, got {value!r}")


def _int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v) -> bool:
    return isinstance(v, (float, np.floating)) or _int(v)


def _count(low: int):
    return (f"an int >= {low} and < 2**63",
            lambda v: _int(v) and low <= v < 2 ** 63)


def _one_of(choices):
    return (f"one of {list(choices)}",
            lambda v: isinstance(v, str) and v in choices)


def _tuple_of(ok):
    return lambda v: isinstance(v, tuple) and len(v) > 0 and all(map(ok, v))


def _rate(v) -> bool:
    return _real(v) and 0 < v < np.inf


# TrainSettings field -> (what its value must be, the check).  Config files,
# programmatic runs and checkpoint manifests all hold to these; a config file
# adds its own narrower policy (cli).  Every count is < 2**63, as numpy sizes
# arrays in int64; seed has no upper bound, as SeedSequence takes any int >= 0.
SETTING_RULES = {
    "task": _one_of(TASKS),
    "stages": (f"a non-empty tuple of stage kinds from {list(STAGE_KINDS)}",
               _tuple_of(_one_of(STAGE_KINDS)[1])),
    "epochs": ("a non-empty tuple of ints >= 1 and < 2**63",
               _tuple_of(_count(1)[1])),
    **dict.fromkeys(("batch_size", "fanouts", "num_layers", "hidden_dim",
                     "negatives_k", "budget_train_nodes", "budget_infer_batch",
                     "partitions", "max_len", "dim", "num_heads", "num_blocks"),
                    _count(1)),
    "learning_rate": ("a float > 0", _rate),
    "stage_learning_rates": ("None or a non-empty tuple of floats > 0",
                             lambda v: v is None or _tuple_of(_rate)(v)),
    "negative_mode": _one_of(ng.NEGATIVE_MODES),
    **dict.fromkeys(("cache_capacity", "cache_staleness", "mlm_epochs"),
                    _count(0)),
    "target_mode": _one_of(TARGET_MODES),
    "mlm_mask_prob": ("a float in [0, 1]", lambda v: _real(v) and 0 <= v <= 1),
    "aggregation": _one_of(rgcn.AGGREGATIONS),
    "seed": ("an int >= 0", lambda v: _int(v) and v >= 0),
}


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


# the TrainSettings fields that fix the models' shapes; a checkpoint's
# manifest records exactly these
ARCH_KEYS = ("dim", "max_len", "hidden_dim", "num_layers", "num_heads",
             "num_blocks", "aggregation")


def _new_models(graph: HeteroGraph, vocab: tx.Vocab, arch: TrainSettings,
                node_classes: int, edge_classes: int, rng) -> ModelBundle:
    """Freshly initialized models; a head with 0 classes is left out."""
    # a head's weights are one (inputs, classes) float64 array, whose size
    # in bytes numpy holds in an int64
    for task, inputs, classes in (("node", arch.dim, node_classes),
                                  ("edge", 2 * arch.dim, edge_classes)):
        if inputs * classes * 8 >= 2 ** 63:
            raise ContractError(f"the {task} head's {classes} classes over "
                                f"{inputs} inputs are too many for one array")
    rng = _as_rng(rng)
    encoder = tx.TextEncoderModel(vocab.size, dim=arch.dim,
                                  num_heads=arch.num_heads,
                                  num_blocks=arch.num_blocks,
                                  max_len=arch.max_len, rng=rng)
    textless = {t: graph.node_counts[t] for t in range(len(graph.node_types))
                if not graph.has_text(t)}
    gnn = rgcn.RgcnStack(arch.num_layers, arch.dim, arch.hidden_dim,
                         len(graph.message_relations), arch.aggregation,
                         type_embedding_counts=textless, rng=rng)
    distmult = dec.DistMultParams(len(graph.relations), arch.dim, rng=rng)
    node_head = (dec.NodeClassifierHead(arch.dim, node_classes, rng=rng)
                 if node_classes else None)
    edge_head = (dec.EdgeClassifierHead(arch.dim, edge_classes, rng=rng)
                 if edge_classes else None)
    return ModelBundle(vocab, encoder, gnn, distmult, node_head, edge_head,
                       arch.max_len, arch.dim)


def build_models(graph: HeteroGraph, settings: TrainSettings, rng=0) -> ModelBundle:
    vocab = tx.Vocab.from_texts(
        t for ti in range(len(graph.node_types)) if graph.has_text(ti)
        for t in graph.texts[ti])
    node_classes = max((int(c.max()) + 1 for c in graph.node_class_ids if c.size
                        and c.max() >= 0), default=0)
    edge_classes = 0
    if graph.edge_labels:
        ri = graph.designated_relation
        edge_classes = int(graph.edge_labels[ri].class_ids.max()) + 1
    return _new_models(graph, vocab, settings, node_classes, edge_classes, rng)


# -------------------------------------------------------------- step builders


def _pair_embeddings(models, graph, rels, heads, tails, **kwargs):
    """Row-aligned (head, tail) embeddings for the edges (rels, heads, tails),
    each distinct endpoint embedded once.  Returns (h_heads, h_tails, stats)."""
    head_t, tail_t = ng.endpoint_types(graph, rels)
    refs = np.concatenate([np.stack([head_t, heads], axis=1),
                           np.stack([tail_t, tails], axis=1)])
    uniq, inverse = np.unique(refs, axis=0, return_inverse=True)
    h, stats = embed_nodes(models, graph, uniq, **kwargs)
    stats["unique_nodes"] = int(uniq.shape[0])
    m = rels.shape[0]
    return tg.take_rows(h, inverse[:m]), tg.take_rows(h, inverse[m:]), stats


def _link_step(models, graph, sample, *, settings, rng, **kwargs):
    """Contrastive link loss over one batch of positive edges."""
    batch = (ng.corrupt_joint if settings.negative_mode == "joint"
             else ng.corrupt_independent)(
        graph, sample.edge_rels, sample.edge_srcs, sample.edge_dsts,
        settings.negatives_k, rng)
    h_heads, h_tails, stats = _pair_embeddings(
        models, graph, batch.rels, batch.heads, batch.tails, rng=rng,
        **kwargs)
    scores = dec.distmult_scores(h_heads, batch.rels, h_tails, models.distmult)
    return dec.link_loss(batch, scores), stats


def _node_step(models, graph, sample, **kwargs):
    h, stats = embed_nodes(models, graph, sample.node_refs, **kwargs)
    loss = dec.node_loss(models.node_head, h, sample.node_classes)
    stats["unique_nodes"] = int(np.unique(sample.node_refs, axis=0).shape[0])
    return loss, stats


def _edge_step(models, graph, sample, **kwargs):
    h_heads, h_tails, stats = _pair_embeddings(
        models, graph, sample.edge_rels, sample.edge_srcs, sample.edge_dsts,
        **kwargs)
    loss = dec.edge_loss(models.edge_head, h_heads, h_tails, sample.edge_classes)
    return loss, stats


_STEP_FN = {"link": _link_step, "node": _node_step, "edge": _edge_step}


# ----------------------------------------------------------------- evaluation


def _eval_rows(models: ModelBundle, graph: HeteroGraph) -> EmbeddingCache:
    """The graph's cache of eval-encoded rows, kept while the bundle's
    encoder and vocab are the ones they came from and every encoder weight
    is bit for bit the same (bytes, not ==, which equates -0.0 and 0.0);
    otherwise a fresh one.  A no-grad encode at table width depends on
    nothing else, so a reused row is exactly what a fresh encode gives."""
    weights = {name: (p.data.shape, p.data.tobytes())
               for name, p in models.encoder.params.items()}
    return graph.kept("eval_rows", lambda: EmbeddingCache(graph.total_nodes, 0),
                      owner=(models.encoder, models.vocab, weights))


def full_graph_embeddings(models: ModelBundle, graph: HeteroGraph, *,
                          representation: str = "gnn",
                          fanouts: int | None = None) -> np.ndarray:
    """Embeddings for every node, rows in global-index order, computed with
    no grad; the one encode policy of evals and dump-embeddings.  The GNN
    representation samples every node's neighborhood at rng 0 with the given
    fanouts; None means a saturating fanout, the largest (node, message
    relation) degree, so message passing sees every edge, repeats too.
    Rows are encoded at most EVAL_CHUNK per call, and reused from the last
    call on this graph while the encoder's weights are unchanged."""
    if fanouts is None:
        fanouts = int(np.diff(graph.message_adjacency().offsets).max(initial=1))
    with tg.no_grad():
        emb, _ = embed_nodes(
            models, graph, node_refs(graph), representation=representation,
            fanouts=fanouts, cache=_eval_rows(models, graph), train_nodes=0,
            infer_batch=EVAL_CHUNK, rng=0)
    return emb.data


EVAL_FULL_CORRUPTION_LIMIT = 10_000
EVAL_SAMPLED_NEGATIVES = 500
# the most rows one no-grad encode call takes in evals; a memory bound only,
# encoded values do not depend on it
EVAL_CHUNK = 256


def _eval_link(models, graph, emb, targets) -> dict[str, float]:
    rels, srcs, dsts = targets.edge_rels, targets.edge_srcs, targets.edge_dsts
    rel_vecs = models.distmult.rel_vectors.data
    head_t, tail_t = ng.endpoint_types(graph, rels)
    hrs = emb[graph.type_offsets[head_t] + srcs] * rel_vecs[rels]
    h_tails = emb[graph.type_offsets[tail_t] + dsts]
    rng = np.random.default_rng(0)
    queries = []
    for r, s, d, t, hr, h_tail in zip(rels, srcs, dsts, tail_t, hrs, h_tails):
        pos = float(hr @ h_tail)
        if graph.node_counts[t] <= EVAL_FULL_CORRUPTION_LIMIT:
            neg_ids = ng.full_eval_negatives(graph, int(r), int(s), int(d))
        else:
            neg_ids, _ = ng.sample_eval_negatives(
                graph, int(r), int(s), int(d), EVAL_SAMPLED_NEGATIVES, rng)
        base = graph.type_offsets[t]
        neg = emb[base + neg_ids] @ hr if neg_ids.size else np.empty(0)
        queries.append(RankedQuery(pos, neg))
    return {"mrr": mrr(queries)}


def _classification_metrics(task: str, logits: Tensor, classes,
                            num_classes: int):
    if classes.max() >= num_classes:  # a checkpoint's head, a relabeled graph
        raise ContractError(f"{task} label class {int(classes.max())} is beyond "
                            f"the {task} head's {num_classes} classes")
    pred = logits.data.argmax(axis=1)
    report = f1_scores(pred, classes, num_classes)
    return {"accuracy": accuracy(pred, classes), "macro_f1": report.macro}


def _eval_node(models, graph, emb, targets) -> dict[str, float]:
    refs = targets.node_refs
    rows = graph.type_offsets[refs[:, 0]] + refs[:, 1]
    with tg.no_grad():
        logits = dec.node_logits(models.node_head, Tensor(emb[rows]))
    return _classification_metrics("node", logits, targets.node_classes,
                                   models.node_head.num_classes)


def _eval_edge(models, graph, emb, targets) -> dict[str, float]:
    head_t, tail_t = ng.endpoint_types(graph, targets.edge_rels)
    with tg.no_grad():
        logits = dec.edge_logits(
            models.edge_head,
            Tensor(emb[graph.type_offsets[head_t] + targets.edge_srcs]),
            Tensor(emb[graph.type_offsets[tail_t] + targets.edge_dsts]))
    return _classification_metrics("edge", logits, targets.edge_classes,
                                   models.edge_head.num_classes)


_EVAL_FN = {"link": _eval_link, "node": _eval_node, "edge": _eval_edge}


def _require_head(models: ModelBundle, task: str):
    """Models built on a graph without node (edge) labels have no node
    (edge) head; link prediction needs none."""
    if task != "link" and getattr(models, f"{task}_head") is None:
        raise ContractError(f"the models have no {task} classifier head "
                            f"(their graph had no {task} labels)")


def evaluate(models: ModelBundle, graph: HeteroGraph, task: str, split: int, *,
             representation: str = "gnn") -> dict:
    """Task metrics on the split's task_targets, from
    full_graph_embeddings().  Link ranking over a tail type too large to
    corrupt in full samples its negatives from rng 0.  A report depends on
    nothing but the weights and the graph, so one computed mid-training,
    after training, or from a reloaded checkpoint is byte-for-byte the same."""
    if task not in TASKS:
        raise ContractError(f"unknown task '{task}'")
    _require_head(models, task)
    targets = require_targets(graph, task, split)
    emb = full_graph_embeddings(models, graph, representation=representation)
    return _EVAL_FN[task](models, graph, emb, targets)

# -------------------------------------------------------------- training loop


@dataclass
class RunLog:
    """Flat record stream for a run; one dict per step or per epoch metric."""

    records: list = field(default_factory=list)

    def add_step(self, stage: str, step: int, loss: float, cache_hit_rate: float,
                 unique_nodes: int, elapsed_ms: float, *, cache_hits: int = 0,
                 cache_misses: int = 0, encoded_rows: int = 0,
                 tape_rows: int = 0):
        """cache_hit_rate is cumulative since the run started; cache_hits,
        cache_misses, encoded_rows (tape and no-grad) and tape_rows (the
        encoded rows on the tape) are this step's."""
        self.records.append({
            "kind": "step", "stage": stage, "step": step, "loss": loss,
            "cache_hit_rate": cache_hit_rate, "unique_nodes": unique_nodes,
            "elapsed_ms": elapsed_ms, "cache_hits": cache_hits,
            "cache_misses": cache_misses, "encoded_rows": encoded_rows,
            "tape_rows": tape_rows})

    def add_metric(self, stage: str, epoch: int, split: str, metric: str,
                   value: float):
        self.records.append({
            "kind": "metric", "stage": stage, "epoch": epoch, "split": split,
            "metric": metric, "value": value})

    def dump_jsonl(self, path: str):
        import json
        with open(path, "w", encoding="utf-8") as f:
            for r in self.records:
                f.write(json.dumps(r, sort_keys=True) + "\n")


def _texted_link_pool(graph: HeteroGraph) -> TargetSample:
    """Train link edges whose relation joins two texted types; the encoder
    pre-fine-tuning stage scores these directly in CLS space."""
    pool = task_targets(graph, "link", TRAIN)
    pool = pool.take(graph.type_has_text[graph.relation_types].all(axis=1)
                     [pool.edge_rels])
    if len(pool) == 0:
        raise ContractError(
            "encoder pre-fine-tuning needs train edges between texted types")
    return pool


def validate_plan(graph: HeteroGraph, settings: TrainSettings,
                  models: ModelBundle):
    """What the plan needs of the graph, checked before the first step: each
    stage trains on its task's train rows (PreFineTuneLM on links between
    texted types) and evaluates on its valid rows, the run on the test rows."""
    _require_head(models, settings.task)
    if "PreFineTuneLM" in settings.stages:
        _texted_link_pool(graph)  # raises when it is empty
    needs = {("link" if kind == "PreFineTuneLM" else settings.task, split)
             for kind in settings.stages for split in (TRAIN, VALID)}
    for task, split in sorted(needs | {(settings.task, TEST)}):
        require_targets(graph, task, split)


def _optimizer(models: ModelBundle, groups: set[str], lr: float) -> tg.Adam:
    """Adam over the parameters of `groups`, now the only trainable ones."""
    models.set_trainable(groups)
    return tg.Adam({name: p for name, p in models.all_params().items()
                    if name.partition("/")[0] in groups}, lr)


def _update(opt: tg.Adam, forward, where: str):
    """One training step: forward() -> (loss, extra) on a fresh tape; a finite
    loss is back-propagated and opt steps once, None (a masked-token draw that
    masked nothing) updates nothing.  Returns (loss or 0.0, extra, elapsed ms)."""
    t0 = time.perf_counter()
    with tg.Tape() as tape:
        loss, extra = forward()
        if loss is not None:
            if not np.isfinite(loss.data):
                raise NumericsError(f"loss diverged in {where}: {loss.data!r}")
            opt.zero_grad()
            tg.backward(loss, tape)
            opt.step()
    value = 0.0 if loss is None else loss.item()
    return value, extra, (time.perf_counter() - t0) * 1e3


def mlm_warmup(models: ModelBundle, graph: HeteroGraph,
               settings: TrainSettings, log: RunLog, rng) -> int:
    """Masked-token pretraining epochs over every texted node, before any
    stage runs.  Returns the number of steps taken, one per batch."""
    refs = node_refs(graph, texted_only=True)
    if refs.shape[0] == 0:
        raise ContractError("masked-token pretraining needs texted nodes")
    rng = _as_rng(rng)
    opt = _optimizer(models, {"lm"}, settings.learning_rate)
    tables = {t: token_table(models, graph, t)
              for t in np.unique(refs[:, 0]).tolist()}

    def forward(tokens):
        loss, masked = tx.mlm_pretrain_step(
            models.encoder, tokens, settings.mlm_mask_prob, rng)
        return (loss if masked else None), (tokens.shape[0] if masked else 0)

    steps = 0
    for epoch in range(settings.mlm_epochs):
        order = rng.permutation(refs.shape[0])
        for lo in range(0, order.size, settings.batch_size):
            rows = refs[order[lo:lo + settings.batch_size]]
            tokens = np.stack([tables[int(t)][int(l)] for t, l in rows])
            loss, encoded, ms = _update(opt, lambda: forward(tokens),
                                        f"MLM at step {steps}")
            log.add_step("MLM", steps, loss, 0.0, rows.shape[0], ms,
                         encoded_rows=encoded, tape_rows=encoded)
            steps += 1
    return steps


def train_stage(models: ModelBundle, graph: HeteroGraph, kind: str, *,
                settings: TrainSettings, epochs: int, cache: EmbeddingCache,
                log: RunLog, rng, step_start: int = 0,
                partition_map: PartitionMap | None = None,
                learning_rate: float | None = None) -> tuple[int, float]:
    """Run one stage for `epochs` epochs, restoring the epoch snapshot that
    scored best on the held-out split.  Returns (next_step, best_value).

    Each step encodes at most settings.budget_train_nodes rows on the tape
    while the encoder trains, and advances the cache's encoder version after
    it; when such a stage ends its training cache is dropped.  The per-epoch
    evals never draw from the training stream."""
    rng = _as_rng(rng)  # normalize once; a per-call reseed would freeze sampling
    task = "link" if kind == "PreFineTuneLM" else settings.task
    trainable = stage_trainable_groups(kind, settings.task)
    opt = _optimizer(models, trainable, settings.learning_rate
                     if learning_rate is None else learning_rate)

    representation = stage_representation(kind)
    trains_encoder = "lm" in trainable
    step_fn = _STEP_FN[task]
    step_kw = dict(representation=representation, fanouts=settings.fanouts,
                   cache=cache, rng=rng, infer_batch=settings.budget_infer_batch,
                   train_nodes=(settings.budget_train_nodes if trains_encoder
                                else 0))
    if task == "link":  # the one step that reads settings: its negatives
        step_kw["settings"] = settings
    metric_name = primary_metric(task)

    pool = (_texted_link_pool(graph) if kind == "PreFineTuneLM"
            else require_targets(graph, task, TRAIN))
    steps_per_epoch = max(1, -(-len(pool) // settings.batch_size))

    step = step_start
    best_value = -np.inf
    best_snapshot = None
    best_epoch = -1
    for epoch in range(epochs):
        for _ in range(steps_per_epoch):
            if kind == "PreFineTuneLM":
                # CLS-space contrast always samples globally
                sample = pool.draw(settings.batch_size, rng)
            else:
                sample = sample_targets(graph, task, settings.batch_size,
                                        mode=settings.target_mode,
                                        partition_map=partition_map, rng=rng)
            loss, stats, ms = _update(
                opt, lambda: step_fn(models, graph, sample, **step_kw),
                f"stage {kind} at step {step}")
            if trains_encoder:
                cache.advance()
            log.add_step(kind, step, loss, cache.hit_rate,
                         stats["unique_nodes"], ms,
                         cache_hits=stats["hits"], cache_misses=stats["misses"],
                         encoded_rows=stats["encoded_rows"],
                         tape_rows=stats["train_rows"])
            step += 1
        metrics = evaluate(models, graph, task, VALID,
                           representation=representation)
        for mname, value in sorted(metrics.items()):
            log.add_metric(kind, epoch, SPLIT_NAMES[VALID], mname, float(value))
        if metrics[metric_name] > best_value:
            best_value = metrics[metric_name]
            best_snapshot = models.snapshot()
            best_epoch = epoch
    if best_snapshot is not None:
        if best_epoch != epochs - 1:
            models.restore(best_snapshot)
        if trains_encoder:
            # rows cached in training predate the kept encoder weights
            cache.clear()
    return step, best_value


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
    rates = settings.stage_learning_rates or \
        (settings.learning_rate,) * len(settings.stages)
    step = 0
    for i, (kind, epochs) in enumerate(zip(settings.stages, settings.epochs)):
        step, _ = train_stage(
            models, graph, kind, settings=settings, epochs=epochs, cache=cache,
            log=log, rng=np.random.default_rng(children[3 + i]),
            step_start=step, partition_map=partition_map,
            learning_rate=rates[i])
        if stage_callback is not None:
            stage_callback(i, kind, models)

    final = evaluate(models, graph, settings.task, TEST,
                     representation=stage_representation(settings.stages[-1]))
    for mname, value in sorted(final.items()):
        log.add_metric("final", 0, "test", mname, float(value))
    return models, log, final


# ------------------------------------------------------------- bundle saving


def save_bundle(path: str, models: ModelBundle, graph: HeteroGraph,
                settings: TrainSettings) -> str:
    """Weights + vocab + enough structure to validate a later load."""
    meta = {key: getattr(settings, key) for key in ARCH_KEYS}
    meta.update({
        "vocab_size": models.vocab.size,
        "node_types": list(graph.node_types),
        "node_counts": [int(c) for c in graph.node_counts],
        "relations": [[r.name, r.src_type, r.dst_type] for r in graph.relations],
        "node_classes": (models.node_head.num_classes
                         if models.node_head else 0),
        "edge_classes": (models.edge_head.num_classes
                         if models.edge_head else 0),
    })
    manifest = save_checkpoint(path, models.snapshot(), meta)
    models.vocab.save(f"{checkpoint_stem(path)}.vocab.txt")
    return str(manifest)


def _list_of(ok):
    return lambda v: type(v) is list and all(ok(x) for x in v)


_STRINGS = _list_of(lambda v: type(v) is str)
# manifest meta key -> (what its value must be, the check)
_META_CHECKS = {
    **{key: SETTING_RULES[key] for key in ARCH_KEYS},
    **dict.fromkeys(("vocab_size", "node_classes", "edge_classes"), _count(0)),
    "node_types": ("a list of strings", _STRINGS),
    "node_counts": ("a list of ints", _list_of(_int)),
    "relations": ("a list of [name, source type, target type] lists",
                  _list_of(lambda r: _STRINGS(r) and len(r) == 3)),
}


def load_bundle(path: str, graph: HeteroGraph) -> ModelBundle:
    arrays, meta = load_checkpoint(path)
    for key, (expected, ok) in _META_CHECKS.items():
        if key not in meta:
            raise LoadError(f"{checkpoint_stem(path)}.json: checkpoint metadata "
                            f"lacks '{key}'")
        if not ok(meta[key]):
            raise LoadError(f"{checkpoint_stem(path)}.json: checkpoint metadata "
                            f"'{key}' must be {expected}, got {meta[key]!r}")
    if list(graph.node_types) != meta["node_types"]:
        raise LoadError(f"{path}: checkpoint node types {meta['node_types']} "
                        f"do not match graph {list(graph.node_types)}")
    counts = [int(c) for c in graph.node_counts]
    if counts != meta["node_counts"]:
        raise LoadError(f"{path}: checkpoint node counts {meta['node_counts']} "
                        f"do not match graph {counts}")
    rels = [[r.name, r.src_type, r.dst_type] for r in graph.relations]
    if rels != meta["relations"]:
        raise LoadError(f"{path}: checkpoint relations do not match graph")
    vocab = tx.Vocab.load(f"{checkpoint_stem(path)}.vocab.txt")
    if vocab.size != meta["vocab_size"]:
        raise LoadError(f"{path}: vocab file size {vocab.size} does not match "
                        f"manifest {meta['vocab_size']}")
    arch = TrainSettings(**{key: meta[key] for key in ARCH_KEYS})
    # every weight is replaced from the checkpoint below, so none is drawn
    models = _new_models(graph, vocab, arch, meta["node_classes"],
                         meta["edge_classes"], rng=_NoDraw())
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
        p.data = arrays[name]  # a fresh C-ordered float64 array
    return models
