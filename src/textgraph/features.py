"""Feature rows for GNN sources: tape-encoded text, cached text, and textless
type embeddings, with the embedding cache that serves most of them.

Back-prop-on-samples: per step, at most train_nodes texted rows are encoded
on the tape (settings.budget_train_nodes while the encoder trains, none
otherwise); every other row comes from the cache or, when it missed, from a
no-grad encode of exactly the rows that missed, at most infer_batch rows per
encode call.  Those encodes run at the width of the type's whole token
table, so a row's encoded value never depends on which other rows share its
call.  Both the no-grad rows and the tape rows encoded at that width go into
the cache.  The cache keys rows by global node id and keeps its own clock,
the encoder version: staleness counts encoder updates, not steps, so under a
frozen encoder a cached row never expires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import rgcn
from . import tensor as tg
from . import text as tx
from .errors import ContractError
from .graph import HeteroGraph, _as_rng, sample_neighbors
from .tensor import Tensor

if TYPE_CHECKING:
    from .pipeline import ModelBundle


def split_train_inference(num_rows: int, budget: int, rng):
    """Uniform subset of at most budget row indices for on-tape encoding; the
    complement, in original order, goes through the no-grad path.  The two
    index sets partition range(num_rows) exactly.  Budget 0 puts every row on
    the no-grad path and draws nothing."""
    if budget < 0:
        raise ContractError("train budget must be >= 0")
    everything = np.arange(num_rows, dtype=np.int64)
    if num_rows <= budget:
        return everything, np.empty(0, dtype=np.int64)
    if budget == 0:
        return np.empty(0, dtype=np.int64), everything
    rng = _as_rng(rng)
    train = np.sort(rng.choice(num_rows, size=budget, replace=False))
    mask = np.ones(num_rows, dtype=bool)
    mask[train] = False
    return train, everything[mask]


class EmbeddingCache:
    """LRU of global node id -> embedding row, each entry stamped with the
    encoder version it was written under.

    `version` goes up once per encoder update (advance()) and never resets.
    An entry written at version s is served only while version - s stays
    within staleness_limit; older entries count as misses.  capacity 0
    disables storage entirely.  assemble_features stores the no-grad encodes
    of rows that missed and the detached values of tape rows encoded at
    their type's encode width, so a cached value is always bit-identical to
    what a fresh no-grad encode would give under the encoder weights of the
    version it is stamped with.

    Rows live in a pool of at most capacity slots, grown with use, each with
    its owner id, stamp and last-use tick.  Ticks go out per access in row
    order, so get_many serves and expires as one lookup per key in that order
    would.  put_many writes its whole block, each row as the most recent
    entry, then evicts the least recent entries while more than capacity are
    held.  evictions counts the entries that left the cache.
    """

    def __init__(self, capacity: int, staleness_limit: int):
        if capacity < 0:
            raise ContractError("cache capacity must be >= 0")
        if staleness_limit < 0:
            raise ContractError("cache staleness_limit must be >= 0")
        self.capacity = capacity
        self.staleness_limit = staleness_limit
        self.hits = self.misses = self.evictions = self.stale_drops = 0
        self.version = 0
        self._index = np.empty((0, 2), dtype=np.int64)  # id -> (slot, scratch)
        self._meta = np.empty((0, 3), dtype=np.int64)  # slot -> (id, stamp, tick)
        self._values = np.empty((0, 0))
        self._clock = 0

    def __len__(self):
        return int(np.count_nonzero(self._meta[:, 0] >= 0))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        """Each key's slot, -1 where absent."""
        if keys.size and keys.min() < 0:
            raise ContractError("cache keys must be node ids >= 0")
        grow = int(keys.max(initial=-1)) + 1 - len(self._index)
        if grow > 0:
            self._index = np.concatenate([self._index, np.full(
                (max(grow, len(self._index)), 2), -1)])
        at = np.arange(keys.size)
        self._index[keys, 1] = at
        if not np.array_equal(self._index[keys, 1], at):
            raise ContractError("cache keys of one call must be distinct")
        return self._index[keys, 0]

    def _drop(self, slots: np.ndarray):
        self._index[self._meta[slots, 0], 0] = -1
        self._meta[slots, 0] = -1

    def get_many(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fills out[i] with the entry for keys[i] wherever it is fresh and
        returns the other positions, ascending: a stale entry is dropped."""
        slots = self._slots_of(keys)
        held = np.flatnonzero(slots >= 0)
        fresh = self.version - self._meta[slots[held], 1] <= self.staleness_limit
        hit = held[fresh]
        if hit.size:
            out[hit] = self._values[slots[hit]]
        self._meta[slots[hit], 2] = self._clock + hit
        self._clock += keys.size
        self._drop(slots[held[~fresh]])
        self.stale_drops += int(held.size - hit.size)
        self.hits += int(hit.size)
        self.misses += int(keys.size - hit.size)
        missed = np.ones(keys.size, dtype=bool)
        missed[hit] = False
        return np.flatnonzero(missed)

    def put_many(self, keys: np.ndarray, values: np.ndarray):
        """Stores the whole block, values[i] under keys[i] as the most recent
        entry in row order, then evicts the least recent entries while more
        than capacity are held: entries outside the block first, then the
        block's own first rows."""
        if self.capacity == 0 or keys.size == 0:
            return
        slots = self._slots_of(keys)
        held = np.flatnonzero(self._meta[:, 0] >= 0)
        overflow = held.size + np.count_nonzero(slots < 0) - self.capacity
        if overflow > 0:
            mine = np.zeros(len(self._meta), dtype=bool)
            mine[slots[slots >= 0]] = True
            others = held[~mine[held]]
            gone = others[np.argsort(self._meta[others, 2])[:overflow]]
            skip = overflow - gone.size  # the block's own rows evicted
            self._drop(np.concatenate([gone, slots[:skip][slots[:skip] >= 0]]))
            self.evictions += int(overflow)
            keys, values, slots = keys[skip:], values[skip:], slots[skip:]
        new = np.flatnonzero(slots < 0)
        free = np.flatnonzero(self._meta[:, 0] < 0)
        if free.size < new.size:
            size = len(self._meta)
            grown = min(self.capacity, max(size + new.size - free.size, 2 * size))
            self._meta = np.concatenate([self._meta,
                                         np.full((grown - size, 3), -1)])
            self._values = np.resize(self._values, (grown,) + values.shape[1:])
            free = np.flatnonzero(self._meta[:, 0] < 0)
        slots[new] = free[:new.size]
        self._index[keys[new], 0] = slots[new]
        self._meta[slots] = np.stack([keys, np.full(slots.size, self.version),
                                      self._clock + np.arange(slots.size)], 1)
        self._values[slots] = values
        self._clock += slots.size

    def advance(self):
        """Count one encoder update: every entry ages by one."""
        self.version += 1

    def clear(self):
        """Drop every entry; counters and the version survive.  Called at
        the end of a stage that trained the encoder, whose best epoch's
        weights may differ from the ones cached rows came from."""
        self._drop(np.flatnonzero(self._meta[:, 0] >= 0))


def node_refs(graph: HeteroGraph, *, texted_only: bool = False) -> np.ndarray:
    """(type, local) rows for every node, in global-index order; with
    texted_only, for every node of a texted type."""
    return graph.refs[graph.type_has_text[graph.refs[:, 0]] | (not texted_only)]


def _tokens(models: ModelBundle, graph: HeteroGraph, type_index: int):
    """(token_table, encode_width) of a texted type, built once per bundle
    vocab and max_len."""
    def build():
        table = tx.tokenize_batch(models.vocab, graph.texts[type_index],
                                  models.max_len)
        return table, tx.crop_padding(table).shape[1]

    return graph.kept(("tokens", type_index), build,
                      owner=(models.vocab, models.max_len))


def token_table(models: ModelBundle, graph: HeteroGraph, type_index: int) -> np.ndarray:
    """A texted type's token ids, one row per node, tokenized with the
    bundle's vocab and max_len."""
    return _tokens(models, graph, type_index)[0]


def encode_width(models: ModelBundle, graph: HeteroGraph, type_index: int) -> int:
    """The width a texted type's rows are encoded at without grad: its token
    table's, cropped to its widest text."""
    return _tokens(models, graph, type_index)[1]


def _encode_nograd(models, graph, type_index: int, locals_: np.ndarray,
                   max_rows: int) -> np.ndarray:
    """No-grad [CLS] rows for the given locals of one type, at most max_rows
    per encode call.  Every call keeps the type's encode width, so a row's
    value does not depend on which rows share its call."""
    table = token_table(models, graph, type_index)[
        :, :encode_width(models, graph, type_index)]
    with tg.no_grad():
        return np.concatenate([
            tx.encode_cls(models.encoder, table[locals_[lo:lo + max_rows]],
                          crop=False).data
            for lo in range(0, locals_.size, max_rows)])


def assemble_features(models: ModelBundle, graph: HeteroGraph, refs: np.ndarray,
                      *, cache: EmbeddingCache, train_nodes: int,
                      infer_batch: int, rng):
    """Feature rows for refs, distinct (type, local) rows, mixing
    tape-encoded text, cached text, and textless type embeddings.  Returns
    (features, stats).

    A uniform sample of at most train_nodes texted rows is encoded on the
    tape (0 under a frozen encoder and in evals); everything else is served
    from the cache, keyed by global node id, and what missed is encoded
    without grad, at most infer_batch rows per encode call, and written to
    the cache.  Last, after every read and miss write, the detached value of
    each tape row whose type's encode width is the tape batch's width is
    written to the cache too: with the same tokens at the same width it is
    what _encode_nograd gives, bit for bit.
    """
    n = refs.shape[0]
    if n == 0:
        raise ContractError("assemble_features needs at least one ref")
    texted = graph.type_has_text[refs[:, 0]]
    texted_idx = np.nonzero(texted)[0]
    plain_idx = np.nonzero(~texted)[0]

    pieces: list[tuple[np.ndarray, Tensor]] = []  # (rows of refs, features)
    stats = {"train_rows": 0, "infer_rows": 0, "hits": 0, "misses": 0,
             "encoded_rows": 0}

    # textless types read straight from their embedding tables
    for t in np.unique(refs[plain_idx, 0]).tolist():
        rows = plain_idx[refs[plain_idx, 0] == t]
        emb = models.gnn.type_embeddings.get(t)
        if emb is None:
            raise ContractError(f"type '{graph.node_types[t]}' has neither text "
                                "nor an embedding table")
        pieces.append((rows, tg.take_rows(emb, refs[rows, 1])))

    train_sel, infer_sel = split_train_inference(texted_idx.size, train_nodes,
                                                 rng)
    write_back = None  # (global ids, values) of the tape rows to cache, put last
    if train_sel.size:
        rows = texted_idx[train_sel]
        types, locals_ = refs[rows, 0], refs[rows, 1]
        table_rows = np.empty((rows.size, models.max_len), dtype=np.int64)
        widths = np.empty(rows.size, dtype=np.int64)
        for t in np.unique(types).tolist():
            of_t = types == t
            table_rows[of_t] = token_table(models, graph, t)[locals_[of_t]]
            widths[of_t] = encode_width(models, graph, t)
        encoded = tx.encode_cls(models.encoder, table_rows)
        pieces.append((rows, encoded))
        stats["train_rows"] = int(rows.size)
        stats["encoded_rows"] += int(rows.size)
        # encode_cls crops the batch to its widest row
        exact = widths == tx.crop_padding(table_rows).shape[1]
        write_back = (graph.type_offsets[types[exact]] + locals_[exact],
                      encoded.data[exact])
    if infer_sel.size:
        rows = texted_idx[infer_sel]
        types, locals_ = refs[rows, 0], refs[rows, 1]
        values = np.empty((rows.size, models.dim))
        missed = cache.get_many(graph.type_offsets[types] + locals_, values)
        stats["hits"] = int(rows.size - missed.size)
        stats["misses"] = int(missed.size)
        for t in np.unique(types[missed]).tolist():
            waiting = missed[types[missed] == t]
            waiting = waiting[np.argsort(locals_[waiting])]
            block = _encode_nograd(models, graph, t, locals_[waiting],
                                   infer_batch)
            cache.put_many(graph.type_offsets[t] + locals_[waiting], block)
            values[waiting] = block
            stats["encoded_rows"] += int(waiting.size)
        pieces.append((rows, Tensor(values)))
        stats["infer_rows"] = int(rows.size)
    if write_back is not None:
        cache.put_many(*write_back)

    perm = np.empty(n, dtype=np.int64)
    perm[np.concatenate([rows for rows, _ in pieces])] = np.arange(n)
    feats = [f for _, f in pieces]
    cat = feats[0] if len(feats) == 1 else tg.concat(feats, axis=0)
    return tg.take_rows(cat, perm), stats


def embed_nodes(models, graph, refs, *, representation, fanouts, cache,
                train_nodes, infer_batch, rng):
    """Embeddings for the given node refs, in order: their [CLS] rows ("cls"),
    or the GNN run over their sampled ego graph ("gnn"), as deep as the
    models' GNN.  cache, train_nodes and infer_batch go to assemble_features.
    Returns (embeddings, stats)."""
    if representation == "cls":
        return assemble_features(models, graph, refs, cache=cache,
                                 train_nodes=train_nodes,
                                 infer_batch=infer_batch, rng=rng)
    if representation != "gnn":
        raise ContractError(f"unknown representation '{representation}'")
    batch = sample_neighbors(graph, refs, fanouts=fanouts,
                             num_layers=len(models.gnn.layers), rng=rng)
    feats, stats = assemble_features(models, graph, batch.source_refs,
                                     cache=cache, train_nodes=train_nodes,
                                     infer_batch=infer_batch, rng=rng)
    h = rgcn.gnn_forward(models.gnn, batch, feats)
    return tg.take_rows(h, batch.target_index(refs)), stats
