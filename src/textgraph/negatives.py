"""Negative sampling for contrastive link training.

Two corruption schemes over a batch of n positive triples with k negatives
each: independent corruption draws a fresh entity per negative (up to
2n + kn distinct endpoints), joint corruption shares one pool of n corrupted
entities across all positives (at most 3n distinct endpoints touched, which
is what keeps the encoder workload per step bounded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .graph import HeteroGraph, _as_rng

NEGATIVE_MODES = ("independent", "joint")
# redraws of a filtered eval negative that hits a known edge before it drops
EVAL_MAX_RETRIES = 10
# the most edges, positives and negatives together, one batch may hold: far
# past any batch that fits in memory, and well inside what numpy can size
MAX_BATCH_EDGES = 2 ** 32


@dataclass
class TripletBatch:
    """Positives first (label +1), then k negatives per positive in order
    (label -1); row n + i*k + j is negative j of positive i."""

    rels: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    labels: np.ndarray
    positives_count: int
    negatives_per_positive: int
    distinct_endpoints: int
    corrupt_fallback: bool = False

    def __len__(self) -> int:
        return int(self.rels.shape[0])


def endpoint_types(graph: HeteroGraph, rels: np.ndarray):
    """(head_type, tail_type) index arrays for a relation-index array."""
    rels = np.asarray(rels, dtype=np.int64)
    if rels.size and (rels.min() < 0 or rels.max() >= len(graph.relations)):
        raise IndexError(f"relation index out of range [0, {len(graph.relations)})")
    return graph.relation_types[rels, 0], graph.relation_types[rels, 1]


def count_distinct_endpoints(graph: HeteroGraph, rels, heads, tails) -> int:
    """Number of distinct (type, local id) nodes appearing as head or tail."""
    head_types, tail_types = endpoint_types(graph, rels)
    seen = set(zip(head_types.tolist(), np.asarray(heads).tolist()))
    seen.update(zip(tail_types.tolist(), np.asarray(tails).tolist()))
    return len(seen)


def _uniform_other(rng, n: int, exclude: int) -> int | None:
    """Uniform over [0, n) minus one value; None when the type has one node."""
    if n <= 1:
        return None
    u = int(rng.integers(n - 1))
    return u + 1 if u >= exclude else u


def _corrupt_one_side(rng, graph, types, ids):
    """Corrupt one side (0 head, 1 tail, by fair coin) of a positive with
    (head, tail) types and ids: another node of that side's type, or of the
    other side's when the type is a singleton.  Returns (side, replacement
    id), or None when both types are singletons."""
    first = 0 if rng.random() < 0.5 else 1
    for side in (first, 1 - first):
        repl = _uniform_other(rng, graph.node_counts[types[side]], ids[side])
        if repl is not None:
            return side, repl
    return None


def _check_positives(rels, heads, tails, k):
    rels = np.asarray(rels, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    if not (rels.shape == heads.shape == tails.shape) or rels.ndim != 1:
        raise ContractError("rels, heads, tails must be equal-length 1-D arrays")
    if rels.size == 0:
        raise ContractError("need at least one positive triple")
    if k < 1:
        raise ContractError("negatives_per_positive must be >= 1")
    if rels.size * (int(k) + 1) > MAX_BATCH_EDGES:
        raise ContractError(f"{rels.size} positives with {k} negatives each "
                            f"exceed {MAX_BATCH_EDGES} edges per batch")
    return rels, heads, tails


def _assemble(graph, rels, heads, tails, k, neg_rels, neg_heads, neg_tails, fallback):
    n = rels.size
    all_rels = np.concatenate([rels, neg_rels])
    all_heads = np.concatenate([heads, neg_heads])
    all_tails = np.concatenate([tails, neg_tails])
    labels = np.concatenate([np.ones(n), -np.ones(n * k)])
    distinct = count_distinct_endpoints(graph, all_rels, all_heads, all_tails)
    return TripletBatch(all_rels, all_heads, all_tails, labels, n, k,
                        distinct, fallback)


def corrupt_independent(graph: HeteroGraph, rels, heads, tails, k: int,
                        rng=0) -> TripletBatch:
    """k negatives per positive, each corrupting head or tail (fair coin) with
    a fresh uniform draw over the other nodes of that type.  A type with a
    single node forces the other side; if both sides are singletons the
    positive is emitted unchanged and the batch is flagged corrupt_fallback.
    """
    rels, heads, tails = _check_positives(rels, heads, tails, k)
    rng = _as_rng(rng)
    head_types, tail_types = endpoint_types(graph, rels)
    n = rels.size
    neg_heads = np.repeat(heads, k)
    neg_tails = np.repeat(tails, k)
    neg_rels = np.repeat(rels, k)
    fallback = False
    for i in range(n):
        types = (head_types[i], tail_types[i])
        ids = (int(heads[i]), int(tails[i]))
        for row in range(i * k, (i + 1) * k):
            drawn = _corrupt_one_side(rng, graph, types, ids)
            if drawn is None:
                fallback = True
                continue
            side, repl = drawn
            (neg_heads, neg_tails)[side][row] = repl
    return _assemble(graph, rels, heads, tails, k, neg_rels, neg_heads,
                     neg_tails, fallback)


def corrupt_joint(graph: HeteroGraph, rels, heads, tails, k: int,
                  rng=0) -> TripletBatch:
    """k negatives per positive drawn from one shared pool of n corrupted
    entities, so the whole batch touches at most 3n distinct endpoints.

    Pool slot s corrupts positive s's head or tail (fair coin).  The fill
    draws nothing.  For the positives of one (head type, tail type) pair, let
    `compatible` be the ascending pool slots of either type, c its size and
    start the first of them after positive i.  Negative j of positive i takes
    compatible[(start + j) % c] while j < c, and compatible[j % c] after
    that: the compatible slots cyclically from the one after i, then again
    from the first.  A tail-typed slot replaces the tail, any other the
    head.  A positive with no compatible slot is a contract error.
    """
    rels, heads, tails = _check_positives(rels, heads, tails, k)
    rng = _as_rng(rng)
    head_types, tail_types = endpoint_types(graph, rels)
    n = rels.size

    pool_types = np.full(n, -1, dtype=np.int64)  # -1: no slot
    pool_ids = np.empty(n, dtype=np.int64)
    for s in range(n):
        types = (head_types[s], tail_types[s])
        drawn = _corrupt_one_side(rng, graph, types,
                                  (int(heads[s]), int(tails[s])))
        if drawn is not None:
            side, pool_ids[s] = drawn
            pool_types[s] = types[side]

    neg_heads = np.repeat(heads, k)
    neg_tails = np.repeat(tails, k)
    pair = head_types * len(graph.node_types) + tail_types
    _, first = np.unique(pair, return_index=True)
    j = np.arange(k)
    for i in np.sort(first).tolist():  # lowest positive first, for the error
        ht, tt = head_types[i], tail_types[i]
        compatible = np.flatnonzero((pool_types == ht) | (pool_types == tt))
        c = compatible.size
        if c == 0:
            raise ContractError(
                f"joint pool has no entity compatible with positive {i} "
                f"(types {graph.node_types[ht]}/{graph.node_types[tt]})")
        members = np.flatnonzero(pair == pair[i])
        start = np.searchsorted(compatible, members, side="right")
        slots = compatible[np.where(j < c, start[:, None] + j, j) % c]
        rows = members[:, None] * k + j
        is_tail = pool_types[slots] == tt
        neg_tails[rows[is_tail]] = pool_ids[slots[is_tail]]
        neg_heads[rows[~is_tail]] = pool_ids[slots[~is_tail]]
    return _assemble(graph, rels, heads, tails, k, np.repeat(rels, k),
                     neg_heads, neg_tails, fallback=False)


def sample_eval_negatives(graph: HeteroGraph, rel: int, head: int, tail: int,
                          count: int, rng=0):
    """Negative tail ids for ranking one positive (head, rel, tail), filtered.

    Draws uniformly over the tail type excluding the true tail; draws landing
    on known (head, tail') edges are resampled up to EVAL_MAX_RETRIES times
    then dropped, so fewer than count ids may come back.
    Returns (tail_ids, dropped_count).
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    rng = _as_rng(rng)
    _, tail_types = endpoint_types(graph, np.array([rel]))
    n = graph.node_counts[tail_types[0]]
    known = set(graph.tails(rel, head).tolist())
    out = []
    dropped = 0
    for _ in range(count):
        cand = _uniform_other(rng, n, int(tail))
        tries = 0
        while cand is not None and cand in known:
            tries += 1
            cand = (_uniform_other(rng, n, int(tail))
                    if tries <= EVAL_MAX_RETRIES else None)
        if cand is None:
            dropped += 1
            continue
        out.append(int(cand))
    return np.array(out, dtype=np.int64), dropped


def full_eval_negatives(graph: HeteroGraph, rel: int, head: int,
                        tail: int) -> np.ndarray:
    """Every tail id of the tail type except the true tail and the tails of
    head's known rel edges (filtered ranking)."""
    _, tail_types = endpoint_types(graph, np.array([rel]))
    n = graph.node_counts[tail_types[0]]
    cands = np.arange(n, dtype=np.int64)
    mask = cands != int(tail)
    mask[graph.tails(rel, head)] = False
    return cands[mask]
