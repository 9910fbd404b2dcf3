"""Heterogeneous graph store and samplers.

A graph has typed node sets (dense 0-based local ids per type), optional text
per node, directed typed relations, optional node labels and optional edge
labels on one designated relation, each row carrying a train/valid/test split
tag.  Message passing sees every base relation in both directions, so a graph
with R relations exposes 2R message relations.

On-disk format is a directory of TSV files: nodes.tsv, edges.tsv, and the
optional node_labels.tsv / edge_labels.tsv.  All files carry a header row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, LoadError

SPLIT_NAMES = ("train", "valid", "test")
TRAIN, VALID, TEST = 0, 1, 2

_EMPTY = np.empty(0, dtype=np.int64)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True, order=True)
class NodeRef:
    """A node addressed as (type index, local index)."""

    type_index: int
    local_index: int


@dataclass(frozen=True)
class Relation:
    src_type: str
    name: str
    dst_type: str

    def key(self) -> tuple[str, str, str]:
        return (self.src_type, self.name, self.dst_type)


@dataclass(frozen=True)
class MessageRelation:
    """One direction of a base relation, as seen by the GNN.

    Messages flow src_type -> dst_type; `reverse` marks the flipped copy of
    the base relation.
    """

    relation_index: int
    reverse: bool
    name: str
    src_type: int
    dst_type: int


class Csr:
    """Compressed adjacency: neighbors(i) is targets[offsets[i]:offsets[i+1]]."""

    __slots__ = ("offsets", "targets")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        self.offsets = offsets
        self.targets = targets

    @classmethod
    def from_edges(cls, keys: np.ndarray, values: np.ndarray, num_keys: int) -> "Csr":
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=num_keys)
        offsets = np.zeros(num_keys + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, values[order].astype(np.int64))

    def neighbors(self, i: int) -> np.ndarray:
        return self.targets[self.offsets[i]:self.offsets[i + 1]]


@dataclass
class EdgeLabelSet:
    """Class + split per labeled edge of one relation."""

    relation_index: int
    src: np.ndarray
    dst: np.ndarray
    class_ids: np.ndarray
    splits: np.ndarray

    def rows_for_split(self, split: int):
        m = self.splits == split
        return self.src[m], self.dst[m], self.class_ids[m]


class HeteroGraph:
    """In-memory graph: node sets, text, relations with CSR both ways, labels."""

    def __init__(self, node_types, node_counts, texts, relations, edges,
                 node_class_ids=None, node_splits=None, edge_labels=None):
        self.node_types: list[str] = list(node_types)
        self.node_counts: list[int] = [int(c) for c in node_counts]
        self.texts: list[list[str]] = texts
        self.relations: list[Relation] = list(relations)
        self.edges: list[tuple[np.ndarray, np.ndarray]] = [
            (np.asarray(s, dtype=np.int64), np.asarray(d, dtype=np.int64))
            for s, d in edges
        ]
        self._type_index = {t: i for i, t in enumerate(self.node_types)}
        if len(self._type_index) != len(self.node_types):
            raise ContractError("duplicate node type names")
        self.node_class_ids = node_class_ids or [
            np.full(c, -1, dtype=np.int64) for c in self.node_counts
        ]
        self.node_splits = node_splits or [
            np.full(c, -1, dtype=np.int64) for c in self.node_counts
        ]
        self.edge_labels: dict[int, EdgeLabelSet] = edge_labels or {}
        self._validate()
        self.type_has_text = np.array([any(t != "" for t in rows)
                                       for rows in self.texts], dtype=bool)
        self._build_adjacency()
        self._cache: dict = {}

    # ------------------------------------------------------------ structure

    def _validate(self):
        for i, (t, c) in enumerate(zip(self.node_types, self.node_counts)):
            if c < 0:
                raise ContractError(f"negative node count for type '{t}'")
            if len(self.texts[i]) != c:
                raise ContractError(f"type '{t}': {len(self.texts[i])} texts for {c} nodes")
        for r, (src, dst) in zip(self.relations, self.edges):
            si, di = self.type_index(r.src_type), self.type_index(r.dst_type)
            for arr, bound, side in ((src, self.node_counts[si], "src"),
                                     (dst, self.node_counts[di], "dst")):
                if arr.size and (arr.min() < 0 or arr.max() >= bound):
                    raise ContractError(
                        f"relation {r.key()}: {side} id out of range [0, {bound})")
        for ri, labels in self.edge_labels.items():
            if not 0 <= ri < len(self.relations):
                raise ContractError(f"edge labels for unknown relation index {ri}")

    def _build_adjacency(self):
        self._by_src: list[Csr] = []
        self._by_dst: list[Csr] = []
        self.message_relations: list[MessageRelation] = []
        for ri, (rel, (src, dst)) in enumerate(zip(self.relations, self.edges)):
            si, di = self.type_index(rel.src_type), self.type_index(rel.dst_type)
            self._by_src.append(Csr.from_edges(src, dst, self.node_counts[si]))
            self._by_dst.append(Csr.from_edges(dst, src, self.node_counts[di]))
            self.message_relations.append(
                MessageRelation(ri, False, rel.name, si, di))
            self.message_relations.append(
                MessageRelation(ri, True, rel.name + "-rev", di, si))
        self.type_offsets = np.zeros(len(self.node_types) + 1, dtype=np.int64)
        np.cumsum(self.node_counts, out=self.type_offsets[1:])

    def type_index(self, name: str) -> int:
        try:
            return self._type_index[name]
        except KeyError:
            raise ContractError(f"unknown node type '{name}'") from None

    @property
    def total_nodes(self) -> int:
        return int(self.type_offsets[-1])

    @property
    def total_edges(self) -> int:
        return sum(s.size for s, _ in self.edges)

    def global_index(self, type_index: int, local_index: int) -> int:
        return int(self.type_offsets[type_index]) + int(local_index)

    def ref_of_global(self, g: int) -> NodeRef:
        t = int(np.searchsorted(self.type_offsets, g, side="right")) - 1
        return NodeRef(t, int(g - self.type_offsets[t]))

    def has_text(self, type_index: int) -> bool:
        return bool(self.type_has_text[type_index])

    def msg_neighbors(self, msg_rel_index: int, local_index: int) -> np.ndarray:
        """Neighbors sending messages to `local_index` under one message relation."""
        mr = self.message_relations[msg_rel_index]
        csr = self._by_src[mr.relation_index] if mr.reverse else self._by_dst[mr.relation_index]
        return csr.neighbors(local_index)

    def message_adjacency(self) -> Csr:
        """Every message relation in one CSR over global ids: the senders to
        global node g under message relation mi are neighbors(g * M + mi),
        M = len(message_relations), in the order msg_neighbors gives them."""
        cached = self._cache.get("messages")
        if cached is None:
            m = len(self.message_relations)
            keys, vals = [], []
            for mi, mr in enumerate(self.message_relations):
                src, dst = self.edges[mr.relation_index]
                if mr.reverse:
                    src, dst = dst, src
                keys.append((dst + self.type_offsets[mr.dst_type]) * m + mi)
                vals.append(src + self.type_offsets[mr.src_type])
            cached = Csr.from_edges(np.concatenate(keys) if keys else _EMPTY,
                                    np.concatenate(vals) if vals else _EMPTY,
                                    self.total_nodes * m)
            self._cache["messages"] = cached
        return cached

    def union_adjacency(self) -> Csr:
        """Undirected adjacency over global node indices, all relations merged."""
        cached = self._cache.get("union")
        if cached is None:
            heads, tails = [], []
            for rel, (src, dst) in zip(self.relations, self.edges):
                si, di = self.type_index(rel.src_type), self.type_index(rel.dst_type)
                gs = src + self.type_offsets[si]
                gd = dst + self.type_offsets[di]
                heads.append(gs)
                tails.append(gd)
                heads.append(gd)
                tails.append(gs)
            keys = np.concatenate(heads) if heads else _EMPTY
            vals = np.concatenate(tails) if tails else _EMPTY
            cached = Csr.from_edges(keys, vals, self.total_nodes)
            self._cache["union"] = cached
        return cached

    # --------------------------------------------------------------- labels

    @property
    def designated_relation(self) -> int | None:
        """The edge-labeled relation (lowest index when several carry labels)."""
        return min(self.edge_labels) if self.edge_labels else None

    def node_label_rows(self, split: int):
        """(refs (M,2), class_ids) of labeled nodes in a split, across all types."""
        refs, classes = [], []
        for t in range(len(self.node_types)):
            m = self.node_splits[t] == split
            locals_ = np.nonzero(m)[0]
            if locals_.size:
                refs.append(np.stack([np.full(locals_.size, t, dtype=np.int64),
                                      locals_], axis=1))
                classes.append(self.node_class_ids[t][locals_])
        if not refs:
            return np.empty((0, 2), dtype=np.int64), _EMPTY
        return np.concatenate(refs), np.concatenate(classes)

    def edge_label_rows(self, split: int):
        """(src, dst, class_ids) of the designated relation for a split."""
        ri = self.designated_relation
        if ri is None:
            raise ContractError("graph has no edge labels")
        return self.edge_labels[ri].rows_for_split(split)

    def link_edges(self, split: int):
        """(rels, srcs, dsts) for link prediction.

        The train split is every edge of unlabeled relations plus the
        train-tagged rows of labeled ones; valid/test come only from labeled
        rows (an unlabeled graph has no held-out link splits).
        """
        rels, srcs, dsts = [], [], []
        for ri in range(len(self.relations)):
            labels = self.edge_labels.get(ri)
            if labels is None:
                if split == TRAIN:
                    s, d = self.edges[ri]
                    rels.append(np.full(s.size, ri, dtype=np.int64))
                    srcs.append(s)
                    dsts.append(d)
            else:
                s, d, _ = labels.rows_for_split(split)
                rels.append(np.full(s.size, ri, dtype=np.int64))
                srcs.append(s)
                dsts.append(d)
        if not rels:
            return _EMPTY, _EMPTY, _EMPTY
        return np.concatenate(rels), np.concatenate(srcs), np.concatenate(dsts)

    def known_pairs(self, relation_index: int) -> set[tuple[int, int]]:
        """All (src, dst) pairs present for a relation, any split; for filtering."""
        key = ("known", relation_index)
        cached = self._cache.get(key)
        if cached is None:
            s, d = self.edges[relation_index]
            cached = set(zip(s.tolist(), d.tolist()))
            self._cache[key] = cached
        return cached


# ----------------------------------------------------------------- file IO


def _read_tsv(path: Path, num_fields: int):
    """Yield (line_number, fields) rows; header skipped; strict field count."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != num_fields:
                raise LoadError(
                    f"{path}:{lineno}: expected {num_fields} tab-separated fields, "
                    f"got {len(fields)}")
            yield lineno, fields


def _parse_int(path: Path, lineno: int, value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise LoadError(f"{path}:{lineno}: {what} is not an integer: {value!r}") from None


def _parse_split(path: Path, lineno: int, value: str) -> int:
    try:
        return SPLIT_NAMES.index(value)
    except ValueError:
        raise LoadError(
            f"{path}:{lineno}: split must be one of {SPLIT_NAMES}, got {value!r}") from None


def load_graph(directory) -> HeteroGraph:
    """Load a graph directory written by save_graph (label files optional)."""
    d = Path(directory)
    nodes_path = d / "nodes.tsv"
    edges_path = d / "edges.tsv"
    for p in (nodes_path, edges_path):
        if not p.exists():
            raise LoadError(f"{p}: not found")

    type_order: list[str] = []
    per_type: dict[str, dict[int, str]] = {}
    for lineno, (tname, lid, text) in _read_tsv(nodes_path, 3):
        local = _parse_int(nodes_path, lineno, lid, "local_id")
        bucket = per_type.setdefault(tname, {})
        if tname not in type_order:
            type_order.append(tname)
        if local in bucket:
            raise LoadError(f"{nodes_path}:{lineno}: duplicate node {tname}/{local}")
        bucket[local] = text
    node_counts, texts = [], []
    for tname in type_order:
        bucket = per_type[tname]
        n = len(bucket)
        if sorted(bucket) != list(range(n)):
            raise LoadError(
                f"{nodes_path}: type '{tname}' ids must be dense 0..{n - 1}")
        node_counts.append(n)
        texts.append([bucket[i] for i in range(n)])
    type_index = {t: i for i, t in enumerate(type_order)}

    relations: list[Relation] = []
    rel_index: dict[tuple, int] = {}
    rel_src: list[list[int]] = []
    rel_dst: list[list[int]] = []
    for lineno, (st, sid, rname, dt, did) in _read_tsv(edges_path, 5):
        for t in (st, dt):
            if t not in type_index:
                raise LoadError(f"{edges_path}:{lineno}: unknown node type '{t}'")
        s = _parse_int(edges_path, lineno, sid, "src_id")
        t_ = _parse_int(edges_path, lineno, did, "dst_id")
        key = (st, rname, dt)
        ri = rel_index.get(key)
        if ri is None:
            ri = len(relations)
            rel_index[key] = ri
            relations.append(Relation(st, rname, dt))
            rel_src.append([])
            rel_dst.append([])
        for v, tname, side in ((s, st, "src_id"), (t_, dt, "dst_id")):
            if not 0 <= v < node_counts[type_index[tname]]:
                raise LoadError(
                    f"{edges_path}:{lineno}: {side} {v} out of range for type '{tname}'")
        rel_src[ri].append(s)
        rel_dst[ri].append(t_)
    edges = [(np.array(s, dtype=np.int64), np.array(t, dtype=np.int64))
             for s, t in zip(rel_src, rel_dst)]

    node_class_ids = [np.full(c, -1, dtype=np.int64) for c in node_counts]
    node_splits = [np.full(c, -1, dtype=np.int64) for c in node_counts]
    nl_path = d / "node_labels.tsv"
    if nl_path.exists():
        for lineno, (tname, lid, cid, split) in _read_tsv(nl_path, 4):
            if tname not in type_index:
                raise LoadError(f"{nl_path}:{lineno}: unknown node type '{tname}'")
            ti = type_index[tname]
            local = _parse_int(nl_path, lineno, lid, "local_id")
            if not 0 <= local < node_counts[ti]:
                raise LoadError(f"{nl_path}:{lineno}: node id {local} out of range")
            cls = _parse_int(nl_path, lineno, cid, "class_id")
            if cls < 0:
                raise LoadError(f"{nl_path}:{lineno}: class_id must be >= 0")
            if node_class_ids[ti][local] != -1:
                raise LoadError(f"{nl_path}:{lineno}: duplicate label for {tname}/{local}")
            node_class_ids[ti][local] = cls
            node_splits[ti][local] = _parse_split(nl_path, lineno, split)

    edge_labels: dict[int, EdgeLabelSet] = {}
    el_path = d / "edge_labels.tsv"
    if el_path.exists():
        rows: dict[int, list] = {}
        for lineno, (st, sid, rname, dt, did, cid, split) in _read_tsv(el_path, 7):
            key = (st, rname, dt)
            if key not in rel_index:
                raise LoadError(f"{el_path}:{lineno}: unknown relation {key}")
            ri = rel_index[key]
            s = _parse_int(el_path, lineno, sid, "src_id")
            t_ = _parse_int(el_path, lineno, did, "dst_id")
            cls = _parse_int(el_path, lineno, cid, "class_id")
            if cls < 0:
                raise LoadError(f"{el_path}:{lineno}: class_id must be >= 0")
            rows.setdefault(ri, []).append(
                (s, t_, cls, _parse_split(el_path, lineno, split), lineno))
        for ri, entries in rows.items():
            pairs = set(zip(edges[ri][0].tolist(), edges[ri][1].tolist()))
            seen = set()
            for s, t_, _, _, lineno in entries:
                if (s, t_) not in pairs:
                    raise LoadError(
                        f"{el_path}:{lineno}: labeled edge ({s}, {t_}) not in edges.tsv")
                if (s, t_) in seen:
                    raise LoadError(f"{el_path}:{lineno}: duplicate edge label ({s}, {t_})")
                seen.add((s, t_))
            edge_labels[ri] = EdgeLabelSet(
                ri,
                np.array([e[0] for e in entries], dtype=np.int64),
                np.array([e[1] for e in entries], dtype=np.int64),
                np.array([e[2] for e in entries], dtype=np.int64),
                np.array([e[3] for e in entries], dtype=np.int64),
            )

    return HeteroGraph(type_order, node_counts, texts, relations, edges,
                       node_class_ids, node_splits, edge_labels)


def save_graph(graph: HeteroGraph, directory) -> None:
    """Write the four TSV files; label files are written even when empty."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "nodes.tsv", "w", encoding="utf-8") as fh:
        fh.write("node_type\tlocal_id\ttext\n")
        for ti, tname in enumerate(graph.node_types):
            for i in range(graph.node_counts[ti]):
                text = graph.texts[ti][i]
                if "\t" in text or "\n" in text:
                    raise ContractError(f"node {tname}/{i}: text contains tab or newline")
                fh.write(f"{tname}\t{i}\t{text}\n")
    with open(d / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write("src_type\tsrc_id\trelation\tdst_type\tdst_id\n")
        for rel, (src, dst) in zip(graph.relations, graph.edges):
            for s, t in zip(src.tolist(), dst.tolist()):
                fh.write(f"{rel.src_type}\t{s}\t{rel.name}\t{rel.dst_type}\t{t}\n")
    with open(d / "node_labels.tsv", "w", encoding="utf-8") as fh:
        fh.write("node_type\tlocal_id\tclass_id\tsplit\n")
        for ti, tname in enumerate(graph.node_types):
            classes = graph.node_class_ids[ti]
            splits = graph.node_splits[ti]
            for i in np.nonzero(classes >= 0)[0].tolist():
                fh.write(f"{tname}\t{i}\t{classes[i]}\t{SPLIT_NAMES[splits[i]]}\n")
    with open(d / "edge_labels.tsv", "w", encoding="utf-8") as fh:
        fh.write("src_type\tsrc_id\trelation\tdst_type\tdst_id\tclass_id\tsplit\n")
        for ri in sorted(graph.edge_labels):
            rel = graph.relations[ri]
            labels = graph.edge_labels[ri]
            for s, t, c, sp in zip(labels.src.tolist(), labels.dst.tolist(),
                                   labels.class_ids.tolist(), labels.splits.tolist()):
                fh.write(f"{rel.src_type}\t{s}\t{rel.name}\t{rel.dst_type}\t{t}"
                         f"\t{c}\t{SPLIT_NAMES[sp]}\n")


# ------------------------------------------------------------ synthetic data


@dataclass
class SyntheticSpec:
    """Planted-cluster generator settings.

    Two node types (query, product), two relations (query-purchase-product,
    product-related-product).  Nodes carry cluster-sliced bag-of-token text,
    node labels are cluster ids, and purchase edges are labeled with
    (dst_cluster - src_cluster) mod clusters.
    """

    nodes_per_type: int = 500
    clusters: int = 4
    intra_p: float = 0.03
    inter_p: float = 0.002
    vocab_size: int = 120
    tokens_per_node: int = 12
    cluster_token_p: float = 0.9
    seed: int = 0

    def validate(self):
        if self.clusters < 2:
            raise ContractError("clusters must be >= 2")
        if self.nodes_per_type < self.clusters:
            raise ContractError("nodes_per_type must be >= clusters")
        if not (0.0 <= self.inter_p <= 1.0 and 0.0 <= self.intra_p <= 1.0):
            raise ContractError("edge probabilities must lie in [0, 1]")
        if self.intra_p <= self.inter_p:
            raise ContractError("intra_p must exceed inter_p")
        if self.vocab_size < self.clusters:
            raise ContractError("vocab_size must be >= clusters")
        if self.tokens_per_node < 1:
            raise ContractError("tokens_per_node must be >= 1")
        if not (0.0 <= self.cluster_token_p <= 1.0):
            raise ContractError("cluster_token_p must lie in [0, 1]")


def _cluster_assignment(n: int, clusters: int) -> np.ndarray:
    sizes = [n // clusters + (1 if i < n % clusters else 0) for i in range(clusters)]
    return np.repeat(np.arange(clusters, dtype=np.int64), sizes)


def _block_edges(rng, cluster_a, cluster_b, intra_p, inter_p, same_type):
    src, dst = [], []
    clusters = int(cluster_a.max()) + 1
    for ci in range(clusters):
        rows = np.nonzero(cluster_a == ci)[0]
        for cj in range(clusters):
            cols = np.nonzero(cluster_b == cj)[0]
            p = intra_p if ci == cj else inter_p
            mask = rng.random((rows.size, cols.size)) < p
            if same_type and ci == cj:
                np.fill_diagonal(mask, False)
            r, c = np.nonzero(mask)
            src.append(rows[r])
            dst.append(cols[c])
    return np.concatenate(src), np.concatenate(dst)


def _split_assignment(rng, n: int) -> np.ndarray:
    """60/10/30 train/valid/test."""
    out = np.full(n, TEST, dtype=np.int64)
    perm = rng.permutation(n)
    n_train = int(round(n * 0.6))
    n_valid = int(round(n * 0.1))
    out[perm[:n_train]] = TRAIN
    out[perm[n_train:n_train + n_valid]] = VALID
    return out


def generate_synthetic(spec: SyntheticSpec) -> HeteroGraph:
    """Build a planted-cluster bipartite-plus-product graph with text and labels."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, c = spec.nodes_per_type, spec.clusters
    q_cluster = _cluster_assignment(n, c)
    p_cluster = _cluster_assignment(n, c)

    vocab = [f"w{i:03d}" for i in range(spec.vocab_size)]
    slice_bounds = np.linspace(0, spec.vocab_size, c + 1).astype(int)

    def node_text(cluster: int) -> str:
        lo, hi = slice_bounds[cluster], slice_bounds[cluster + 1]
        toks = []
        for _ in range(spec.tokens_per_node):
            if rng.random() < spec.cluster_token_p:
                toks.append(vocab[int(rng.integers(lo, hi))])
            else:
                toks.append(vocab[int(rng.integers(0, spec.vocab_size))])
        return " ".join(toks)

    texts = [[node_text(int(q_cluster[i])) for i in range(n)],
             [node_text(int(p_cluster[i])) for i in range(n)]]

    purchase_s, purchase_d = _block_edges(rng, q_cluster, p_cluster,
                                          spec.intra_p, spec.inter_p, same_type=False)
    related_s, related_d = _block_edges(rng, p_cluster, p_cluster,
                                        spec.intra_p, spec.inter_p, same_type=True)

    relations = [Relation("query", "purchase", "product"),
                 Relation("product", "related", "product")]
    edges = [(purchase_s, purchase_d), (related_s, related_d)]

    node_class_ids = [q_cluster.copy(), p_cluster.copy()]
    node_splits = [_split_assignment(rng, n), _split_assignment(rng, n)]

    edge_classes = (p_cluster[purchase_d] - q_cluster[purchase_s]) % c
    edge_labels = {0: EdgeLabelSet(0, purchase_s.copy(), purchase_d.copy(),
                                   edge_classes.astype(np.int64),
                                   _split_assignment(rng, purchase_s.size))}

    return HeteroGraph(["query", "product"], [n, n], texts, relations, edges,
                       node_class_ids, node_splits, edge_labels)


# --------------------------------------------------------------- ego batches


@dataclass
class Block:
    """One message-passing layer's bipartite slice.

    src_refs rows [:num_targets] are the block's targets (outputs); edges[mi]
    is a pair of local-position arrays (src_pos, dst_pos) for message relation
    mi, with dst_pos < num_targets.
    """

    src_refs: np.ndarray
    num_targets: int
    edges: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class EgoBatch:
    """Layered ego network around a target set.

    blocks[0] is applied first (widest); blocks[i] targets are exactly
    blocks[i+1] sources; the last block's targets are target_refs.
    expansion_slots counts targets plus every sampled neighbor slot before
    cross-layer dedup (each distinct node's neighborhood is sampled at most
    once and reused wherever the node reappears).
    """

    num_layers: int
    blocks: list[Block]
    target_refs: np.ndarray
    expansion_slots: int

    @property
    def source_refs(self) -> np.ndarray:
        return self.blocks[0].src_refs

    @property
    def num_sources(self) -> int:
        return int(self.blocks[0].src_refs.shape[0])

    def target_index(self, refs) -> np.ndarray:
        """Positions of refs among target_refs; unknown refs are a contract error."""
        refs = _as_ref_array(refs)
        # one int key per ref: type * width + local, -1 for negative refs
        width = int(max(self.target_refs[:, 1].max(), refs[:, 1].max(initial=0))) + 1
        keys = self.target_refs[:, 0] * width + self.target_refs[:, 1]
        query = np.where((refs >= 0).all(axis=1), refs[:, 0] * width + refs[:, 1], -1)
        order = np.argsort(keys)
        at = order[np.minimum(np.searchsorted(keys, query, sorter=order), keys.size - 1)]
        missing = np.flatnonzero(keys[at] != query)
        if missing.size:
            t, l = refs[missing[0]]
            raise ContractError(f"node {(int(t), int(l))} is not a target of this batch")
        return at


def _as_ref_array(targets) -> np.ndarray:
    if isinstance(targets, np.ndarray):
        arr = targets.astype(np.int64)
    else:
        rows = []
        for item in targets:
            if isinstance(item, NodeRef):
                rows.append((item.type_index, item.local_index))
            else:
                rows.append((int(item[0]), int(item[1])))
        arr = np.array(rows, dtype=np.int64) if rows else np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractError(f"node refs must be (B, 2), got {arr.shape}")
    return arr


def _normalize_fanouts(fanouts, num_msg_rels: int) -> list[int]:
    if isinstance(fanouts, (int, np.integer)):
        fan = [int(fanouts)] * num_msg_rels
    else:
        fan = [int(f) for f in fanouts]
        if len(fan) != num_msg_rels:
            raise ContractError(
                f"need {num_msg_rels} fanouts (one per message relation), got {len(fan)}")
    if any(f < 1 for f in fan):
        raise ContractError("fanouts must be positive")
    return fan


def _first_occurrences(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ids, in the order they first appear."""
    _, first = np.unique(ids, return_index=True)
    return ids[np.sort(first)]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + n) over the (s, n) pairs."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def sample_neighbors(graph: HeteroGraph, targets, fanouts, num_layers: int,
                     rng=0) -> EgoBatch:
    """Sample a layered ego network around targets, uniformly without
    replacement per (node, message relation), capped at the relation's fanout.

    Each distinct node is expanded at most once per batch; deeper layers reuse
    the same sampled neighborhood.  Block sources are ordered targets-first,
    then in order of first appearance among the targets' neighbors.

    RNG contract: the only draws are rng.choice(neighbors, fanout,
    replace=False), one per (node, message relation) pair whose degree
    exceeds the fanout.  Nodes are expanded layer by layer, each layer in
    order of first discovery, and a node's relations in message-relation
    order; a pair at or under its fanout takes all its neighbors in
    msg_neighbors order and draws nothing.  A given rng state therefore
    fixes the batch, and the state it is left in.
    """
    rng = _as_rng(rng)
    refs = _as_ref_array(targets)
    if refs.shape[0] == 0:
        raise ContractError("sample_neighbors needs at least one target")
    if num_layers < 1:
        raise ContractError("num_layers must be >= 1")
    mrels = graph.message_relations
    fan = np.array(_normalize_fanouts(fanouts, len(mrels)), dtype=np.int64)
    types, locals_ = refs[:, 0], refs[:, 1]
    bad_type = (types < 0) | (types >= len(graph.node_types))
    sizes = np.array(graph.node_counts, dtype=np.int64)[np.where(bad_type, 0, types)]
    bad = np.flatnonzero(bad_type | (locals_ < 0) | (locals_ >= sizes))
    if bad.size:
        t, l = int(types[bad[0]]), int(locals_[bad[0]])
        if bad_type[bad[0]]:
            raise ContractError(f"target type index {t} out of range")
        raise ContractError(f"target ({graph.node_types[t]}, {l}) out of range")

    # Work on global ids.  A node's expansion is one contiguous row of
    # (neighbor, message relation) pairs in the flat table, row-major over
    # its relations; expand_start marks the expanded nodes.
    adj = graph.message_adjacency()
    num_rels = len(mrels)
    offsets = graph.type_offsets
    target_ids = _first_occurrences(offsets[types] + locals_)
    expand_start = np.full(graph.total_nodes, -1, dtype=np.int64)
    expand_len = np.zeros(graph.total_nodes, dtype=np.int64)
    table_nbrs: list[np.ndarray] = []
    table_rels: list[np.ndarray] = []
    table_size = 0
    frontier = target_ids
    for _ in range(num_layers):
        frontier = frontier[expand_start[frontier] < 0]
        if frontier.size == 0:
            break
        cells = (frontier[:, None] * num_rels + np.arange(num_rels)).ravel()
        starts = adj.offsets[cells]
        degree = adj.offsets[cells + 1] - starts
        cell_fan = np.tile(fan, frontier.size)
        taken = np.minimum(degree, cell_fan)
        nbrs = adj.targets[_ranges(starts, taken)]
        ends = np.cumsum(taken)
        # the RNG contract: one draw per over-fanout cell, row-major
        for c in np.flatnonzero(degree > cell_fan).tolist():
            s = starts[c]
            nbrs[ends[c] - taken[c]:ends[c]] = rng.choice(
                adj.targets[s:s + degree[c]], size=int(taken[c]), replace=False)
        per_node = taken.reshape(-1, num_rels).sum(axis=1)
        expand_len[frontier] = per_node
        expand_start[frontier] = table_size + np.cumsum(per_node) - per_node
        table_nbrs.append(nbrs)
        table_rels.append(np.repeat(np.tile(np.arange(num_rels), frontier.size), taken))
        table_size += nbrs.size
        frontier = _first_occurrences(nbrs)
    all_nbrs = np.concatenate(table_nbrs) if table_nbrs else _EMPTY
    all_rels = np.concatenate(table_rels) if table_rels else _EMPTY

    def refs_of(ids: np.ndarray) -> np.ndarray:
        t = np.searchsorted(offsets, ids, side="right") - 1
        return np.stack([t, ids - offsets[t]], axis=1)

    local_of = np.full(graph.total_nodes, -1, dtype=np.int64)
    blocks_rev: list[Block] = []
    tgt = target_ids
    for _ in range(num_layers):
        row = _ranges(expand_start[tgt], expand_len[tgt])
        nbrs, rels = all_nbrs[row], all_rels[row]
        dst = np.repeat(np.arange(tgt.size), expand_len[tgt])
        local_of[tgt] = np.arange(tgt.size)
        fresh = _first_occurrences(nbrs[local_of[nbrs] < 0])
        local_of[fresh] = tgt.size + np.arange(fresh.size)
        src = local_of[nbrs]
        src_order = np.concatenate([tgt, fresh])
        local_of[src_order] = -1
        edges = [(src[rels == mi], dst[rels == mi]) for mi in range(num_rels)]
        blocks_rev.append(Block(refs_of(src_order), tgt.size, edges))
        tgt = src_order

    # slots: the targets plus every sampled neighbor, before any dedup
    return EgoBatch(num_layers, list(reversed(blocks_rev)), refs_of(target_ids),
                    int(target_ids.size + all_nbrs.size))


# -------------------------------------------------------------- partitioning


@dataclass
class PartitionMap:
    """Two-level layout: leaf per global node, leaves paired into groups."""

    num_leaves: int
    leaf_of: np.ndarray
    group_of_leaf: np.ndarray


def _bfs_distances(adj: Csr, start: int, n: int) -> np.ndarray:
    dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj.neighbors(u).tolist():
            if dist[v] > du + 1:
                dist[v] = du + 1
                queue.append(v)
    return dist


def assign_partitions(graph: HeteroGraph, num_leaves: int, rng=0) -> PartitionMap:
    """Balanced BFS region growing from spread seeds; leaf sizes differ by <= 1.

    Seeds are picked farthest-first on the union adjacency; regions then grow
    breadth-first, always extending the currently smallest leaf, falling back
    to the lowest-index unassigned node when a leaf's frontier dries up.
    """
    n = graph.total_nodes
    if not 2 <= num_leaves <= n:
        raise ContractError(f"num_leaves must be in [2, {n}], got {num_leaves}")
    rng = _as_rng(rng)
    adj = graph.union_adjacency()

    seeds = [int(rng.integers(n))]
    dist = _bfs_distances(adj, seeds[0], n)
    while len(seeds) < num_leaves:
        far = int(np.argmax(dist))  # unreached nodes hold int64 max
        seeds.append(far)
        dist = np.minimum(dist, _bfs_distances(adj, far, n))

    leaf_of = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_leaves, dtype=np.int64)
    queues = [deque([s]) for s in seeds]
    unassigned_cursor = 0
    assigned = 0
    while assigned < n:
        leaf = int(np.argmin(sizes))
        node = -1
        q = queues[leaf]
        while q:
            cand = q.popleft()
            if leaf_of[cand] == -1:
                node = cand
                break
        if node == -1:
            while leaf_of[unassigned_cursor] != -1:
                unassigned_cursor += 1
            node = unassigned_cursor
        leaf_of[node] = leaf
        sizes[leaf] += 1
        assigned += 1
        for v in adj.neighbors(node).tolist():
            if leaf_of[v] == -1:
                q.append(v)
    group_of_leaf = np.arange(num_leaves, dtype=np.int64) // 2
    return PartitionMap(num_leaves, leaf_of, group_of_leaf)


# ----------------------------------------------------------- target sampling


@dataclass
class TargetSample:
    """One training batch's targets: nodes for the node task, (rel, src, dst)
    triples otherwise.  with_replacement flags a pool smaller than the batch."""

    kind: str
    node_refs: np.ndarray | None = None
    node_classes: np.ndarray | None = None
    edge_rels: np.ndarray | None = None
    edge_srcs: np.ndarray | None = None
    edge_dsts: np.ndarray | None = None
    edge_classes: np.ndarray | None = None
    with_replacement: bool = False
    leaf: int | None = None


def _train_pool(graph: HeteroGraph, task: str):
    key = ("pool", task)
    cached = graph._cache.get(key)
    if cached is not None:
        return cached
    if task == "node":
        refs, classes = graph.node_label_rows(TRAIN)
        cached = ("nodes", refs, classes)
    elif task == "edge":
        ri = graph.designated_relation
        if ri is None:
            raise ContractError("edge task needs edge labels")
        s, d, c = graph.edge_label_rows(TRAIN)
        cached = ("edges", np.full(s.size, ri, dtype=np.int64), s, d, c)
    elif task == "link":
        rels, s, d = graph.link_edges(TRAIN)
        cached = ("edges", rels, s, d, None)
    else:
        raise ContractError(f"unknown task '{task}'")
    graph._cache[key] = cached
    return cached


def _pool_leaf_ids(graph: HeteroGraph, pool, pmap: PartitionMap) -> np.ndarray:
    """Leaf of each pool entry: the node itself, or an edge's src endpoint."""
    if pool[0] == "nodes":
        refs = pool[1]
        gidx = graph.type_offsets[refs[:, 0]] + refs[:, 1]
    else:
        rels, srcs = pool[1], pool[2]
        src_types = np.array(
            [graph.type_index(r.src_type) for r in graph.relations], dtype=np.int64)
        gidx = graph.type_offsets[src_types[rels]] + srcs
    return pmap.leaf_of[gidx]


def sample_targets(graph: HeteroGraph, task: str, batch_size: int,
                   mode: str = "global", partition_map: PartitionMap | None = None,
                   rng=0) -> TargetSample:
    """Draw a training batch of targets.

    global mode samples uniformly over the whole train pool, without
    replacement whenever the pool is large enough (batch == pool size gives a
    permutation).  partition_local picks one leaf uniformly, then samples
    within it; undersized pools fall back to replacement and are flagged.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    if mode not in ("global", "partition_local"):
        raise ContractError(f"unknown target mode '{mode}'")
    rng = _as_rng(rng)
    pool = _train_pool(graph, task)
    pool_size = pool[1].shape[0]
    if pool_size == 0:
        raise ContractError(f"no train targets for task '{task}'")

    leaf = None
    if mode == "partition_local":
        if partition_map is None:
            raise ContractError("partition_local mode needs a partition map")
        leaf_ids = _pool_leaf_ids(graph, pool, partition_map)
        order = rng.permutation(partition_map.num_leaves)
        candidate = None
        for lf in order.tolist():
            idx = np.nonzero(leaf_ids == lf)[0]
            if idx.size:
                candidate = (lf, idx)
                break
        if candidate is None:
            raise ContractError("every partition leaf is empty of train targets")
        leaf, idx = candidate
    else:
        idx = np.arange(pool_size)

    with_replacement = idx.size < batch_size
    chosen = rng.choice(idx, size=batch_size, replace=with_replacement)

    if pool[0] == "nodes":
        refs, classes = pool[1], pool[2]
        return TargetSample("nodes", node_refs=refs[chosen],
                            node_classes=classes[chosen],
                            with_replacement=with_replacement, leaf=leaf)
    rels, srcs, dsts, classes = pool[1], pool[2], pool[3], pool[4]
    return TargetSample("edges", edge_rels=rels[chosen], edge_srcs=srcs[chosen],
                        edge_dsts=dsts[chosen],
                        edge_classes=None if classes is None else classes[chosen],
                        with_replacement=with_replacement, leaf=leaf)
