"""Heterogeneous graph store and samplers.

A graph has typed node sets (dense 0-based local ids per type), optional text
per node, directed typed relations, optional node labels and optional edge
labels on one designated relation, each row carrying a train/valid/test split
tag.  Message passing sees every base relation in both directions, so a graph
with R relations exposes 2R message relations: 2r carries relation r's edges
src -> dst and 2r + 1 carries them dst -> src.  One CSR over global node ids
(message_adjacency) holds every message relation; the sampler, neighbor
queries, eval-negative filtering and partitioning all read it.

On-disk format is a directory of TSV files: nodes.tsv, edges.tsv, and the
optional node_labels.tsv / edge_labels.tsv.  Every file starts with its
header row (TSV_COLUMNS), which the loader checks.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, LoadError

SPLIT_NAMES = ("train", "valid", "test")
TARGET_MODES = ("global", "partition_local")
TRAIN, VALID, TEST = 0, 1, 2

_EMPTY = np.empty(0, dtype=np.int64)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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
    """In-memory graph: node sets, text, relations, labels, and one lazily
    built CSR over global ids covering every message relation.

    relation_types[r] is relation r's (src type, dst type) index pair.
    """

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
        self.relation_types = np.array(
            [(self.type_index(r.src_type), self.type_index(r.dst_type))
             for r in self.relations], dtype=np.int64).reshape(-1, 2)
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
        self.message_relations: list[MessageRelation] = []
        for ri, (rel, (si, di)) in enumerate(zip(self.relations,
                                                  self.relation_types.tolist())):
            self.message_relations.append(MessageRelation(ri, False, rel.name, si, di))
            self.message_relations.append(
                MessageRelation(ri, True, rel.name + "-rev", di, si))
        self.type_offsets = np.zeros(len(self.node_types) + 1, dtype=np.int64)
        np.cumsum(self.node_counts, out=self.type_offsets[1:])
        self._cache: dict = {}

    # ------------------------------------------------------------ structure

    def _validate(self):
        for i, (t, c) in enumerate(zip(self.node_types, self.node_counts)):
            if c < 0:
                raise ContractError(f"negative node count for type '{t}'")
            if len(self.texts[i]) != c:
                raise ContractError(f"type '{t}': {len(self.texts[i])} texts for {c} nodes")
        for r, (src, dst), (si, di) in zip(self.relations, self.edges,
                                           self.relation_types.tolist()):
            for arr, bound, side in ((src, self.node_counts[si], "src"),
                                     (dst, self.node_counts[di], "dst")):
                if arr.size and (arr.min() < 0 or arr.max() >= bound):
                    raise ContractError(
                        f"relation {r.key()}: {side} id out of range [0, {bound})")
        for ri, labels in self.edge_labels.items():
            if not 0 <= ri < len(self.relations):
                raise ContractError(f"edge labels for unknown relation index {ri}")

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

    def has_text(self, type_index: int) -> bool:
        return bool(self.type_has_text[type_index])

    def msg_neighbors(self, msg_rel_index: int, local_index: int) -> np.ndarray:
        """Local ids sending messages to `local_index` under one message
        relation, in edge order."""
        mr = self.message_relations[msg_rel_index]
        g = int(self.type_offsets[mr.dst_type]) + int(local_index)
        cell = g * len(self.message_relations) + msg_rel_index
        return self.message_adjacency().neighbors(cell) - self.type_offsets[mr.src_type]

    def tails(self, relation_index: int, head: int) -> np.ndarray:
        """Tail ids of relation `relation_index`'s edges from `head`, in edge order."""
        return self.msg_neighbors(2 * relation_index + 1, head)

    def message_adjacency(self) -> Csr:
        """Every message relation in one CSR over global ids: the senders to
        global node g under message relation mi are neighbors(g * M + mi),
        M = len(message_relations), in edge order."""
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


# ----------------------------------------------------------------- file IO


# every file's header line; save_graph writes it and load_graph checks it
TSV_COLUMNS = {
    "nodes.tsv": ("node_type", "local_id", "text"),
    "edges.tsv": ("src_type", "src_id", "relation", "dst_type", "dst_id"),
    "node_labels.tsv": ("node_type", "local_id", "class_id", "split"),
    "edge_labels.tsv": ("src_type", "src_id", "relation", "dst_type", "dst_id",
                        "class_id", "split"),
}


def _read_tsv(path: Path):
    """Yield (line_number, fields) rows after a checked header line; the
    field count is the header's."""
    columns = TSV_COLUMNS[path.name]
    header = "\t".join(columns)
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != header:
            raise LoadError(f"{path}:1: expected the header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(columns):
                raise LoadError(
                    f"{path}:{lineno}: expected {len(columns)} tab-separated "
                    f"fields, got {len(fields)}")
            yield lineno, fields


@contextmanager
def _create_tsv(path: Path):
    """A file open for writing, its header line already written."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TSV_COLUMNS[path.name]) + "\n")
        yield fh


def _parse_int(path: Path, lineno: int, value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise LoadError(f"{path}:{lineno}: {what} is not an integer: {value!r}") from None


def _parse_class(path: Path, lineno: int, value: str) -> int:
    cls = _parse_int(path, lineno, value, "class_id")
    if not 0 <= cls < 2 ** 63:  # stored as int64
        raise LoadError(f"{path}:{lineno}: class_id must be >= 0 and < 2**63, "
                        f"got {cls}")
    return cls


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
    for lineno, (tname, lid, text) in _read_tsv(nodes_path):
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
    for lineno, (st, sid, rname, dt, did) in _read_tsv(edges_path):
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
        for lineno, (tname, lid, cid, split) in _read_tsv(nl_path):
            if tname not in type_index:
                raise LoadError(f"{nl_path}:{lineno}: unknown node type '{tname}'")
            ti = type_index[tname]
            local = _parse_int(nl_path, lineno, lid, "local_id")
            if not 0 <= local < node_counts[ti]:
                raise LoadError(f"{nl_path}:{lineno}: node id {local} out of range")
            cls = _parse_class(nl_path, lineno, cid)
            if node_class_ids[ti][local] != -1:
                raise LoadError(f"{nl_path}:{lineno}: duplicate label for {tname}/{local}")
            node_class_ids[ti][local] = cls
            node_splits[ti][local] = _parse_split(nl_path, lineno, split)

    edge_labels: dict[int, EdgeLabelSet] = {}
    el_path = d / "edge_labels.tsv"
    if el_path.exists():
        rows: dict[int, list] = {}
        for lineno, (st, sid, rname, dt, did, cid, split) in _read_tsv(el_path):
            key = (st, rname, dt)
            if key not in rel_index:
                raise LoadError(f"{el_path}:{lineno}: unknown relation {key}")
            ri = rel_index[key]
            s = _parse_int(el_path, lineno, sid, "src_id")
            t_ = _parse_int(el_path, lineno, did, "dst_id")
            cls = _parse_class(el_path, lineno, cid)
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
    with _create_tsv(d / "nodes.tsv") as fh:
        for ti, tname in enumerate(graph.node_types):
            for i in range(graph.node_counts[ti]):
                text = graph.texts[ti][i]
                if "\t" in text or "\n" in text:
                    raise ContractError(f"node {tname}/{i}: text contains tab or newline")
                fh.write(f"{tname}\t{i}\t{text}\n")
    with _create_tsv(d / "edges.tsv") as fh:
        for rel, (src, dst) in zip(graph.relations, graph.edges):
            for s, t in zip(src.tolist(), dst.tolist()):
                fh.write(f"{rel.src_type}\t{s}\t{rel.name}\t{rel.dst_type}\t{t}\n")
    with _create_tsv(d / "node_labels.tsv") as fh:
        for ti, tname in enumerate(graph.node_types):
            classes = graph.node_class_ids[ti]
            splits = graph.node_splits[ti]
            for i in np.nonzero(classes >= 0)[0].tolist():
                fh.write(f"{tname}\t{i}\t{classes[i]}\t{SPLIT_NAMES[splits[i]]}\n")
    with _create_tsv(d / "edge_labels.tsv") as fh:
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
        c, big = self.clusters, 2 ** 63  # seed alone has no upper bound
        for name, what, ok in (
                ("seed", ">= 0", self.seed >= 0),
                ("clusters", ">= 2 and < 2**63", 2 <= c < big),
                ("nodes_per_type", ">= clusters and < 2**63",
                 c <= self.nodes_per_type < big),
                ("inter_p", "in [0, 1]", 0.0 <= self.inter_p <= 1.0),
                ("intra_p", "in (inter_p, 1]", self.inter_p < self.intra_p <= 1.0),
                ("vocab_size", ">= clusters and < 2**63",
                 c <= self.vocab_size < big),
                ("tokens_per_node", ">= 1 and < 2**63",
                 1 <= self.tokens_per_node < big),
                ("cluster_token_p", "in [0, 1]", 0.0 <= self.cluster_token_p <= 1.0)):
            if not ok:
                raise ContractError(
                    f"'{name}' must be {what}, got {getattr(self, name)}")


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
        rows = [(int(item[0]), int(item[1])) for item in targets]
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
    if any(not 1 <= f < 2 ** 63 for f in fan):
        raise ContractError(f"fanouts must be positive and < 2**63, got {fan}")
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

    # Work on global ids in one walk over the layers.  Layer l expands the
    # nodes first seen in layer l - 1 (the targets at l = 0), then builds the
    # block whose targets are every node seen so far.  Every neighbor of a
    # node expanded earlier is already one of those targets, so the block's
    # new sources are exactly the next layer's nodes to expand, and its edges
    # extend the previous block's: positions never move (local_of).
    adj = graph.message_adjacency()
    num_rels = len(mrels)
    offsets = graph.type_offsets

    def refs_of(ids: np.ndarray) -> np.ndarray:
        t = np.searchsorted(offsets, ids, side="right") - 1
        return np.stack([t, ids - offsets[t]], axis=1)

    target_ids = _first_occurrences(offsets[types] + locals_)
    local_of = np.full(graph.total_nodes, -1, dtype=np.int64)
    local_of[target_ids] = np.arange(target_ids.size)
    seen, frontier = target_ids, target_ids
    edges = [(_EMPTY, _EMPTY)] * num_rels
    blocks_rev: list[Block] = []
    slots = target_ids.size  # the targets plus every sampled neighbor
    for _ in range(num_layers):
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
        rels = np.repeat(np.tile(np.arange(num_rels), frontier.size), taken)
        dst = np.repeat(np.arange(seen.size - frontier.size, seen.size),
                        taken.reshape(-1, num_rels).sum(axis=1))
        frontier = _first_occurrences(nbrs[local_of[nbrs] < 0])
        local_of[frontier] = seen.size + np.arange(frontier.size)
        src = local_of[nbrs]
        edges = [(np.concatenate([s, src[rels == mi]]),
                  np.concatenate([d, dst[rels == mi]]))
                 for mi, (s, d) in enumerate(edges)]
        num_targets, seen = seen.size, np.concatenate([seen, frontier])
        blocks_rev.append(Block(refs_of(seen), num_targets, edges))
        slots += nbrs.size

    return EgoBatch(num_layers, list(reversed(blocks_rev)), refs_of(target_ids),
                    slots)


# -------------------------------------------------------------- partitioning


@dataclass
class PartitionMap:
    """Two-level layout: leaf per global node, leaves paired into groups."""

    num_leaves: int
    leaf_of: np.ndarray
    group_of_leaf: np.ndarray


def _union_neighbors(graph: HeteroGraph) -> Csr:
    """Every node's neighbors over all relations, either direction, on global
    ids: per relation r its out-edges' tails (message relation 2r + 1), then
    its in-edges' heads (2r), each in edge order.  It permutes the message
    CSR's cells within each node's contiguous row."""
    adj = graph.message_adjacency()
    m = len(graph.message_relations)
    cells = (np.arange(graph.total_nodes)[:, None] * m + (np.arange(m) ^ 1)).ravel()
    starts = adj.offsets[cells]
    targets = adj.targets[_ranges(starts, adj.offsets[cells + 1] - starts)]
    return Csr(adj.offsets[np.arange(graph.total_nodes + 1) * m], targets)


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
    adj = _union_neighbors(graph)

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
    """One training batch's targets, or a pool to draw batches from: nodes
    for the node task, (rel, src, dst) triples otherwise.  with_replacement
    flags a batch drawn from a pool smaller than itself."""

    kind: str
    node_refs: np.ndarray | None = None
    node_classes: np.ndarray | None = None
    edge_rels: np.ndarray | None = None
    edge_srcs: np.ndarray | None = None
    edge_dsts: np.ndarray | None = None
    edge_classes: np.ndarray | None = None
    with_replacement: bool = False
    leaf: int | None = None

    def __len__(self):
        return len(self.node_refs if self.kind == "nodes" else self.edge_rels)

    def take(self, rows, **flags) -> "TargetSample":
        """The targets at rows (indices or a mask), with the given flags."""
        arrays = {name: value[rows] for name, value in vars(self).items()
                  if isinstance(value, np.ndarray)}
        return replace(self, **arrays, **flags)


def _train_pool(graph: HeteroGraph, task: str) -> TargetSample:
    key = ("pool", task)
    cached = graph._cache.get(key)
    if cached is not None:
        return cached
    if task == "node":
        refs, classes = graph.node_label_rows(TRAIN)
        cached = TargetSample("nodes", node_refs=refs, node_classes=classes)
    elif task == "edge":
        ri = graph.designated_relation
        if ri is None:
            raise ContractError("edge task needs edge labels")
        s, d, c = graph.edge_label_rows(TRAIN)
        cached = TargetSample("edges", edge_rels=np.full(s.size, ri, dtype=np.int64),
                              edge_srcs=s, edge_dsts=d, edge_classes=c)
    elif task == "link":
        rels, s, d = graph.link_edges(TRAIN)
        cached = TargetSample("edges", edge_rels=rels, edge_srcs=s, edge_dsts=d)
    else:
        raise ContractError(f"unknown task '{task}'")
    graph._cache[key] = cached
    return cached


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
    if mode not in TARGET_MODES:
        raise ContractError(f"unknown target mode '{mode}'")
    rng = _as_rng(rng)
    pool = _train_pool(graph, task)
    if len(pool) == 0:
        raise ContractError(f"no train targets for task '{task}'")

    leaf = None
    if mode == "partition_local":
        if partition_map is None:
            raise ContractError("partition_local mode needs a partition map")
        # a node target's leaf is its own, an edge target's its src endpoint's
        if pool.kind == "nodes":
            types, locals_ = pool.node_refs[:, 0], pool.node_refs[:, 1]
        else:
            types, locals_ = graph.relation_types[pool.edge_rels, 0], pool.edge_srcs
        leaf_ids = partition_map.leaf_of[graph.type_offsets[types] + locals_]
        order = rng.permutation(partition_map.num_leaves)
        held = np.isin(order, leaf_ids)
        if not held.any():
            raise ContractError("every partition leaf is empty of train targets")
        leaf = int(order[held.argmax()])
        idx = np.nonzero(leaf_ids == leaf)[0]
    else:
        idx = np.arange(len(pool))

    with_replacement = idx.size < batch_size
    chosen = rng.choice(idx, size=batch_size, replace=with_replacement)
    return pool.take(chosen, with_replacement=with_replacement, leaf=leaf)
