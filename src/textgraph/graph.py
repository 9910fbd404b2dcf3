"""Heterogeneous graph store and samplers.

A graph has typed node sets (dense 0-based local ids per type), optional text
per node, directed typed relations, optional node labels and optional edge
labels on one designated relation, each row carrying a train/valid/test split
tag.  Message passing sees every base relation in both directions, so a graph
with R relations exposes 2R message relations: 2r carries relation r's edges
src -> dst and 2r + 1 carries them dst -> src.  One CSR over global node ids
(message_adjacency) holds every message relation; the sampler, neighbor
queries, eval-negative filtering and partitioning all read it.  Global id
g of node (type t, local l) is type_offsets[t] + l; graph.refs[g] is that
(t, l) pair.

task_targets is the one rule for which rows a task uses on a split: train
pools, batches and evals all read it.

On-disk format is a directory of TSV files: nodes.tsv, edges.tsv, and the
optional node_labels.tsv / edge_labels.tsv.  TSV_COLUMNS gives each file's
columns, which are also its header row, and _COLUMN_PARSERS the parser of
each id, class and split column.  The loader parses each file a column at a
time; when a check fails, the line parser reads the files again by these
tables, so each load error names its file and line.
Each edges.tsv line is one edge, a repeated line included, and a graph may
have no edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ContractError, LoadError

SPLIT_NAMES = ("train", "valid", "test")
TARGET_MODES = ("global", "partition_local")
TRAIN, VALID, TEST = 0, 1, 2

_EMPTY = np.empty(0, dtype=np.int64)


class _NoDraw:
    """Stands in for a Generator where every drawn value is overwritten
    next: normal() allocates zeros of the asked shape and draws nothing."""

    def normal(self, size):
        return np.zeros(size)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, (np.random.Generator, _NoDraw)):
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

    relation_types[r] is relation r's (src type, dst type) index pair;
    refs[g] is global node g's (type, local) pair, read-only.
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
        self.type_has_text = np.array([any(rows) for rows in self.texts],
                                      dtype=bool)  # some text is not ""
        self.message_relations: list[MessageRelation] = []
        for ri, (rel, (si, di)) in enumerate(zip(self.relations,
                                                  self.relation_types.tolist())):
            self.message_relations.append(MessageRelation(ri, False, rel.name, si, di))
            self.message_relations.append(
                MessageRelation(ri, True, rel.name + "-rev", di, si))
        self.type_offsets = np.zeros(len(self.node_types) + 1, dtype=np.int64)
        np.cumsum(self.node_counts, out=self.type_offsets[1:])
        types = np.repeat(np.arange(len(self.node_types), dtype=np.int64),
                          self.node_counts)
        self.refs = np.stack([types, np.arange(types.size, dtype=np.int64)
                              - self.type_offsets[types]], axis=1)
        self.refs.flags.writeable = False
        self._cache: dict = {}  # key -> (owner, value), see kept()

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
        for t, c, classes, splits in zip(self.node_types, self.node_counts,
                                         self.node_class_ids, self.node_splits):
            if len(classes) != c or len(splits) != c:
                raise ContractError(f"type '{t}': {len(classes)} class ids and "
                                    f"{len(splits)} splits for {c} nodes")
            bad = np.flatnonzero((classes >= 0) & ((splits < 0) | (splits > TEST)))
            if bad.size:
                raise ContractError(f"node {t}/{bad[0]}: labeled, but split "
                                    f"{splits[bad[0]]} is not 0, 1 or 2")
        for ri, labels in self.edge_labels.items():
            if not 0 <= ri < len(self.relations):
                raise ContractError(f"edge labels for unknown relation index {ri}")
            self._validate_edge_labels(ri, labels)

    def _validate_edge_labels(self, ri: int, labels: EdgeLabelSet):
        """Each row of one relation's edge labels names an edge of that
        relation, no row repeats another, and each has a split of 0, 1 or 2."""
        key = self.relations[ri].key()
        columns = (labels.src, labels.dst, labels.class_ids, labels.splits)
        if {c.shape for c in columns} != {(labels.src.size,)}:
            raise ContractError(f"edge labels {key}: src, dst, class_ids and "
                                f"splits must be 1-D of one length, got shapes "
                                f"{[c.shape for c in columns]}")

        def fail(i, why):
            raise ContractError(f"edge label {key} ({labels.src[i]}, "
                                f"{labels.dst[i]}): {why}")

        ns, nd = (self.node_counts[t] for t in self.relation_types[ri].tolist())
        src, dst = self.edges[ri]
        # one int64 code per (src, dst) pair, distinct while ns * nd < 2**63
        # (unless both types hold over 3e9 nodes); -1 for ids out of range
        codes = labels.src.astype(np.int64) * nd + labels.dst
        codes[(labels.src < 0) | (labels.src >= ns)
              | (labels.dst < 0) | (labels.dst >= nd)] = -1
        edges = np.sort(src * nd + dst)
        at = np.searchsorted(edges, codes)
        found = at < edges.size
        found[found] = edges[at[found]] == codes[found]
        if not found.all():
            fail(found.argmin(), "not an edge of the relation")
        order = np.argsort(codes, kind="stable")
        repeats = order[1:][np.diff(codes[order]) == 0]
        if repeats.size:
            fail(repeats.min(), "repeated")
        bad = np.flatnonzero((labels.splits < 0) | (labels.splits > TEST))
        if bad.size:
            fail(bad[0], f"split {labels.splits[bad[0]]} is not 0, 1 or 2")

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

    def kept(self, key, build, owner=None):
        """build(), kept under key for the owner that asked: a call with an
        equal owner gets the kept value, any other owner a fresh build() kept
        in its place.  What derives from the graph alone has owner None."""
        entry = self._cache.get(key)
        if entry is not None and entry[0] == owner:
            return entry[1]
        value = build()
        self._cache[key] = (owner, value)
        return value

    def message_adjacency(self) -> Csr:
        """Every message relation in one CSR over global ids: the senders to
        global node g under message relation mi are neighbors(g * M + mi),
        M = len(message_relations), in edge order."""
        return self.kept("messages", self._message_csr)

    def _message_csr(self) -> Csr:
        m = len(self.message_relations)
        keys, vals = [], []
        for mi, mr in enumerate(self.message_relations):
            src, dst = self.edges[mr.relation_index]
            if mr.reverse:
                src, dst = dst, src
            keys.append((dst + self.type_offsets[mr.dst_type]) * m + mi)
            vals.append(src + self.type_offsets[mr.src_type])
        return Csr.from_edges(np.concatenate(keys) if keys else _EMPTY,
                              np.concatenate(vals) if vals else _EMPTY,
                              self.total_nodes * m)

    # --------------------------------------------------------------- labels

    @property
    def designated_relation(self) -> int | None:
        """The edge-labeled relation (lowest index when several carry labels)."""
        return min(self.edge_labels) if self.edge_labels else None

    def node_label_rows(self, split: int):
        """(refs (M,2), class_ids) of labeled nodes in a split, in global-id
        order."""
        mask = np.concatenate([_EMPTY, *self.node_splits]) == split
        return self.refs[mask], np.concatenate([_EMPTY, *self.node_class_ids])[mask]

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


# The on-disk format: each file's columns, which are also its header line,
# and (_COLUMN_PARSERS) the parser of every column that holds no name or
# text.  save_graph writes the headers; load_graph checks them and parses
# every line's fields.
TSV_COLUMNS = {
    "nodes.tsv": ("node_type", "local_id", "text"),
    "edges.tsv": ("src_type", "src_id", "relation", "dst_type", "dst_id"),
    "node_labels.tsv": ("node_type", "local_id", "class_id", "split"),
    "edge_labels.tsv": ("src_type", "src_id", "relation", "dst_type", "dst_id",
                        "class_id", "split"),
}


def _int(value: str) -> int:
    """An optional "-" and ASCII digits, nothing else: int() alone would
    also take spaces, a "+", "_" between digits and non-ASCII digits."""
    if value.isascii() and value.isdigit():
        return int(value)
    digits = value[1:] if value[:1] == "-" else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(value)
    return int(value)


def _class_id(value: str) -> int:
    cls = _int(value)
    if not 0 <= cls < 2 ** 63:  # stored as int64
        raise ValueError(value)
    return cls


# a parser raises ValueError on a field it rejects; _field_error says why
_COLUMN_PARSERS = {"local_id": _int, "src_id": _int, "dst_id": _int,
                   "class_id": _class_id, "split": SPLIT_NAMES.index}


def _field_error(column: str, value: str) -> str:
    if column == "split":
        return f"split must be one of {SPLIT_NAMES}, got {value!r}"
    try:
        number = _int(value)
    except ValueError:
        return f"{column} is not an integer: {value!r}"
    return f"{column} must be >= 0 and < 2**63, got {number}"


def read_text(path) -> str:
    """A file's text, decoded as UTF-8 with universal newlines: "\\r\\n" and
    "\\r" read as "\\n".  An undecodable byte raises LoadError naming its
    line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise LoadError(f"{path}:{line}: not UTF-8 text ({e.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_tsv(path: Path, add_row) -> None:
    """Check the header line, then call add_row(*fields) on every non-empty
    line, each field parsed by its column's _COLUMN_PARSERS entry (the rest
    stay strings).  A wrong field count, a field its parser rejects and a
    LoadError from add_row raise LoadError naming the file and line."""
    columns = TSV_COLUMNS[path.name]
    parsers = [(i, _COLUMN_PARSERS[c]) for i, c in enumerate(columns)
               if c in _COLUMN_PARSERS]
    header = "\t".join(columns)
    first, *lines = read_text(path).split("\n")
    if first != header:
        raise LoadError(f"{path}:1: expected the header {header!r}")
    try:
        for lineno, line in enumerate(lines, start=2):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(columns):
                raise LoadError(f"expected {len(columns)} tab-separated "
                                f"fields, got {len(fields)}")
            for i, parse in parsers:
                try:
                    fields[i] = parse(fields[i])
                except ValueError:
                    raise LoadError(_field_error(columns[i], fields[i])) from None
            add_row(*fields)
    except LoadError as e:
        raise LoadError(f"{path}:{lineno}: {e}") from None


def _load_graph_by_line(d: Path) -> HeteroGraph:
    """load_graph's result, each file parsed a line at a time: the one source
    of every LoadError message that names a rule."""
    texts_of: dict[str, dict[int, str]] = {}  # types in order of first use

    def add_node(tname, local, text):
        bucket = texts_of.setdefault(tname, {})
        if local in bucket:
            raise LoadError(f"duplicate node {tname}/{local}")
        bucket[local] = text

    _read_tsv(d / "nodes.tsv", add_node)
    for tname, bucket in texts_of.items():
        if sorted(bucket) != list(range(len(bucket))):
            raise LoadError(f"{d / 'nodes.tsv'}: type '{tname}' ids must be "
                            f"dense 0..{len(bucket) - 1}")
    texts = [[bucket[i] for i in range(len(bucket))] for bucket in texts_of.values()]
    node_counts = [len(rows) for rows in texts]
    type_index = {t: i for i, t in enumerate(texts_of)}

    def node(tname, local, column) -> int:
        """The type index of node tname/local, which must exist."""
        ti = type_index.get(tname)
        if ti is None:
            raise LoadError(f"unknown node type '{tname}'")
        if not 0 <= local < node_counts[ti]:
            raise LoadError(f"{column} {local} out of range for type '{tname}'")
        return ti

    edges_of: dict[tuple, tuple[list, list]] = {}  # relations in order of first use

    def add_edge(st, s, rname, dt, t):
        node(st, s, "src_id")
        node(dt, t, "dst_id")
        pairs = edges_of.get((st, rname, dt))
        if pairs is None:
            pairs = edges_of[st, rname, dt] = ([], [])
        pairs[0].append(s)
        pairs[1].append(t)

    _read_tsv(d / "edges.tsv", add_edge)
    rel_index = {key: ri for ri, key in enumerate(edges_of)}

    node_class_ids = [np.full(c, -1, dtype=np.int64) for c in node_counts]
    node_splits = [np.full(c, -1, dtype=np.int64) for c in node_counts]

    def add_node_label(tname, local, cls, split):
        ti = node(tname, local, "local_id")
        if node_class_ids[ti][local] != -1:
            raise LoadError(f"duplicate label for {tname}/{local}")
        node_class_ids[ti][local] = cls
        node_splits[ti][local] = split

    # per labeled relation, in order of first label: its edges as a set, and
    # (src, dst) -> (class, split) in file order
    labeled: dict[int, tuple[set, dict]] = {}

    def add_edge_label(st, s, rname, dt, t, cls, split):
        ri = rel_index.get((st, rname, dt))
        if ri is None:
            raise LoadError(f"unknown relation {(st, rname, dt)}")
        if ri not in labeled:
            labeled[ri] = (set(zip(*edges_of[st, rname, dt])), {})
        pairs, rows = labeled[ri]
        if (s, t) not in pairs:
            raise LoadError(f"labeled edge ({s}, {t}) not in edges.tsv")
        if (s, t) in rows:
            raise LoadError(f"duplicate edge label ({s}, {t})")
        rows[s, t] = (cls, split)

    for name, add_row in (("node_labels.tsv", add_node_label),
                          ("edge_labels.tsv", add_edge_label)):
        if (d / name).exists():
            _read_tsv(d / name, add_row)
    edge_labels = {}
    for ri, (_, rows) in labeled.items():
        columns = (*zip(*rows), *zip(*rows.values()))  # src, dst, class, split
        edge_labels[ri] = EdgeLabelSet(ri, *(np.array(c, dtype=np.int64)
                                             for c in columns))
    edges = [(np.array(s, dtype=np.int64), np.array(t, dtype=np.int64))
             for s, t in edges_of.values()]
    return HeteroGraph(list(texts_of), node_counts, texts,
                       [Relation(*key) for key in edges_of], edges,
                       node_class_ids, node_splits, edge_labels)


class _Fault(Exception):
    """A graph file breaks a loader rule; _load_graph_by_line says which."""


_SPLIT_INDEX = {name: i for i, name in enumerate(SPLIT_NAMES)}


def _int_column(values: list[str]) -> np.ndarray:
    """values as int64; each must be ASCII digits below 2**63, else a fault.
    The line parser also takes a "-" sign, which no valid id or class has
    besides "-0"."""
    digits = "".join(values)
    if values and ("" in values or not (digits.isascii() and digits.isdigit())):
        raise _Fault
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise _Fault from None


def _index_column(index: dict, keys) -> np.ndarray:
    """index[key] of every key as int64; an unknown key is a fault."""
    try:
        return np.fromiter(map(index.__getitem__, keys), np.int64)
    except KeyError:
        raise _Fault from None


def _column(name: str, values: list[str]):
    """One column's fields: an id or class column as int64, split as its
    index, text as is, and a name column with one str per distinct name, so
    that it costs a pointer per row once the file's fields are freed."""
    if name == "split":
        return _index_column(_SPLIT_INDEX, values)
    if name in _COLUMN_PARSERS:
        return _int_column(values)
    if name == "text":
        return values
    first = {}
    return list(map(first.setdefault, values, values))


def _tsv_columns(path: Path) -> list:
    """The _column of each of path's columns over its non-empty lines after
    the header.  A wrong header, field count or field is a fault."""
    columns = TSV_COLUMNS[path.name]
    header, *lines = read_text(path).split("\n")
    rows = list(filter(None, lines))
    if (header != "\t".join(columns)
            or set(map(str.count, rows, repeat("\t"))) - {len(columns) - 1}):
        raise _Fault
    fields = "\t".join(rows).split("\t") if rows else []
    return [_column(name, fields[i::len(columns)])
            for i, name in enumerate(columns)]


def _node_ids(offsets, counts, types, locals_) -> np.ndarray:
    """Global ids of nodes (types, locals_); a local id out of its type's
    range is a fault."""
    if (locals_ >= counts[types]).any():
        raise _Fault
    return offsets[types] + locals_


def _require_distinct(ids: np.ndarray) -> None:
    if np.unique(ids).size != ids.size:
        raise _Fault


def _load_graph_by_column(d: Path) -> HeteroGraph:
    """load_graph's result, each file parsed a column at a time by the line
    parser's rules.  Any fault raises _Fault."""
    types, ids, texts = _tsv_columns(d / "nodes.tsv")
    type_index = {t: i for i, t in enumerate(dict.fromkeys(types))}
    node_types = _index_column(type_index, types)
    counts = np.bincount(node_types, minlength=len(type_index))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    nodes = _node_ids(offsets, counts, node_types, ids)
    _require_distinct(nodes)  # distinct and in range: dense per type
    order = np.empty(nodes.size, dtype=np.int64)
    order[nodes] = np.arange(nodes.size)
    texts = list(map(texts.__getitem__, order.tolist()))  # in global-id order

    src_type, src, rel_name, dst_type, dst = _tsv_columns(d / "edges.tsv")
    rel_index = {key: ri for ri, key in
                 enumerate(dict.fromkeys(zip(src_type, rel_name, dst_type)))}
    rels = _index_column(rel_index, zip(src_type, rel_name, dst_type))

    class_ids = np.full(nodes.size, -1, dtype=np.int64)
    splits = np.full(nodes.size, -1, dtype=np.int64)
    if (d / "node_labels.tsv").exists():
        ltypes, lids, lclasses, lsplits = _tsv_columns(d / "node_labels.tsv")
        labeled = _node_ids(offsets, counts, _index_column(type_index, ltypes),
                            lids)
        _require_distinct(labeled)
        class_ids[labeled] = lclasses
        splits[labeled] = lsplits

    edge_labels = {}
    if (d / "edge_labels.tsv").exists():
        (lsrc_type, lsrc, lrel_name, ldst_type, ldst, lclasses,
         lsplits) = _tsv_columns(d / "edge_labels.tsv")
        lrels = _index_column(rel_index, zip(lsrc_type, lrel_name, ldst_type))
        for ri in dict.fromkeys(lrels.tolist()):  # in order of first label
            of_ri = lrels == ri
            edge_labels[ri] = EdgeLabelSet(ri, lsrc[of_ri], ldst[of_ri],
                                           lclasses[of_ri], lsplits[of_ri])

    spans = list(zip(offsets.tolist(), offsets[1:].tolist()))
    try:  # HeteroGraph checks the edges and their labels
        return HeteroGraph(list(type_index), counts.tolist(),
                           [texts[a:b] for a, b in spans],
                           [Relation(*key) for key in rel_index],
                           [(src[rels == ri], dst[rels == ri])
                            for ri in range(len(rel_index))],
                           [class_ids[a:b] for a, b in spans],
                           [splits[a:b] for a, b in spans], edge_labels)
    except ContractError:
        raise _Fault from None


def load_graph(directory) -> HeteroGraph:
    """Load a graph directory written by save_graph (label files optional).

    Each file is parsed a column at a time; on any fault the line parser
    reads the files again, and its LoadError names the file, line and rule.
    """
    d = Path(directory)
    for name in ("nodes.tsv", "edges.tsv"):
        if not (d / name).exists():
            raise LoadError(f"{d / name}: not found")
    try:
        return _load_graph_by_column(d)
    except _Fault:
        return _load_graph_by_line(d)


def _write_tsv(path: Path, lines) -> None:
    """Write path's header line, then lines, each ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TSV_COLUMNS[path.name]) + "\n" + "".join(lines))


def _breaks_a_line(value: str) -> bool:
    return "\t" in value or "\n" in value or "\r" in value


def save_graph(graph: HeteroGraph, directory) -> None:
    """Write the four TSV files; label files are written even when empty.
    The graph (HeteroGraph's checks), every type and relation name and
    every text are checked before any file is opened: none may hold a tab,
    a newline or a carriage return, which the loader reads as field and
    line ends."""
    graph._validate()
    for what, name in [*(("node type", t) for t in graph.node_types),
                       *(("relation", r.name) for r in graph.relations)]:
        if _breaks_a_line(name):
            raise ContractError(f"{what} name {name!r} contains a tab, "
                                f"newline or carriage return")
    for tname, rows in zip(graph.node_types, graph.texts):
        if _breaks_a_line("".join(rows)):
            i = next(i for i, text in enumerate(rows) if _breaks_a_line(text))
            raise ContractError(f"node {tname}/{i}: text contains tab, "
                                f"newline or carriage return")
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    _write_tsv(d / "nodes.tsv", [
        f"{tname}\t{i}\t{text}\n"
        for tname, rows in zip(graph.node_types, graph.texts)
        for i, text in enumerate(rows)])
    _write_tsv(d / "edges.tsv", [
        f"{rel.src_type}\t{s}\t{rel.name}\t{rel.dst_type}\t{t}\n"
        for rel, (src, dst) in zip(graph.relations, graph.edges)
        for s, t in zip(src.tolist(), dst.tolist())])
    _write_tsv(d / "node_labels.tsv", [
        f"{tname}\t{i}\t{c}\t{SPLIT_NAMES[sp]}\n"
        for tname, classes, splits in zip(graph.node_types, graph.node_class_ids,
                                          graph.node_splits)
        for i, (c, sp) in enumerate(zip(classes.tolist(), splits.tolist()))
        if c >= 0])
    _write_tsv(d / "edge_labels.tsv", [
        f"{rel.src_type}\t{s}\t{rel.name}\t{rel.dst_type}\t{t}\t{c}\t{SPLIT_NAMES[sp]}\n"
        for ri, labels in sorted(graph.edge_labels.items())
        for rel in [graph.relations[ri]]
        for s, t, c, sp in zip(labels.src.tolist(), labels.dst.tolist(),
                               labels.class_ids.tolist(), labels.splits.tolist())])


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

    RNG contract: nodes are expanded layer by layer, each layer in order of
    first discovery, and a node's relations in message-relation order.  A
    (node, message relation) pair at or under its fanout takes all its
    neighbors in msg_neighbors order and draws nothing.  Each layer whose
    pairs include some over their fanout makes one rng.random(n) call: the
    keys of those pairs' neighbors, pair after pair in that order, each
    pair's neighbors in msg_neighbors order.  A pair keeps its fanout
    neighbors with the smallest keys, in ascending key order, ties going to
    the earlier neighbor.  Uniform keys make this a uniform sample without
    replacement (Efraimidis & Spirakis, 2006, with equal weights).  Since
    rng.random(a) then rng.random(b) gives the keys of rng.random(a + b), a
    per-pair loop drawing rng.random(degree) and keeping
    argsort(keys, kind="stable")[:fanout] makes the same batch.  A given rng
    state therefore fixes the batch, and the state it is left in.
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

    target_ids = _first_occurrences(graph.type_offsets[types] + locals_)
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
        over = np.flatnonzero(degree > cell_fan)
        if over.size:
            # the RNG contract: one key per candidate of every over-fanout
            # cell; each keeps its `taken` smallest keys, ascending
            deg, keep = degree[over], taken[over]
            cand = _ranges(starts[over], deg)
            cell = np.repeat(np.arange(over.size), deg)
            order = np.lexsort((rng.random(cand.size), cell))
            rank = np.arange(cand.size) - np.repeat(np.cumsum(deg) - deg, deg)
            ends = np.cumsum(taken)[over]
            nbrs[_ranges(ends - keep, keep)] = adj.targets[
                cand[order[rank < keep[cell]]]]
        rels = np.repeat(np.tile(np.arange(num_rels), frontier.size), taken)
        dst = np.repeat(np.arange(seen.size - frontier.size, seen.size),
                        taken.reshape(frontier.size, num_rels).sum(axis=1))
        frontier = _first_occurrences(nbrs[local_of[nbrs] < 0])
        local_of[frontier] = seen.size + np.arange(frontier.size)
        src = local_of[nbrs]
        edges = [(np.concatenate([s, src[rels == mi]]),
                  np.concatenate([d, dst[rels == mi]]))
                 for mi, (s, d) in enumerate(edges)]
        num_targets, seen = seen.size, np.concatenate([seen, frontier])
        blocks_rev.append(Block(graph.refs[seen], num_targets, edges))
        slots += nbrs.size

    return EgoBatch(num_layers, list(reversed(blocks_rev)),
                    graph.refs[target_ids], slots)


# -------------------------------------------------------------- partitioning


@dataclass
class PartitionMap:
    """The leaf of every global node."""

    num_leaves: int
    leaf_of: np.ndarray


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
    return PartitionMap(num_leaves, leaf_of)


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

    def draw(self, batch_size: int, rng, rows=None, **flags) -> "TargetSample":
        """A batch of batch_size targets drawn uniformly from rows (default:
        all), without replacement when there are enough of them (as many
        gives a permutation), otherwise with replacement and flagged."""
        rows = np.arange(len(self)) if rows is None else rows
        with_replacement = rows.size < batch_size
        chosen = rng.choice(rows, size=batch_size, replace=with_replacement)
        return self.take(chosen, with_replacement=with_replacement, **flags)


def task_targets(graph: HeteroGraph, task: str, split: int) -> TargetSample:
    """Every row `task` uses on `split`: the split's labeled nodes (node),
    the designated relation's labeled edges (edge), or link_edges (link).

    Kept with the graph, so labels are treated as fixed once the graph is
    built: train pools and eval rows alike are read once per graph."""
    def build():
        if task == "node":
            refs, classes = graph.node_label_rows(split)
            return TargetSample("nodes", node_refs=refs, node_classes=classes)
        if task == "edge":
            ri = graph.designated_relation
            if ri is None:
                raise ContractError("edge task needs edge labels")
            s, d, c = graph.edge_labels[ri].rows_for_split(split)
            return TargetSample("edges", edge_rels=np.full(s.size, ri, dtype=np.int64),
                                edge_srcs=s, edge_dsts=d, edge_classes=c)
        if task == "link":
            rels, s, d = graph.link_edges(split)
            return TargetSample("edges", edge_rels=rels, edge_srcs=s, edge_dsts=d)
        raise ContractError(f"unknown task '{task}'")

    return graph.kept(("targets", task, split), build)


def require_targets(graph: HeteroGraph, task: str, split: int) -> TargetSample:
    """task_targets, which must hold at least one row."""
    targets = task_targets(graph, task, split)
    if len(targets) == 0:
        raise ContractError(f"the {task} task has no {SPLIT_NAMES[split]} rows")
    return targets


def sample_targets(graph: HeteroGraph, task: str, batch_size: int,
                   mode: str = "global", partition_map: PartitionMap | None = None,
                   rng=0) -> TargetSample:
    """Draw a training batch of targets with TargetSample.draw.

    global mode draws from the whole train pool.  partition_local picks one
    leaf uniformly, then draws within it.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    if mode not in TARGET_MODES:
        raise ContractError(f"unknown target mode '{mode}'")
    rng = _as_rng(rng)
    pool = require_targets(graph, task, TRAIN)

    leaf = idx = None
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
    return pool.draw(batch_size, rng, idx, leaf=leaf)
