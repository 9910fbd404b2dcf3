"""An eval call's set-up: graph loading, bundle loading and tokenization.

Each fast path is pinned byte for byte to the rule it replaces (the line
parser, the per-text tokenizer, the saved arrays), and its count of textgraph
Python calls is pinned not to grow with the number of rows.  Files holding an
undecodable byte exit 2 naming the file.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

import textgraph
import textgraph.cli as cli
import textgraph.pipeline as pl
import textgraph.text as tx
from textgraph import graph as gr
from textgraph.checkpoint import load_checkpoint
from textgraph.errors import ContractError, LoadError

# code objects carry the path their module was imported from, as __file__ does
PACKAGE_DIR = os.path.dirname(textgraph.__file__) + os.sep


def textgraph_calls(fn) -> int:
    """The number of Python frames whose code lives in the textgraph package
    that fn() enters; a generator or comprehension counts once per resume."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def _saved(tmp_path, nodes_per_type):
    """A synthetic graph directory and an untrained link bundle saved for it."""
    d = tmp_path / f"g{nodes_per_type}"
    graph = gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=nodes_per_type))
    gr.save_graph(graph, d)
    settings = pl.TrainSettings(task="link")
    stem = str(tmp_path / f"ck{nodes_per_type}")
    pl.save_bundle(stem, pl.build_models(graph, settings), graph, settings)
    return d, stem


# ------------------------------------------------------- call-count pins

# a few calls of slack for work that depends on the number of types,
# relations or parameters only
SLACK = 10


def test_set_up_calls_do_not_grow_with_rows(tmp_path):
    counts = {}
    for n in (200, 400):
        d, stem = _saved(tmp_path, n)
        graph = gr.load_graph(d)
        models = pl.load_bundle(stem, graph)
        counts[n] = {
            "load_graph": textgraph_calls(lambda: gr.load_graph(d)),
            "load_bundle": textgraph_calls(lambda: pl.load_bundle(stem, graph)),
            "token_table": sum(
                textgraph_calls(lambda: pl.token_table(models, graph, t))
                for t in range(len(graph.node_types))),
        }
    for name, small in counts[200].items():
        assert small > 0, (name, counts)  # the counter sees textgraph frames
        assert counts[400][name] <= small + SLACK, (name, counts)


def test_cached_rows_cost_no_calls_per_row():
    """A frozen-encoder assemble_features whose rows are all cached makes as
    many textgraph calls for N rows as for 2N."""
    graph = gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=200, seed=3))
    models = pl.build_models(graph, pl.TrainSettings(), rng=0)
    cache = pl.EmbeddingCache(graph.total_nodes, 0)
    calls = {}
    for n in (100, 200):
        refs = pl.node_refs(graph)[:n]
        pl.assemble_features(models, graph, refs, cache=cache, train_nodes=0,
                             infer_batch=64, rng=0)
        hits = cache.hits
        calls[n] = textgraph_calls(lambda: pl.assemble_features(
            models, graph, refs, cache=cache, train_nodes=0, infer_batch=64,
            rng=0))
        assert cache.hits - hits == n
    assert calls[100] > 0
    assert calls[200] <= calls[100] + SLACK, calls


# ------------------------------------------------------------ tokenization


def _reference_tokenize(vocab, text, max_len):
    """The per-text, per-token rule tokenize_batch replaced, with ids read
    from the vocab's token list rather than its index."""
    ids = [tx.CLS_ID]
    for tok in text.lower().split():
        if len(ids) == max_len:
            break
        ids.append(tx.NUM_SPECIALS + vocab.tokens.index(tok)
                   if tok in vocab.tokens else tx.UNK_ID)
    ids.extend([tx.PAD_ID] * (max_len - len(ids)))
    return np.array(ids, dtype=np.int64)


def test_tokenize_batch_matches_the_per_text_rule():
    rng = np.random.default_rng(0)
    vocab = tx.Vocab([f"tok{i}" for i in range(20)] + ["straße", "ünï"])
    words = [*vocab.tokens, "TOK3", "Tok7", "STRASSE", "Straße", "ÜNÏ",
             "unknown", "x", "İstanbul"]
    spaces = [" ", "  ", "\t", "　", "\xa0", " ", "\x1c", "\n"]
    texts = [""]
    for _ in range(300):
        k = int(rng.integers(0, 12))
        parts = [words[i] for i in rng.integers(len(words), size=k)]
        gaps = [spaces[i] for i in rng.integers(len(spaces), size=k + 1)]
        texts.append("".join(g + w for g, w in zip(gaps, parts + [""])))
    texts += ["   ", "　"]
    width = max(len(t.split()) for t in texts) + 1
    for max_len in (1, 2, 5, width, width + 3):
        table = tx.tokenize_batch(vocab, texts, max_len)
        expected = np.stack([_reference_tokenize(vocab, t, max_len) for t in texts])
        assert table.dtype == np.int64
        assert table.tobytes() == expected.tobytes(), max_len
        one = tx.tokenize_batch(vocab, [texts[5]], max_len)[0]
        assert one.tobytes() == expected[5].tobytes()
    with pytest.raises(ContractError, match="max_len must be >= 1"):
        tx.tokenize_batch(vocab, texts, 0)


def test_vocab_token_rule_is_no_whitespace_and_not_empty():
    for bad in ["", "a b", "a　", "\x1c", " x"]:
        with pytest.raises(ContractError, match="bad vocabulary token"):
            tx.Vocab(["ok", bad])
    assert tx.Vocab(["ok", "ünï", "a-b"]).size == tx.NUM_SPECIALS + 3


def test_tape_rows_are_the_token_table_rows_of_their_refs(monkeypatch):
    """assemble_features fills the tape block a type at a time: the same
    rows as stacking each ref's token-table row."""
    graph = gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=30, seed=4))
    models = pl.build_models(graph, pl.TrainSettings(task="link"), rng=0)
    rng = np.random.default_rng(1)
    refs = graph.refs[rng.integers(graph.total_nodes, size=50)]
    seen = []
    real = tx.encode_cls

    def recording(model, table, **kwargs):
        seen.append(np.array(table))
        return real(model, table, **kwargs)

    monkeypatch.setattr(tx, "encode_cls", recording)
    pl.assemble_features(models, graph, refs, cache=pl.EmbeddingCache(0, 0),
                         train_nodes=refs.shape[0], infer_batch=16, rng=0)
    expected = np.stack([pl.token_table(models, graph, int(t))[int(l)]
                         for t, l in refs])
    assert seen[0].dtype == np.int64
    assert seen[0].tobytes() == expected.tobytes()


# ----------------------------------------------------------- graph loading


def _arrays(graph):
    return ([x for pair in graph.edges for x in pair] + graph.node_class_ids
            + graph.node_splits)


def _assert_same_graph(a, b):
    assert a.node_types == b.node_types
    assert a.node_counts == b.node_counts
    assert a.texts == b.texts
    assert a.relations == b.relations
    assert len(a.edges) == len(b.edges)
    for x, y in zip(_arrays(a), _arrays(b), strict=True):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert list(a.edge_labels) == list(b.edge_labels)
    for ri, la in a.edge_labels.items():
        lb = b.edge_labels[ri]
        for field in ("src", "dst", "class_ids", "splits"):
            x, y = getattr(la, field), getattr(lb, field)
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), field


def _write_files(d, files, newline="\n"):
    d.mkdir()
    for name, text in files.items():
        (d / name).write_bytes(text.replace("\n", newline).encode("utf-8"))
    return d


def _header(name):
    return "\t".join(gr.TSV_COLUMNS[name]) + "\n"


HAND_GRAPHS = {
    # a textless type, a repeated edge, types and relations in order of
    # first use, ids out of order, "-" as text, a node with no text,
    # leading zeros, and label files with only a header
    "textless_and_repeats": {
        "nodes.tsv": _header("nodes.tsv") + "u\t1\tb c\nq\t0\t\nu\t0\t-\n"
                     "q\t1\t\nu\t002\tA b\n",
        "edges.tsv": _header("edges.tsv") + "u\t0\tr\tq\t1\nq\t1\ts\tu\t2\n"
                     "u\t0\tr\tq\t1\nu\t2\tr\tq\t0\n",
        "node_labels.tsv": _header("node_labels.tsv"),
        "edge_labels.tsv": _header("edge_labels.tsv"),
    },
    # no edges, no label files, blank lines, and no newline after the last line
    "no_edges": {
        "nodes.tsv": _header("nodes.tsv") + "\nq\t0\tx y\n\n\nq\t1\tz",
        "edges.tsv": _header("edges.tsv"),
    },
    # labels on two relations, in an order other than the relations'
    "labels": {
        "nodes.tsv": _header("nodes.tsv") + "q\t0\ta\nq\t1\tb\np\t0\tc\np\t1\td\n",
        "edges.tsv": _header("edges.tsv") + "q\t0\tr\tp\t1\nq\t1\tr\tp\t0\n"
                     "p\t0\ts\tq\t0\nq\t0\tr\tp\t0\n",
        "node_labels.tsv": _header("node_labels.tsv") + "p\t1\t3\ttest\n"
                           "q\t0\t0\ttrain\n\n",
        "edge_labels.tsv": _header("edge_labels.tsv") + "p\t0\ts\tq\t0\t1\tvalid\n"
                           "q\t1\tr\tp\t0\t0\ttrain\nq\t0\tr\tp\t1\t2\ttest",
    },
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("name", sorted(HAND_GRAPHS))
def test_column_loader_matches_the_line_parser(tmp_path, name, newline):
    d = _write_files(tmp_path / name, HAND_GRAPHS[name], newline)
    by_column = gr._load_graph_by_column(d)  # raises _Fault on a fault
    _assert_same_graph(by_column, gr._load_graph_by_line(d))
    _assert_same_graph(gr.load_graph(d), by_column)


@pytest.mark.parametrize("nodes_per_type", [4, 30, 200])
def test_column_loader_matches_the_line_parser_on_synthetic_graphs(
        tmp_path, nodes_per_type):
    graph = gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=nodes_per_type,
                                                   seed=nodes_per_type))
    gr.save_graph(graph, tmp_path)
    by_line = gr._load_graph_by_line(tmp_path)
    _assert_same_graph(gr._load_graph_by_column(tmp_path), by_line)
    _assert_same_graph(gr.load_graph(tmp_path), by_line)


@pytest.mark.parametrize("name, line, reason", [
    ("edges.tsv", "q\t0\tr\tp\tx", "dst_id is not an integer: 'x'"),
    ("node_labels.tsv", "z\t0\t1\ttrain", "unknown node type 'z'"),
    ("nodes.tsv", "q\t1\tagain", "duplicate node q/1"),
    ("edge_labels.tsv", "q\t1\tr\tp\t1\t0\ttrain",
     r"labeled edge \(1, 1\) not in edges.tsv"),
    ("nodes.tsv", "q\t-0\tagain", "duplicate node q/0"),
])
def test_a_fault_is_named_by_the_line_parser(tmp_path, name, line, reason):
    files = dict(HAND_GRAPHS["labels"])
    files[name] = files[name].rstrip("\n") + "\n" + line + "\n"
    d = _write_files(tmp_path / "g", files)
    lineno = files[name].count("\n")
    with pytest.raises(gr._Fault):
        gr._load_graph_by_column(d)
    with pytest.raises(LoadError, match=rf"{name}:{lineno}: {reason}"):
        gr.load_graph(d)


def test_a_value_only_the_line_parser_takes_still_loads(tmp_path):
    """"-0" is an integer to the line parser; the column path leaves it
    to that parser."""
    files = dict(HAND_GRAPHS["labels"])
    files["nodes.tsv"] = files["nodes.tsv"].replace("q\t0\ta", "q\t-0\ta")
    d = _write_files(tmp_path / "g", files)
    with pytest.raises(gr._Fault):
        gr._load_graph_by_column(d)
    _assert_same_graph(gr.load_graph(d),
                       gr.load_graph(_write_files(tmp_path / "h",
                                                  HAND_GRAPHS["labels"])))


# ----------------------------------------------------------- bundle loading


def test_loaded_bundle_holds_the_saved_arrays(tmp_path):
    d, stem = _saved(tmp_path, 30)
    graph = gr.load_graph(d)
    arrays, _ = load_checkpoint(stem)
    params = pl.load_bundle(stem, graph).all_params()
    assert sorted(params) == sorted(arrays)
    for name, p in params.items():
        assert p.data.dtype == np.float64 and p.data.flags.c_contiguous
        assert p.data.shape == arrays[name].shape
        assert p.data.tobytes() == arrays[name].tobytes(), name


def test_build_models_still_draws_its_weights():
    graph = gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=20))
    params = pl.build_models(graph, pl.TrainSettings(task="link")).all_params()
    assert np.abs(params["lm/tok_emb"].data).sum() > 0
    assert np.abs(params["gnn/layer0_self"].data).sum() > 0


# ------------------------------------------------------- undecodable input


def _break_utf8(path, line):
    """Put a byte that is not UTF-8 at the start of the given line."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.fixture
def saved(tmp_path):
    return _saved(tmp_path, 30)


@pytest.mark.parametrize("name", sorted(gr.TSV_COLUMNS))
def test_undecodable_graph_file_exits_2_naming_its_line(saved, capsys, name):
    d, stem = saved
    _break_utf8(d / name, 3)
    assert cli.main(["eval", stem, str(d), "--task", "link"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / name}:3: not UTF-8 text"), err


@pytest.mark.parametrize("suffix", [".vocab.txt", ".json"])
def test_undecodable_bundle_file_exits_2_naming_it(saved, capsys, suffix):
    d, stem = saved
    _break_utf8(Path(stem + suffix), 2)
    assert cli.main(["eval", stem, str(d), "--task", "link"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stem}{suffix}") and "not UTF-8 text" in err


def test_undecodable_config_exits_2_naming_its_line(tmp_path, saved, capsys):
    d, _ = saved
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(f"graph_dir = {d}\n# \xe9t\xe9\n".encode("latin-1"))
    assert cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: not UTF-8 text"), err
