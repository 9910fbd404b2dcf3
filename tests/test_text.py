import tracemalloc

import numpy as np
import pytest

from textgraph import tensor as tg
from textgraph import text as tx
from textgraph.errors import ContractError, LoadError
from tests.test_tensor import assert_grads_match


def small_vocab():
    return tx.Vocab([f"tok{i}" for i in range(10)])


def test_vocab_ids_and_unk():
    v = small_vocab()
    assert v.size == 15
    ids = tx.tokenize_batch(v, ["tok0 tok9 missing"], max_len=4)[0]
    np.testing.assert_array_equal(ids, [tx.CLS_ID, 5, 14, tx.UNK_ID])


def test_vocab_file_round_trip(tmp_path):
    v = tx.Vocab.from_texts(["red red blue", "red green"])
    assert v.tokens[0] == "red"  # most frequent first
    path = tmp_path / "vocab.txt"
    v.save(path)
    # id = 5 + line index, by construction of the file
    lines = path.read_text().splitlines()
    v2 = tx.Vocab.load(path)
    ids = tx.tokenize_batch(v2, [" ".join(lines)], max_len=len(lines) + 1)[0]
    np.testing.assert_array_equal(ids[1:], 5 + np.arange(len(lines)))
    assert v2.tokens == v.tokens


def test_vocab_load_rejects_blank_and_duplicates(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("a\n\nb\n")
    with pytest.raises(LoadError, match="blank"):
        tx.Vocab.load(p)
    p.write_text("a\na\n")
    with pytest.raises(LoadError, match="duplicate"):
        tx.Vocab.load(p)


def test_vocab_load_reads_lines_as_graph_files_do(tmp_path):
    """An undecodable byte names its line; a line break other than \\n,
    \\r\\n or \\r is inside a line, so its token is refused."""
    p = tmp_path / "v.txt"
    p.write_bytes(b"a\r\nb\rc\n\xffd\n")
    with pytest.raises(LoadError, match=r"v\.txt:4: not UTF-8 text"):
        tx.Vocab.load(p)
    p.write_bytes(b"a\r\nb\rc")
    assert tx.Vocab.load(p).tokens == ["a", "b", "c"]
    for sep in ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]:
        p.write_text(f"a\nb{sep}c\n", encoding="utf-8")
        with pytest.raises(LoadError, match=r"v\.txt: bad vocabulary token"):
            tx.Vocab.load(p)


def test_tokenize_cls_padding_truncation():
    v = small_vocab()
    ids = tx.tokenize_batch(v, ["TOK0 tok1 missing"], max_len=6)[0]
    np.testing.assert_array_equal(ids, [tx.CLS_ID, 5, 6, tx.UNK_ID, tx.PAD_ID, tx.PAD_ID])
    trunc = tx.tokenize_batch(v, [" ".join(["tok0"] * 50)], max_len=4)[0]
    np.testing.assert_array_equal(trunc, [tx.CLS_ID, 5, 5, 5])
    empty = tx.tokenize_batch(v, [""], max_len=3)[0]
    np.testing.assert_array_equal(empty, [tx.CLS_ID, tx.PAD_ID, tx.PAD_ID])


def test_encoder_shape_and_determinism():
    v = small_vocab()
    m1 = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=2, max_len=8, rng=3)
    m2 = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=2, max_len=8, rng=3)
    for k in m1.params:
        assert m1.params[k].data.tobytes() == m2.params[k].data.tobytes()
    batch = tx.tokenize_batch(v, ["tok0 tok1", "tok2"], max_len=8)
    out = tx.encode_cls(m1, batch)
    assert out.shape == (2, 16)


def test_encoder_padding_invariance():
    v = small_vocab()
    m = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=2, max_len=12, rng=0)
    short = tx.tokenize_batch(v, ["tok0 tok1 tok2"], max_len=5)
    # same text in a batch whose other row forces a much wider pad width
    wide = tx.tokenize_batch(v, ["tok0 tok1 tok2", " ".join(["tok3"] * 11)], max_len=12)
    a = tx.encode_cls(m, short).data[0]
    b = tx.encode_cls(m, wide).data[0]
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_encoder_distinguishes_texts():
    v = small_vocab()
    m = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=1, max_len=8, rng=1)
    batch = tx.tokenize_batch(v, ["tok0 tok1", "tok5 tok6"], max_len=8)
    out = tx.encode_cls(m, batch).data
    assert np.abs(out[0] - out[1]).max() > 1e-3


def test_sequence_length_contract():
    v = small_vocab()
    m = tx.TextEncoderModel(v.size, dim=8, num_heads=2, num_blocks=1, max_len=4, rng=0)
    too_long = np.full((1, 9), tx.UNK_ID, dtype=np.int64)
    with pytest.raises(ContractError, match="max_len"):
        tx.encode_cls(m, too_long)
    with pytest.raises(ContractError, match="divisible"):
        tx.TextEncoderModel(v.size, dim=9, num_heads=2)


def test_encoder_gradients_match_finite_differences():
    v = tx.Vocab([f"t{i}" for i in range(6)])
    m = tx.TextEncoderModel(v.size, dim=8, num_heads=2, num_blocks=1, max_len=5, rng=7)
    batch = tx.tokenize_batch(v, ["t0 t1 t2", "t3 t4"], max_len=5)
    proj = np.random.default_rng(0).normal(size=(2, 8))

    def build():
        out = tx.encode_cls(m, batch)
        return tg.tensor_sum(tg.mul(out, tg.Tensor(proj)))

    checked = {k: m.params[k] for k in
               ("tok_emb", "pos_emb", "blk0_wq", "blk0_bk", "blk0_wv", "blk0_wo",
                "blk0_ln1_gain", "blk0_ln2_bias", "blk0_ff_w1", "blk0_ff_b2")}
    assert_grads_match(build, checked, rtol=5e-3, atol=1e-6)


def test_mlm_masks_only_content_and_counts():
    v = small_vocab()
    m = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=1, max_len=8, rng=0)
    batch = tx.tokenize_batch(v, ["tok0 tok1 tok2 tok3", "tok4"], max_len=8)
    loss, count = tx.mlm_pretrain_step(m, batch, mask_prob=1.0, rng=0)
    assert count == 5  # every content token, never CLS or PAD
    assert loss.item() > 0.0
    zero_loss, zero_count = tx.mlm_pretrain_step(m, batch, mask_prob=0.0, rng=0)
    assert zero_count == 0 and zero_loss.item() == 0.0
    with pytest.raises(ContractError):
        tx.mlm_pretrain_step(m, batch, mask_prob=1.5)


def test_mlm_training_reduces_loss():
    v = small_vocab()
    m = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=1, max_len=8, rng=2)
    batch = tx.tokenize_batch(v, ["tok0 tok1 tok2", "tok3 tok4 tok5"], max_len=8)
    opt = tg.Adam(m.params, learning_rate=1e-2)
    losses = []
    for step in range(40):
        with tg.Tape() as tape:
            loss, count = tx.mlm_pretrain_step(m, batch, mask_prob=0.4,
                                               rng=np.random.default_rng(step))
        if count == 0:
            continue
        tg.backward(loss, tape)
        opt.step()
        opt.zero_grad()
        losses.append(loss.item())
    assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.7


def _varied_table(rows, seed):
    """Token table of one type whose texts have 0..30 tokens, cropped once to
    its widest row, as the pipeline keeps it."""
    rng = np.random.default_rng(seed)
    v = tx.Vocab([f"t{i}" for i in range(50)])
    texts = [" ".join(f"t{j}" for j in rng.integers(50, size=rng.integers(0, 31)))
             for _ in range(rows)]
    return v, tx.crop_padding(tx.tokenize_batch(v, texts, 32))


@pytest.mark.parametrize("weight_seed", [1, 2])
def test_subset_encode_bit_identical_to_whole_table(weight_seed):
    """A row's value never depends on which rows share its encode call: any
    subset of a table, at the table's width, gives the whole-table rows bit
    for bit, one-row calls included."""
    v, table = _varied_table(300, seed=0)
    m = tx.TextEncoderModel(v.size, dim=64, num_heads=4, num_blocks=2,
                            max_len=32, rng=weight_seed)
    rng = np.random.default_rng(weight_seed)
    sizes = list(range(1, 41)) + [63, 64, 65, 127, 128, 129, 255, 256, 257, 300]
    with tg.no_grad():
        whole = tx.encode_cls(m, table, crop=False).data
        for size in sizes:
            ids = rng.choice(table.shape[0], size=size, replace=False)  # unsorted
            part = tx.encode_cls(m, table[ids], crop=False).data
            assert part.tobytes() == whole[ids].tobytes(), size


def test_encode_cls_matches_all_position_cls_rows():
    """The last block's [CLS]-only pass equals the [CLS] rows of the full
    all-position pass up to summation order."""
    v, table = _varied_table(40, seed=1)
    m = tx.TextEncoderModel(v.size, dim=64, num_heads=4, num_blocks=2,
                            max_len=32, rng=3)
    with tg.no_grad():
        cls = tx.encode_cls(m, table).data
        ids = tx.crop_padding(table)
        full = tx._forward_hidden(m, ids).data[np.arange(40) * ids.shape[1]]
    np.testing.assert_allclose(cls, full, rtol=1e-12, atol=1e-14)


def test_encode_cls_gradients_match_all_position_path():
    v, table = _varied_table(6, seed=2)
    m = tx.TextEncoderModel(v.size, dim=16, num_heads=2, num_blocks=2,
                            max_len=32, rng=4)
    ids = tx.crop_padding(table)
    proj = np.random.default_rng(0).normal(size=(6, 16))

    def grads(cls_rows):
        for p in m.params.values():
            p.grad = None
        with tg.Tape() as tape:
            loss = tg.tensor_sum(tg.mul(cls_rows(), tg.Tensor(proj)))
            tg.backward(loss, tape)
        return {k: p.grad.copy() for k, p in m.params.items() if p.grad is not None}

    fast = grads(lambda: tx.encode_cls(m, ids))
    full = grads(lambda: tg.take_rows(tx._forward_hidden(m, ids),
                                      np.arange(6) * ids.shape[1]))
    assert set(fast) == set(full)
    for k in full:
        # a key bias shifts every score of a query alike: its true gradient
        # is 0, and both sides hold only roundoff
        atol = 1e-12 if k.endswith("_bk") else 0.0
        np.testing.assert_allclose(fast[k], full[k], rtol=1e-9, atol=atol,
                                   err_msg=k)


def _reference_forward_hidden(model, ids, cls_only=False):
    """_forward_hidden composed from the basic ops: a take_rows position
    gather and [CLS] pick, and add(matmul(...)) projections."""
    b, t = ids.shape
    p, f, h = model.params, model.dim, model.num_heads
    dh = f // h
    x = tg.take_rows(p["tok_emb"], ids.ravel())
    hid = tg.add(x, tg.take_rows(p["pos_emb"], np.tile(np.arange(t), b)))
    mask = tg.Tensor(np.where(ids == tx.PAD_ID, -1e30, 0.0)[:, None, None, :])
    for i in range(model.num_blocks):
        def lin(x, w, bias):
            return tg.add(tg.matmul(x, p[f"blk{i}_{w}"]), p[f"blk{i}_{bias}"])

        def heads(x, name, rows):
            return tg.transpose(tg.reshape(lin(x, f"w{name}", f"b{name}"),
                                           (b, rows, h, dh)), (0, 2, 1, 3))

        k, v = heads(hid, "k", t), heads(hid, "v", t)
        rows = t
        if cls_only and i == model.num_blocks - 1:
            hid = tg.take_rows(hid, np.arange(b) * t)
            rows = 1
        q = heads(hid, "q", rows)
        scores = tg.mul(tg.matmul(q, tg.transpose(k, (0, 1, 3, 2))),
                        tg.Tensor(1.0 / np.sqrt(dh)))
        att = tg.softmax(tg.add(scores, mask), axis=-1)
        ctx = tg.reshape(tg.transpose(tg.matmul(att, v), (0, 2, 1, 3)), (b * rows, f))
        hid = tg.layer_norm(tg.add(hid, lin(ctx, "wo", "bo")),
                            p[f"blk{i}_ln1_gain"], p[f"blk{i}_ln1_bias"])
        ff = lin(tg.relu(lin(hid, "ff_w1", "ff_b1")), "ff_w2", "ff_b2")
        hid = tg.layer_norm(tg.add(hid, ff), p[f"blk{i}_ln2_gain"], p[f"blk{i}_ln2_bias"])
    return hid


def _forward_and_grads(model, forward, g):
    for p in model.params.values():
        p.grad = None
    with tg.Tape() as tape:
        out = forward()
        loss = tg.tensor_sum(tg.mul(out, tg.Tensor(g)))
    tg.backward(loss, tape)
    return out.data, {k: p.grad for k, p in model.params.items()}


@pytest.mark.parametrize("cls_only", [True, False])
def test_encoder_is_bitwise_its_composed_reference(cls_only):
    """The fused position add, [CLS] pick and projections give the composed
    form's hidden states and every parameter gradient byte for byte, with
    -0.0 in the upstream gradient."""
    v, table = _varied_table(24, seed=3)
    m = tx.TextEncoderModel(v.size, dim=32, num_heads=4, num_blocks=2,
                            max_len=32, rng=5)
    ids = tx.crop_padding(table)
    rows = ids.shape[0] * (1 if cls_only else ids.shape[1])
    g = np.random.default_rng(1).normal(size=(rows, 32))
    g[::3] = -0.0
    fused = _forward_and_grads(m, lambda: tx._forward_hidden(m, ids, cls_only), g)
    ref = _forward_and_grads(m, lambda: _reference_forward_hidden(m, ids, cls_only), g)
    assert fused[0].tobytes() == ref[0].tobytes()
    assert [k for k, grad in ref[1].items() if grad is None] == ["mlm_w", "mlm_b"]
    for k, grad in ref[1].items():
        assert (fused[1][k] is None if grad is None
                else fused[1][k].tobytes() == grad.tobytes()), k


def test_position_add_and_cls_pick_are_bitwise_their_scatter_forms():
    """pos_emb's gradient and the [CLS] rows' gradient equal the take_rows
    forms, whose backward scatters into zeros: a -0.0 in g comes out 0.0."""
    draw = np.random.default_rng(4)
    b, t, f, max_len = 5, 7, 6, 9
    x = draw.normal(size=(b * t, f))
    pos = draw.normal(size=(max_len, f))
    g = draw.normal(size=(b * t, f))
    g[draw.random(size=g.shape) < 0.4] = -0.0
    g[:, 0] = -0.0  # a column whose every tile sums to -0.0 without the 0.0 start
    cases = [
        ((x, pos), lambda x, pos: tg.add_tiled(x, pos, t),
         lambda x, pos: tg.add(x, tg.take_rows(pos, np.tile(np.arange(t), b)))),
        ((x,), lambda x: tg.take_strided(x, t),
         lambda x: tg.take_rows(x, np.arange(b) * t)),
    ]
    for values, fused, composed in cases:
        runs = []
        for op in (fused, composed):
            operands = [tg.Tensor(v, grad_enabled=True) for v in values]
            with tg.Tape() as tape:
                out = op(*operands)
                upstream = g[:out.shape[0]]
                loss = tg.tensor_sum(tg.mul(out, tg.Tensor(upstream)))
            tg.backward(loss, tape)
            runs.append([out.data.tobytes()] + [t_.grad.tobytes() for t_ in operands])
        assert runs[0] == runs[1]


def test_encode_cls_tape_nodes():
    """A 64-row, 2-block tape encode records 43 nodes: per block, one linear
    per projection (the first feed-forward one with its relu), one transpose
    per head split, one attention_weights node and no bias adds."""
    v, table = _varied_table(64, seed=5)
    m = tx.TextEncoderModel(v.size, dim=64, num_heads=4, num_blocks=2,
                            max_len=32, rng=6)
    with tg.Tape() as tape:
        tx.encode_cls(m, table)
    assert len(tape) == 43


def test_nograd_encode_peak_memory():
    """A no-grad encode of 200 rows x 13 tokens at dim 64 holds at most 3
    feed-forward hiddens' worth of numpy memory at its peak (tracemalloc):
    the attention buffers die before the MLP runs and the relu works in
    place on the first projection."""
    rows, width, dim = 200, 13, 64
    v = tx.Vocab([f"t{i}" for i in range(50)])
    draw = np.random.default_rng(0)
    texts = [" ".join(f"t{j}" for j in draw.integers(50, size=width - 1))
             for _ in range(rows)]
    table = tx.tokenize_batch(v, texts, width)
    m = tx.TextEncoderModel(v.size, dim=dim, num_heads=4, num_blocks=2,
                            max_len=32, rng=0)
    with tg.no_grad():
        tx.encode_cls(m, table, crop=False)  # first-call allocations
        tracemalloc.start()
        try:
            tx.encode_cls(m, table, crop=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    ff_hidden = rows * width * 4 * dim * 8  # one (rows * t, 4 * dim) float64
    assert peak / ff_hidden <= 3.0
