"""Text side: vocabulary, tokenizer, and a small transformer encoder.

Ids 0..4 are reserved specials ([CLS], [SEP], [PAD], [MASK], [UNK]); content
tokens start at 5, and the vocab file stores one content token per line so
id = 5 + line index.  Sequences are [CLS] + tokens, truncated to max_len and
right-padded with [PAD].  The encoder is post-LN with padding-masked
attention; a node's embedding is the [CLS] row of the final layer.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import tensor as tg
from .errors import ContractError, LoadError
from .graph import _as_rng
from .tensor import Tensor

SPECIAL_TOKENS = ("[CLS]", "[SEP]", "[PAD]", "[MASK]", "[UNK]")
CLS_ID, SEP_ID, PAD_ID, MASK_ID, UNK_ID = range(5)
NUM_SPECIALS = len(SPECIAL_TOKENS)


class Vocab:
    """Content tokens with dense ids starting after the specials."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self._index = {t: NUM_SPECIALS + i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ContractError("duplicate tokens in vocabulary")
        for t in self.tokens:
            if t.split() != [t]:  # empty, or holds whitespace
                raise ContractError(f"bad vocabulary token {t!r}")

    @property
    def size(self) -> int:
        return NUM_SPECIALS + len(self.tokens)

    @classmethod
    def from_texts(cls, texts) -> "Vocab":
        counts = Counter()
        for text in texts:
            counts.update(text.lower().split())
        return cls(sorted(counts, key=lambda t: (-counts[t], t)))

    def save(self, path) -> None:
        Path(path).write_text("".join(t + "\n" for t in self.tokens), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        p = Path(path)
        if not p.exists():
            raise LoadError(f"{p}: not found")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise LoadError(f"{p}: not UTF-8 text ({e.reason})") from None
        tokens = []
        for lineno, line in enumerate(text.splitlines(), 1):
            tok = line.strip()
            if not tok:
                raise LoadError(f"{p}:{lineno}: blank vocabulary line")
            tokens.append(tok)
        try:
            return cls(tokens)
        except ContractError as e:
            raise LoadError(f"{p}: {e}") from None


def tokenize_batch(vocab: Vocab, texts, max_len: int) -> np.ndarray:
    """(len(texts), max_len) int64 ids: per text, [CLS] + its lowercased
    whitespace tokens (UNK for OOV), truncated to max_len, right-padded with
    [PAD]."""
    if max_len < 1:
        raise ContractError("max_len must be >= 1")
    rows = [text.lower().split()[:max_len - 1] for text in texts]
    tokens = list(chain.from_iterable(rows))
    table = np.full((len(rows), max_len), PAD_ID, dtype=np.int64)
    table[:, 0] = CLS_ID
    # row-major order of the mask is the order of tokens
    filled = np.arange(max_len - 1) < np.fromiter(map(len, rows), np.int64,
                                                  len(rows))[:, None]
    table[:, 1:][filled] = np.fromiter(
        map(vocab._index.get, tokens, repeat(UNK_ID)), np.int64, len(tokens))
    return table


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / (fan_in + fan_out))


class TextEncoderModel:
    """Token + learned position embeddings, num_blocks post-LN transformer
    blocks (multi-head attention then a relu MLP), plus an MLM output head."""

    def __init__(self, vocab_size: int, dim: int = 64, num_heads: int = 4,
                 num_blocks: int = 2, max_len: int = 32, rng=0):
        if dim % num_heads != 0:
            raise ContractError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = _as_rng(rng)
        self.vocab_size = vocab_size
        self.dim = dim
        self.num_heads = num_heads
        self.num_blocks = num_blocks
        self.max_len = max_len
        p: dict[str, Tensor] = {}
        p["tok_emb"] = Tensor(rng.normal(size=(vocab_size, dim)) * 0.02, grad_enabled=True)
        p["pos_emb"] = Tensor(rng.normal(size=(max_len, dim)) * 0.02, grad_enabled=True)
        for i in range(num_blocks):
            for name in ("wq", "wk", "wv", "wo"):
                p[f"blk{i}_{name}"] = Tensor(_glorot(rng, dim, dim), grad_enabled=True)
            for name in ("bq", "bk", "bv", "bo"):
                p[f"blk{i}_{name}"] = Tensor(np.zeros(dim), grad_enabled=True)
            p[f"blk{i}_ff_w1"] = Tensor(_glorot(rng, dim, 4 * dim), grad_enabled=True)
            p[f"blk{i}_ff_b1"] = Tensor(np.zeros(4 * dim), grad_enabled=True)
            p[f"blk{i}_ff_w2"] = Tensor(_glorot(rng, 4 * dim, dim), grad_enabled=True)
            p[f"blk{i}_ff_b2"] = Tensor(np.zeros(dim), grad_enabled=True)
            for ln in ("ln1", "ln2"):
                p[f"blk{i}_{ln}_gain"] = Tensor(np.ones(dim), grad_enabled=True)
                p[f"blk{i}_{ln}_bias"] = Tensor(np.zeros(dim), grad_enabled=True)
        p["mlm_w"] = Tensor(_glorot(rng, dim, vocab_size), grad_enabled=True)
        p["mlm_b"] = Tensor(np.zeros(vocab_size), grad_enabled=True)
        self.params = p


def crop_padding(ids: np.ndarray) -> np.ndarray:
    """Drop all-pad trailing columns (column 0 is always [CLS])."""
    non_pad = ids != PAD_ID
    width = int(non_pad.any(axis=0).nonzero()[0][-1]) + 1
    return ids[:, :width]


def _forward_hidden(model: TextEncoderModel, ids: np.ndarray,
                    cls_only: bool = False) -> Tensor:
    """All-position hidden states, flattened to (B*T, dim).

    With cls_only the last block computes only the [CLS] rows and the result
    is (B, dim): its keys and values still span every position, but queries,
    attention, the output projection, both layer norms and the MLP run on
    the B rows that are read.  This equals the [CLS] rows of the all-position
    pass in real arithmetic; float summation order differs at the 1e-15
    level.
    """
    if ids.ndim != 2:
        raise ContractError(f"token batch must be 2-D, got shape {ids.shape}")
    b, t = ids.shape
    if t > model.max_len:
        raise ContractError(f"sequence length {t} exceeds max_len {model.max_len}")
    p = model.params
    f = model.dim
    h = model.num_heads
    dh = f // h

    hid = tg.add_tiled(tg.take_rows(p["tok_emb"], ids.ravel()), p["pos_emb"], t)

    # additive attention mask: 0 on real keys, -1e30 on padding
    mask = Tensor(np.where(ids == PAD_ID, -1e30, 0.0)[:, None, None, :])
    scale = 1.0 / np.sqrt(dh)
    for i in range(model.num_blocks):
        def heads(x, name, rows, axes=(0, 2, 1, 3)):
            lin = tg.linear(x, p[f"blk{i}_w{name}"], p[f"blk{i}_b{name}"])
            return tg.transpose(tg.reshape(lin, (b, rows, h, dh)), axes)

        k_t = heads(hid, "k", t, axes=(0, 2, 3, 1))  # (b, h, dh, t)
        v = heads(hid, "v", t)
        rows = t
        if cls_only and i == model.num_blocks - 1:
            hid = tg.take_strided(hid, t)
            rows = 1
        q = heads(hid, "q", rows)
        scores = tg.mul(tg.matmul(q, k_t), Tensor(scale))
        att = tg.softmax(tg.add(scores, mask), axis=-1)
        ctx = tg.transpose(tg.matmul(att, v), (0, 2, 1, 3))
        ctx = tg.reshape(ctx, (b * rows, f))
        out = tg.linear(ctx, p[f"blk{i}_wo"], p[f"blk{i}_bo"])
        hid = tg.layer_norm(tg.add(hid, out),
                            p[f"blk{i}_ln1_gain"], p[f"blk{i}_ln1_bias"])
        ff = tg.relu(tg.linear(hid, p[f"blk{i}_ff_w1"], p[f"blk{i}_ff_b1"]))
        ff = tg.linear(ff, p[f"blk{i}_ff_w2"], p[f"blk{i}_ff_b2"])
        hid = tg.layer_norm(tg.add(hid, ff),
                            p[f"blk{i}_ln2_gain"], p[f"blk{i}_ln2_bias"])
    return hid


def encode_cls(model: TextEncoderModel, token_batch: np.ndarray, *,
               crop: bool = True) -> Tensor:
    """(B, dim) [CLS] embeddings.

    Padding columns get exactly zero attention, so extra padding changes a
    row only in its last bits, through the summation order over keys.  By
    default the batch is cropped to its widest row; crop=False encodes at
    the given width, so a caller that always passes the same width (a type's
    whole token table, cropped once) gets each row's value independent of
    which other rows share the call, bit for bit.
    """
    ids = np.asarray(token_batch, dtype=np.int64)
    if crop:
        ids = crop_padding(ids)
    if ids.shape[0] != 1:
        return _forward_hidden(model, ids, cls_only=True)
    # BLAS sends a one-row product to gemv, whose last bits differ from the
    # gemm that any larger batch uses; a duplicated pair stays on gemm
    pair = _forward_hidden(model, np.repeat(ids, 2, axis=0), cls_only=True)
    return tg.take_rows(pair, [0])


def mlm_pretrain_step(model: TextEncoderModel, token_batch: np.ndarray,
                      mask_prob: float, rng=0):
    """Masked-token loss for one step: each content token is replaced by
    [MASK] with mask_prob, and the loss is mean cross-entropy of the original
    ids at masked positions only.  Returns (loss, masked_count); a draw that
    masks nothing yields a constant zero loss with count 0.
    """
    if not 0.0 <= mask_prob <= 1.0:
        raise ContractError(f"mask_prob must lie in [0, 1], got {mask_prob}")
    rng = _as_rng(rng)
    ids = crop_padding(np.asarray(token_batch, dtype=np.int64))
    b, t = ids.shape
    maskable = ids >= NUM_SPECIALS
    chosen = maskable & (rng.random(ids.shape) < mask_prob)
    count = int(chosen.sum())
    if count == 0:
        return Tensor(0.0), 0
    corrupted = ids.copy()
    corrupted[chosen] = MASK_ID
    hid = _forward_hidden(model, corrupted)
    rows = np.nonzero(chosen.ravel())[0]
    logits = tg.linear(tg.take_rows(hid, rows), model.params["mlm_w"],
                       model.params["mlm_b"])
    return tg.softmax_cross_entropy(logits, ids.ravel()[rows]), count
