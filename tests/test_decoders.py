import numpy as np
import pytest

from textgraph import decoders as dec
from textgraph import graph as gr
from textgraph import negatives as ng
from textgraph import tensor as tg
from textgraph.errors import ShapeError
from tests.test_tensor import assert_grads_match


def test_distmult_matches_direct_sum(rng):
    params = dec.DistMultParams(3, 5, rng=0)
    h = rng.normal(size=(4, 5))
    t = rng.normal(size=(4, 5))
    rels = np.array([0, 2, 1, 2])
    scores = dec.distmult_scores(tg.Tensor(h), rels, tg.Tensor(t), params).data
    for i in range(4):
        want = np.sum(h[i] * params.rel_vectors.data[rels[i]] * t[i])
        assert abs(scores[i] - want) < 1e-12


def test_distmult_bad_relation_and_shape(rng):
    params = dec.DistMultParams(2, 4, rng=0)
    h = tg.Tensor(rng.normal(size=(1, 4)))
    with pytest.raises(IndexError):
        dec.distmult_scores(h, [5], h, params)
    with pytest.raises(ShapeError):
        dec.distmult_scores(tg.Tensor(np.zeros((1, 3))), [0], h, params)


def _toy_batch():
    g = gr.HeteroGraph(["A", "B"], [4, 4], [[""] * 4, [""] * 4],
                       [gr.Relation("A", "r", "B")],
                       [(np.array([0, 1]), np.array([0, 1]))])
    return ng.corrupt_independent(g, [0, 0], [0, 1], [0, 1], k=1, rng=0)


def test_link_loss_matches_numpy():
    batch = _toy_batch()
    scores = np.array([2.0, -1.0, 0.5, 3.0])
    loss = dec.link_loss(batch, tg.Tensor(scores)).item()
    want = np.mean(np.log1p(np.exp(-batch.labels * scores)))
    assert abs(loss - want) < 1e-12
    with pytest.raises(ShapeError):
        dec.link_loss(batch, tg.Tensor(np.zeros(3)))


def test_link_loss_rewards_separation():
    batch = _toy_batch()
    good = dec.link_loss(batch, tg.Tensor(np.array([8.0, 8.0, -8.0, -8.0]))).item()
    bad = dec.link_loss(batch, tg.Tensor(np.array([-8.0, -8.0, 8.0, 8.0]))).item()
    assert good < 1e-3 < bad


def test_node_head_and_loss(rng):
    head = dec.NodeClassifierHead(6, 3, rng=0)
    h = tg.Tensor(rng.normal(size=(5, 6)))
    logits = dec.node_logits(head, h)
    assert logits.shape == (5, 3)
    want = h.data @ head.proj.data + head.bias.data
    np.testing.assert_allclose(logits.data, want, atol=1e-12)
    loss = dec.node_loss(head, h, [0, 1, 2, 0, 1])
    assert loss.item() > 0.0
    with pytest.raises(IndexError):
        dec.node_loss(head, h, [0, 1, 2, 0, 3])


def test_edge_head_concat_order_matters(rng):
    head = dec.EdgeClassifierHead(4, 3, rng=2)
    a = tg.Tensor(rng.normal(size=(2, 4)))
    b = tg.Tensor(rng.normal(size=(2, 4)))
    fwd = dec.edge_logits(head, a, b).data
    want = np.concatenate([a.data, b.data], axis=1) @ head.w_ec.data + head.bias.data
    np.testing.assert_allclose(fwd, want, atol=1e-12)
    rev = dec.edge_logits(head, b, a).data
    assert np.abs(fwd - rev).max() > 1e-6
    with pytest.raises(ShapeError):
        dec.edge_logits(head, a, tg.Tensor(np.zeros((2, 5))))


def test_decoder_gradients(rng):
    params = dec.DistMultParams(2, 3, rng=3)
    h = tg.Tensor(rng.normal(size=(4, 3)), grad_enabled=True)
    t = tg.Tensor(rng.normal(size=(4, 3)), grad_enabled=True)
    batch = _toy_batch()

    def build():
        scores = dec.distmult_scores(h, batch.rels, t, params)
        return dec.link_loss(batch, scores)

    assert_grads_match(build, {"h": h, "t": t, "rel": params.rel_vectors})

    ehead = dec.EdgeClassifierHead(3, 2, rng=4)

    def build_edge():
        return dec.edge_loss(ehead, h, t, [0, 1, 0, 1])

    assert_grads_match(build_edge, {"w": ehead.w_ec, "b": ehead.bias,
                                    "h": h, "t": t})
