import numpy as np
import pytest

from textgraph import graph as gr
from textgraph import rgcn
from textgraph import tensor as tg
from textgraph.errors import ContractError, ShapeError
from tests.test_tensor import assert_grads_match


def random_hetero(rng, max_nodes=50):
    """Two node types, A->B and B->B relations, random multigraph."""
    na = int(rng.integers(3, max_nodes // 2 + 1))
    nb = int(rng.integers(3, max_nodes // 2 + 1))
    m1 = int(rng.integers(1, 4 * na))
    m2 = int(rng.integers(1, 4 * nb))
    return gr.HeteroGraph(
        ["A", "B"], [na, nb], [[""] * na, [""] * nb],
        [gr.Relation("A", "r", "B"), gr.Relation("B", "s", "B")],
        [(rng.integers(0, na, m1), rng.integers(0, nb, m1)),
         (rng.integers(0, nb, m2), rng.integers(0, nb, m2))],
    )


def dense_reference(graph, feats, layers, aggregation, activate_flags):
    """Direct per-node computation from the raw edge arrays (no CSR, no
    sampling): out_n = act(W_self h_n + sum_r agg_{n'} W_r h_{n'})."""
    h = {t: feats[t].copy() for t in range(len(graph.node_types))}
    for layer, activate in zip(layers, activate_flags):
        new = {}
        for t in range(len(graph.node_types)):
            out = h[t] @ layer.w_self.data
            for mi, mrel in enumerate(graph.message_relations):
                if mrel.dst_type != t:
                    continue
                src_arr, dst_arr = graph.edges[mrel.relation_index]
                if mrel.reverse:
                    src_arr, dst_arr = dst_arr, src_arr
                for n in range(graph.node_counts[t]):
                    nbrs = src_arr[dst_arr == n]
                    if nbrs.size == 0:
                        continue
                    msg = h[mrel.src_type][nbrs] @ layer.w_rel[mi].data
                    agg = msg.sum(axis=0)
                    if aggregation == "mean":
                        agg /= nbrs.size
                    out[n] = out[n] + agg
            new[t] = np.maximum(out, 0.0) if activate else out
        h = new
    return h


def batch_features(graph, batch, feats):
    rows = np.stack([feats[t][l] for t, l in batch.source_refs.tolist()])
    return tg.Tensor(rows)


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_single_layer_matches_dense(aggregation):
    for seed in range(8):
        rng = np.random.default_rng(seed)
        g = random_hetero(rng)
        f = 6
        feats = {t: rng.normal(size=(g.node_counts[t], f)) for t in range(2)}
        stack = rgcn.RgcnStack(1, f, 16, len(g.message_relations),
                               aggregation, rng=seed)
        targets = [(t, l) for t in range(2) for l in range(g.node_counts[t])]
        batch = gr.sample_neighbors(g, targets, fanouts=10_000, num_layers=1, rng=0)
        out = rgcn.gnn_forward(stack, batch, batch_features(g, batch, feats))
        ref = dense_reference(g, feats, stack.layers, aggregation, [False])
        for i, (t, l) in enumerate(batch.target_refs.tolist()):
            np.testing.assert_allclose(out.data[i], ref[t][l], atol=1e-10)


def test_two_layer_stack_matches_dense():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        g = random_hetero(rng, max_nodes=30)
        f = 5
        feats = {t: rng.normal(size=(g.node_counts[t], f)) for t in range(2)}
        stack = rgcn.RgcnStack(2, f, 7, len(g.message_relations), "mean", rng=seed)
        targets = [(0, l) for l in range(g.node_counts[0])]
        batch = gr.sample_neighbors(g, targets, fanouts=10_000, num_layers=2, rng=0)
        out = rgcn.gnn_forward(stack, batch, batch_features(g, batch, feats))
        ref = dense_reference(g, feats, stack.layers, "mean", [True, False])
        for i, (t, l) in enumerate(batch.target_refs.tolist()):
            np.testing.assert_allclose(out.data[i], ref[t][l], atol=1e-10)


def test_stack_dims_sandwich():
    stack = rgcn.RgcnStack(3, 8, 32, 4, "mean", rng=0)
    assert [(l.in_dim, l.out_dim) for l in stack.layers] == [(8, 32), (32, 32), (32, 8)]
    one = rgcn.RgcnStack(1, 8, 32, 4, "mean", rng=0)
    assert [(l.in_dim, l.out_dim) for l in one.layers] == [(8, 8)]


def test_mean_divides_by_sampled_count():
    # B0 <- A0, A1 under r; mean halves the summed message
    g = gr.HeteroGraph(["A", "B"], [2, 1], [["", ""], [""]],
                       [gr.Relation("A", "r", "B")],
                       [(np.array([0, 1]), np.array([0, 0]))])
    feats = {0: np.array([[1.0, 0.0], [0.0, 1.0]]), 1: np.zeros((1, 2))}
    batch = gr.sample_neighbors(g, [(1, 0)], fanouts=5, num_layers=1, rng=0)
    for agg, expected_scale in (("sum", 1.0), ("mean", 0.5)):
        stack = rgcn.RgcnStack(1, 2, 2, 2, agg, rng=1)
        stack.layers[0].w_self.data[:] = 0.0
        stack.layers[0].w_rel[0].data[:] = np.eye(2)
        out = rgcn.gnn_forward(stack, batch, batch_features(g, batch, feats))
        np.testing.assert_allclose(out.data[0], [expected_scale, expected_scale])


def test_gnn_gradients_flow_to_all_weights():
    rng = np.random.default_rng(0)
    g = random_hetero(rng, max_nodes=12)
    f = 3
    feats = {t: rng.normal(size=(g.node_counts[t], f)) for t in range(2)}
    stack = rgcn.RgcnStack(2, f, 4, len(g.message_relations), "mean", rng=0)
    targets = [(0, 0), (0, 1), (1, 0)]
    batch = gr.sample_neighbors(g, targets, fanouts=100, num_layers=2, rng=0)
    proj = rng.normal(size=(3, f))
    x = batch_features(g, batch, feats)

    def build():
        out = rgcn.gnn_forward(stack, batch, x)
        return tg.tensor_sum(tg.mul(out, tg.Tensor(proj)))

    params = {"l0_self": stack.layers[0].w_self,
              "l0_r0": stack.layers[0].w_rel[0],
              "l0_r1": stack.layers[0].w_rel[1],
              "l1_self": stack.layers[1].w_self,
              "l1_r2": stack.layers[1].w_rel[2]}
    assert_grads_match(build, params, rtol=5e-3)


def test_type_embeddings_registered():
    stack = rgcn.RgcnStack(1, 4, 4, 2, "mean", type_embedding_counts={1: 7}, rng=0)
    assert stack.type_embeddings[1].shape == (7, 4)
    assert "type_emb_1" in stack.params()


def test_contract_errors():
    g = gr.HeteroGraph(["A"], [3], [[""] * 3], [gr.Relation("A", "r", "A")],
                       [(np.array([0, 1]), np.array([1, 2]))])
    batch = gr.sample_neighbors(g, [(0, 2)], fanouts=4, num_layers=2, rng=0)
    stack = rgcn.RgcnStack(1, 4, 4, 2, "mean", rng=0)
    with pytest.raises(ContractError, match="2 layers"):
        rgcn.gnn_forward(stack, batch, tg.Tensor(np.zeros((batch.num_sources, 4))))
    stack2 = rgcn.RgcnStack(2, 4, 4, 2, "mean", rng=0)
    with pytest.raises(ShapeError, match="feature rows"):
        rgcn.gnn_forward(stack2, batch, tg.Tensor(np.zeros((batch.num_sources + 1, 4))))
    with pytest.raises(ContractError, match="aggregation"):
        rgcn.RgcnLayer(2, 2, 2, "median")


def message_first_layer(layer, block, h_in, activate):
    """The per-message form: every message row times W_r, then scattered."""
    t = block.num_targets
    out = tg.matmul(tg.take_rows(h_in, np.arange(t)), layer.w_self)
    for w, (src_pos, dst_pos) in zip(layer.w_rel, block.edges):
        if src_pos.size == 0:
            continue
        agg = tg.segment_sum(tg.matmul(tg.take_rows(h_in, src_pos), w), dst_pos, t)
        if layer.aggregation == "mean":
            inv = 1.0 / np.maximum(np.bincount(dst_pos, minlength=t), 1.0)
            agg = tg.mul(agg, tg.Tensor(inv[:, None]))
        out = tg.add(out, agg)
    return tg.relu(out) if activate else out


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_layer_matches_message_first_formula(aggregation):
    """Aggregate-then-stacked-GEMM equals the per-message formula in value
    and gradient; a relation with no messages in the block gets no .grad."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        s, t = int(rng.integers(6, 40)), int(rng.integers(1, 6))
        sizes = rng.integers(1, 80, size=3)
        sizes[seed % 3] = 0
        if seed == 7:
            sizes[:] = 0
        edges = [(rng.integers(0, s, n), rng.integers(0, t, n)) for n in sizes]
        block = gr.Block(np.zeros((s, 2), dtype=np.int64), t, edges)
        layer = rgcn.RgcnLayer(5, 4, 3, aggregation, rng=seed)
        h = tg.Tensor(rng.normal(size=(s, 5)), grad_enabled=True)
        proj = tg.Tensor(rng.normal(size=(t, 4)))
        params = [h, layer.w_self] + layer.w_rel
        results = []
        for forward in (rgcn.rgcn_layer_forward, message_first_layer):
            for p in params:
                p.grad = None
            with tg.Tape() as tape:
                out = forward(layer, block, h, activate=bool(seed % 2))
                loss = tg.tensor_sum(tg.mul(out, proj))
            tg.backward(loss, tape)
            results.append((out.data, [p.grad for p in params]))
        (out, grads), (ref, ref_grads) = results
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        for k, n in enumerate(sizes):
            assert (grads[2 + k] is None) == (n == 0) == (ref_grads[2 + k] is None)
        for g, want in zip(grads, ref_grads):
            if want is not None:
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)
