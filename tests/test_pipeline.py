"""Stage plans, budget split, embedding cache, feature assembly, training."""

import gc
import json
import weakref

import numpy as np
import pytest

import textgraph.decoders as dec
import textgraph.features as ft
import textgraph.pipeline as pl
import textgraph.tensor as tg
import textgraph.text as tx
from textgraph.errors import ContractError, LoadError, NumericsError
from textgraph.graph import (TEST, TRAIN, VALID, HeteroGraph, Relation,
                             SyntheticSpec, TargetSample, generate_synthetic,
                             sample_neighbors)


SMALL_SPEC = SyntheticSpec(nodes_per_type=40, clusters=2, intra_p=0.15,
                           inter_p=0.02, vocab_size=40, tokens_per_node=5,
                           seed=5)


@pytest.fixture(scope="module")
def small_graph():
    return generate_synthetic(SMALL_SPEC)


def quick_settings(**kw):
    base = dict(task="link", stages=("WarmStartGNN",), epochs=(1,),
                batch_size=8, negatives_k=2, fanouts=3, num_layers=2,
                hidden_dim=32, budget_train_nodes=8, budget_infer_batch=16,
                cache_capacity=256, cache_staleness=5, seed=0)
    base.update(kw)
    return pl.TrainSettings(**base)


# ------------------------------------------------------------- budget split


def test_split_train_inference_partitions_rows():
    rng = np.random.default_rng(0)
    train, infer = ft.split_train_inference(100, 30, rng)
    assert train.size == 30 and infer.size == 70
    combined = np.sort(np.concatenate([train, infer]))
    assert np.array_equal(combined, np.arange(100))


def test_split_train_inference_small_pool_all_train():
    train, infer = ft.split_train_inference(5, 10, np.random.default_rng(0))
    assert np.array_equal(train, np.arange(5))
    assert infer.size == 0


def test_split_train_inference_deterministic():
    a = ft.split_train_inference(50, 10, np.random.default_rng(3))
    b = ft.split_train_inference(50, 10, np.random.default_rng(3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ContractError):
        ft.split_train_inference(10, -1, np.random.default_rng(0))


# ------------------------------------------------------------------- cache


def _get(cache, key, width=1):
    """The cached row for key, or None on a miss."""
    out = np.empty((1, width))
    return None if cache.get_many(np.array([key]), out).size else out[0]


def _put(cache, key, value):
    cache.put_many(np.array([key]), value[None])


def test_cache_hit_then_staleness_expiry():
    cache = pl.EmbeddingCache(capacity=4, staleness_limit=2)
    v = np.ones(3)
    cache.version = 10
    _put(cache, 0, v)
    cache.version = 12
    assert _get(cache, 0, 3).tobytes() == v.tobytes()  # age 2 == limit
    cache.advance()
    assert _get(cache, 0, 3) is None                   # age 3 expired
    assert cache.hits == 1 and cache.misses == 1 and cache.stale_drops == 1


def test_cache_lru_eviction_order():
    cache = pl.EmbeddingCache(capacity=2, staleness_limit=100)
    _put(cache, 0, np.zeros(1))
    _put(cache, 1, np.zeros(1))
    assert _get(cache, 0) is not None              # refresh 0
    _put(cache, 2, np.zeros(1))                    # evicts 1
    assert _get(cache, 1) is None
    assert _get(cache, 0) is not None and _get(cache, 2) is not None
    assert cache.evictions == 1


def test_cache_capacity_zero_stores_nothing():
    cache = pl.EmbeddingCache(capacity=0, staleness_limit=5)
    _put(cache, 0, np.zeros(1))
    assert len(cache) == 0 and _get(cache, 0) is None


def test_cache_clear_keeps_counters():
    cache = pl.EmbeddingCache(capacity=4, staleness_limit=5)
    _put(cache, 0, np.zeros(1))
    _get(cache, 0)
    cache.clear()
    assert len(cache) == 0 and cache.hits == 1

    with pytest.raises(ContractError):
        pl.EmbeddingCache(-1, 0)
    with pytest.raises(ContractError):
        pl.EmbeddingCache(0, -1)


# ------------------------------------------------------------------ models


def test_build_models_heads_match_labels(small_graph):
    models = pl.build_models(small_graph, quick_settings())
    assert models.node_head is not None      # synthetic has cluster labels
    assert models.edge_head is not None
    assert models.node_head.num_classes == 2
    groups = models.param_groups()
    assert set(groups) == {"lm", "gnn", "distmult", "node_head", "edge_head"}


def test_stage_trainable_groups_table():
    assert pl.stage_trainable_groups("PreFineTuneLM", "node") == {"lm", "distmult"}
    assert pl.stage_trainable_groups("WarmStartGNN", "link") == {"gnn", "distmult"}
    assert pl.stage_trainable_groups("EndToEnd", "node") == {"lm", "gnn", "node_head"}
    assert pl.stage_trainable_groups("HeadOnly", "edge") == {"edge_head"}
    with pytest.raises(ContractError):
        pl.stage_trainable_groups("Whatever", "link")


def test_set_trainable_flips_grad_flags(small_graph):
    models = pl.build_models(small_graph, quick_settings())
    models.set_trainable({"gnn"})
    assert all(not p.grad_enabled for p in models.encoder.params.values())
    assert all(p.grad_enabled for p in models.gnn.params().values())


# ---------------------------------------------------------------- features


def _all_refs_of_type(graph, t):
    n = graph.node_counts[t]
    return np.stack([np.full(n, t, dtype=np.int64), np.arange(n)], axis=1)


def test_assemble_features_matches_direct_encode(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    cache = pl.EmbeddingCache(256, 5)
    refs = _all_refs_of_type(small_graph, 0)[:20]
    feats, stats = pl.assemble_features(
        models, small_graph, refs, cache=cache, train_nodes=0, infer_batch=16,
        rng=np.random.default_rng(0))
    table = pl.token_table(models, small_graph, 0)
    with tg.no_grad():
        chunk0 = tx.encode_cls(models.encoder, table[0:16]).data
        chunk1 = tx.encode_cls(models.encoder, table[16:32]).data
    # fixed chunk layout: rows 0..15 from chunk 0, rows 16..19 from chunk 1
    assert np.array_equal(feats.data, np.concatenate([chunk0, chunk1[:4]]))
    assert stats["train_rows"] == 0 and stats["infer_rows"] == 20


def test_assemble_features_cache_round_trip_bit_identical(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    cache = pl.EmbeddingCache(256, 5)
    refs = _all_refs_of_type(small_graph, 1)[5:25]
    first, s1 = pl.assemble_features(models, small_graph, refs, cache=cache,
                                     train_nodes=0, infer_batch=16,
                                     rng=np.random.default_rng(0))
    cache.advance()
    second, s2 = pl.assemble_features(models, small_graph, refs, cache=cache,
                                      train_nodes=0, infer_batch=16,
                                      rng=np.random.default_rng(9))
    assert s2["hits"] == 20 and s2["misses"] == 0
    assert np.array_equal(first.data, second.data)


def test_assemble_features_budget_respected(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    refs = np.concatenate([_all_refs_of_type(small_graph, 0),
                           _all_refs_of_type(small_graph, 1)])
    feats, stats = pl.assemble_features(
        models, small_graph, refs, cache=pl.EmbeddingCache(256, 5),
        train_nodes=8, infer_batch=16, rng=np.random.default_rng(0))
    assert stats["train_rows"] == 8
    assert stats["infer_rows"] == refs.shape[0] - 8
    assert feats.data.shape == (refs.shape[0], settings.dim)
    with pytest.raises(ContractError):
        pl.assemble_features(models, small_graph, np.empty((0, 2), dtype=np.int64),
                             cache=pl.EmbeddingCache(0, 0), train_nodes=0,
                             infer_batch=16, rng=np.random.default_rng(0))


def test_assemble_features_tape_rows_get_gradients(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    models.set_trainable({"lm"})
    refs = _all_refs_of_type(small_graph, 0)[:12]
    with tg.Tape() as tape:
        feats, stats = pl.assemble_features(
            models, small_graph, refs, cache=pl.EmbeddingCache(64, 5),
            train_nodes=4, infer_batch=8, rng=np.random.default_rng(0))
        loss = tg.tensor_sum(tg.mul(feats, feats))
        tg.backward(loss, tape)
    emb_grad = models.encoder.params["tok_emb"].grad
    assert emb_grad is not None and np.abs(emb_grad).sum() > 0
    assert stats["train_rows"] == 4


def test_cache_never_serves_one_types_row_for_anothers(small_graph):
    """Rows are keyed by global node id: local id 3 of type 0 and local id 3
    of type 1 are two entries, each served only for its own node."""
    models = pl.build_models(small_graph, quick_settings(), rng=1)
    cache = pl.EmbeddingCache(256, 5)

    def assemble(refs, cache=cache):
        feats, stats = pl.assemble_features(
            models, small_graph, np.array(refs), cache=cache, train_nodes=0,
            infer_batch=16, rng=0)
        return feats.data, stats

    first, _ = assemble([[0, 3]])
    other, stats = assemble([[1, 3]])
    assert stats["hits"] == 0 and stats["misses"] == 1 and len(cache) == 2
    fresh, _ = assemble([[1, 3]], cache=pl.EmbeddingCache(0, 0))
    assert other.tobytes() == fresh.tobytes() != first.tobytes()
    both, stats = assemble([[1, 3], [0, 3]])
    assert stats["hits"] == 2
    assert both.tobytes() == np.concatenate([other, first]).tobytes()


# ------------------------------------------------------------ training runs


def test_run_stagewise_each_task(small_graph):
    for task in ("link", "node", "edge"):
        settings = quick_settings(task=task)
        models, log, final = pl.run_stagewise(small_graph, settings)
        steps = [r for r in log.records if r["kind"] == "step"]
        assert steps and all(np.isfinite(r["loss"]) for r in steps)
        metric = pl.primary_metric(task)
        assert metric in final and 0.0 <= final[metric] <= 1.0


def test_pre_fine_tune_lm_draws_a_small_pool_like_every_stage(small_graph,
                                                              monkeypatch):
    """A texted train pool smaller than batch_size is drawn by
    TargetSample.draw, the rule of sample_targets: with replacement, and
    flagged."""
    pool = pl._texted_link_pool(small_graph)
    settings = quick_settings(stages=("PreFineTuneLM",), batch_size=len(pool) + 3)
    draws = []
    real_draw = TargetSample.draw

    def spy(self, *args, **kwargs):
        batch = real_draw(self, *args, **kwargs)
        draws.append((len(self), batch))
        return batch

    monkeypatch.setattr(TargetSample, "draw", spy)
    models = pl.build_models(small_graph, settings, rng=0)
    pl.train_stage(models, small_graph, "PreFineTuneLM", settings=settings,
                   epochs=1, cache=pl.EmbeddingCache(256, 5), log=pl.RunLog(),
                   rng=np.random.default_rng(0))
    assert len(draws) == 1
    size, batch = draws[0]
    assert size == len(pool) and len(batch) == settings.batch_size
    assert batch.with_replacement


def test_run_stagewise_deterministic(small_graph):
    settings = quick_settings(stages=("PreFineTuneLM", "WarmStartGNN"),
                              epochs=(1, 1), mlm_epochs=1)
    _, log_a, final_a = pl.run_stagewise(small_graph, settings)
    _, log_b, final_b = pl.run_stagewise(small_graph, settings)
    strip = lambda recs: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                          for r in recs]
    assert strip(log_a.records) == strip(log_b.records)
    assert final_a == final_b


def test_head_only_stage_freezes_everything_else(small_graph):
    settings = quick_settings(task="node", stages=("HeadOnly",), epochs=(1,))
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(2))
    before = {k: v.data.copy() for k, v in models.all_params().items()
              if not k.startswith("node_head/")}
    head_before = models.node_head.proj.data.copy()
    log = pl.RunLog()
    pl.train_stage(models, small_graph, "HeadOnly", settings=settings,
                   epochs=1, cache=pl.EmbeddingCache(64, 5), log=log,
                   rng=np.random.default_rng(0))
    for k, v in before.items():
        assert np.array_equal(models.all_params()[k].data, v), k
    assert not np.array_equal(models.node_head.proj.data, head_before)


def test_cache_disabled_and_staleness_zero_equal_losses(small_graph):
    """Serving only same-step entries can never change a step's loss."""
    losses = {}
    for name, (cap, stale) in {"off": (0, 0), "stale0": (4096, 0)}.items():
        settings = quick_settings(stages=("EndToEnd",), epochs=(2,),
                                  cache_capacity=cap, cache_staleness=stale)
        _, log, _ = pl.run_stagewise(small_graph, settings)
        losses[name] = [r["loss"] for r in log.records if r["kind"] == "step"]
    assert losses["off"] == losses["stale0"]


def test_stale_cache_changes_little_but_hits(small_graph):
    settings = quick_settings(stages=("EndToEnd",), epochs=(2,),
                              cache_capacity=4096, cache_staleness=8)
    _, log, final = pl.run_stagewise(small_graph, settings)
    last = [r for r in log.records if r["kind"] == "step"][-1]
    assert last["cache_hit_rate"] > 0.0
    assert np.isfinite(final["mrr"])


def test_validate_plan_errors(small_graph):
    models = pl.build_models(small_graph, quick_settings())
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph, quick_settings(task="ranking"), models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph, quick_settings(stages=("Nope",)), models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph, quick_settings(stages=(), epochs=()),
                         models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph,
                         quick_settings(stages=("EndToEnd",), epochs=(1, 1)),
                         models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph,
                         quick_settings(stages=("EndToEnd",), epochs=(0,)),
                         models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph,
                         quick_settings(target_mode="partition_local",
                                        partitions=1), models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph,
                         quick_settings(stage_learning_rates=(1e-3, 1e-4)),
                         models)
    with pytest.raises(ContractError):
        pl.validate_plan(small_graph,
                         quick_settings(stage_learning_rates=(0.0,)), models)


def test_stage_learning_rates_apply(small_graph):
    # a per-stage rate equal to the global one reproduces the default run;
    # a different rate changes the trained weights
    base = quick_settings(stages=("WarmStartGNN",), epochs=(1,))
    same = quick_settings(stages=("WarmStartGNN",), epochs=(1,),
                          stage_learning_rates=(base.learning_rate,))
    slow = quick_settings(stages=("WarmStartGNN",), epochs=(1,),
                          stage_learning_rates=(1e-5,))
    _, log_a, fin_a = pl.run_stagewise(small_graph, base)
    _, log_b, fin_b = pl.run_stagewise(small_graph, same)
    _, _, fin_c = pl.run_stagewise(small_graph, slow)
    steps_a = [r["loss"] for r in log_a.records if r["kind"] == "step"]
    steps_b = [r["loss"] for r in log_b.records if r["kind"] == "step"]
    assert steps_a == steps_b and fin_a == fin_b
    assert fin_c != fin_a


def test_partition_local_training_runs(small_graph):
    settings = quick_settings(target_mode="partition_local", partitions=4)
    _, log, final = pl.run_stagewise(small_graph, settings)
    assert np.isfinite(final["mrr"])


def test_mlm_warmup_changes_encoder_only(small_graph):
    settings = quick_settings(mlm_epochs=1)
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    gnn_before = {k: v.data.copy() for k, v in models.gnn.params().items()}
    enc_before = models.encoder.params["tok_emb"].data.copy()
    steps = pl.mlm_warmup(models, small_graph, settings, pl.RunLog(),
                          np.random.default_rng(1))
    assert steps == -(-80 // settings.batch_size)
    assert not np.array_equal(models.encoder.params["tok_emb"].data, enc_before)
    for k, v in gnn_before.items():
        assert np.array_equal(models.gnn.params()[k].data, v)


# ------------------------------------------------------------- evaluation


def test_token_table_follows_the_bundle_vocab():
    """Two bundles with different vocabularies on one graph object each get
    their own vocab's ids."""
    graph = generate_synthetic(SyntheticSpec(nodes_per_type=20, seed=2))
    a = pl.build_models(graph, quick_settings(), rng=0)
    b = pl.build_models(graph, quick_settings(), rng=0)
    b.vocab = tx.Vocab(list(reversed(a.vocab.tokens)))
    pl.token_table(a, graph, 0)
    expected = tx.tokenize_batch(b.vocab, graph.texts[0], b.max_len)
    assert not np.array_equal(expected, pl.token_table(a, graph, 0))
    np.testing.assert_array_equal(pl.token_table(b, graph, 0), expected)


def test_a_graph_keeps_token_tables_and_eval_rows_for_the_last_bundle_only():
    """Once a second bundle has been evaluated on the graph, the first one's
    vocab is held by nothing the graph keeps; repeated runs on one graph
    leave one token table per texted type."""
    graph = generate_synthetic(SMALL_SPEC)
    first = pl.build_models(graph, quick_settings(), rng=0)
    second = pl.build_models(graph, quick_settings(), rng=1)
    for models in (first, second):
        pl.evaluate(models, graph, "link", VALID)
    vocab = weakref.ref(first.vocab)
    del first
    gc.collect()
    assert vocab() is None

    for _ in range(3):
        pl.run_stagewise(graph, quick_settings())
    tables = [key for key in graph._cache
              if isinstance(key, tuple) and key[0] == "tokens"]
    assert len(tables) == int(graph.type_has_text.sum())


def test_full_graph_embeddings_cls_matches_encoder(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=3)
    emb = pl.full_graph_embeddings(models, small_graph, representation="cls")
    assert emb.shape == (small_graph.total_nodes, settings.dim)
    table = pl.token_table(models, small_graph, 1)
    with tg.no_grad():
        direct = tx.encode_cls(models.encoder, table[:16]).data
    base = small_graph.type_offsets[1]
    assert np.array_equal(emb[base:base + 16], direct)



def test_saturating_fanout_sees_repeated_edges(monkeypatch):
    """Query 0 buys product 0 three times, so it hears 4 messages, more than
    either type has nodes; the saturating eval still passes every message."""
    graph = HeteroGraph(["q", "p"], [2, 2], [["a b", "b"], ["a", "b a"]],
                        [Relation("q", "purchase", "p")],
                        [(np.array([0, 0, 0, 0, 1]), np.array([0, 0, 0, 1, 1]))])
    batches = []

    def recording(*args, **kwargs):
        batches.append(sample_neighbors(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(ft, "sample_neighbors", recording)
    models = pl.build_models(graph, quick_settings(num_layers=1))
    pl.full_graph_embeddings(models, graph)
    block, = batches[0].blocks
    assert sum(src.size for src, _ in block.edges) == 2 * graph.total_edges

def test_evaluate_all_tasks_bounded(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=4)
    for task, key in (("link", "mrr"), ("node", "accuracy"), ("edge", "macro_f1")):
        out = pl.evaluate(models, small_graph, task, VALID)
        assert 0.0 <= out[key] <= 1.0
    with pytest.raises(ContractError):
        pl.evaluate(models, small_graph, "nope", VALID)


def test_evaluate_gnn_deterministic(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=4)
    a = pl.evaluate(models, small_graph, "link", TEST)
    b = pl.evaluate(models, small_graph, "link", TEST)
    assert a == b


# ------------------------------------------------------------- bundle round


def test_bundle_round_trip(tmp_path, small_graph):
    settings = quick_settings()
    models, _, _ = pl.run_stagewise(small_graph, settings)
    stem = str(tmp_path / "run1")
    manifest = pl.save_bundle(stem, models, small_graph, settings)
    assert manifest.endswith(".json")
    loaded = pl.load_bundle(stem, small_graph)
    for name, p in models.all_params().items():
        assert np.array_equal(loaded.all_params()[name].data, p.data), name
    before = pl.full_graph_embeddings(models, small_graph)
    after = pl.full_graph_embeddings(loaded, small_graph)
    assert np.array_equal(before, after)


def test_bundle_rejects_mismatched_graph(tmp_path, small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings)
    stem = str(tmp_path / "run2")
    pl.save_bundle(stem, models, small_graph, settings)
    other = generate_synthetic(SyntheticSpec(
        nodes_per_type=30, clusters=3, intra_p=0.2, inter_p=0.02,
        vocab_size=30, tokens_per_node=4, seed=9))
    with pytest.raises(LoadError):
        pl.load_bundle(stem, other)


# ---------------------------------------- encoder-version cache and eval rows


def _texted_rows(graph):
    return sum(c for t, c in enumerate(graph.node_counts) if graph.has_text(t))


def _count_encoded_rows(monkeypatch):
    """Rows passed to every text encode from now on, one entry per call."""
    encoded = []
    real_encode = tx.encode_cls

    def spy(model, tokens, **kwargs):
        encoded.append(tokens.shape[0])
        return real_encode(model, tokens, **kwargs)

    monkeypatch.setattr(tx, "encode_cls", spy)
    return encoded


def _scratch_evaluate(models, *args, **kwargs):
    """evaluate() on a freshly generated copy of small_graph, which holds no
    rows from earlier evals."""
    return pl.evaluate(models, generate_synthetic(SMALL_SPEC), *args, **kwargs)


def test_frozen_encoder_cache_never_goes_stale(small_graph, monkeypatch):
    """A frozen encoder never ages a cached row: a stage longer than the
    staleness limit drops nothing and encodes every texted row at most once,
    in training and across all its evals."""
    settings = quick_settings(task="node", cache_staleness=2)
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache = pl.EmbeddingCache(256, 2)
    log = pl.RunLog()
    encoded = _count_encoded_rows(monkeypatch)
    pl.train_stage(models, small_graph, "WarmStartGNN", settings=settings,
                   epochs=3, cache=cache, log=log,
                   rng=np.random.default_rng(0))
    steps = [r for r in log.records if r["kind"] == "step"]
    texted = _texted_rows(small_graph)
    assert len(steps) > cache.staleness_limit
    assert cache.version == 0
    assert cache.stale_drops == 0 and cache.evictions == 0
    train_rows = sum(r["encoded_rows"] for r in steps)
    assert train_rows <= texted
    assert sum(r["cache_hits"] for r in steps) == cache.hits
    assert sum(r["cache_misses"] for r in steps) == cache.misses
    # three evals, one encode
    assert sum(encoded) - train_rows == texted


def test_training_stage_advances_encoder_version(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache = pl.EmbeddingCache(256, 5)
    step, _ = pl.train_stage(models, small_graph, "EndToEnd", settings=settings,
                             epochs=1, cache=cache, log=pl.RunLog(),
                             rng=np.random.default_rng(0))
    # one advance per step
    assert cache.version == step


def test_warm_start_then_end_to_end_staleness_zero_equals_cache_off(small_graph):
    """Rows cached under the frozen encoder stay exact until the encoder's
    first update, so staleness 0 still reproduces the cache-free run."""
    losses, finals = {}, {}
    for name, (cap, stale) in {"off": (0, 0), "stale0": (4096, 0)}.items():
        settings = quick_settings(stages=("WarmStartGNN", "EndToEnd"),
                                  epochs=(2, 1), cache_capacity=cap,
                                  cache_staleness=stale)
        _, log, finals[name] = pl.run_stagewise(small_graph, settings)
        losses[name] = [r["loss"] for r in log.records if r["kind"] == "step"]
    assert losses["off"] == losses["stale0"]
    assert finals["off"] == finals["stale0"]


def test_run_stagewise_final_eval_equals_scratch_eval(small_graph):
    settings = quick_settings(stages=("WarmStartGNN", "EndToEnd"), epochs=(2, 2))
    models, _, final = pl.run_stagewise(small_graph, settings)
    assert final == pl.evaluate(models, small_graph, "link", TEST)


def test_per_epoch_eval_negatives_leave_training_stream_alone(small_graph,
                                                            monkeypatch):
    """With every tail type over the full-corruption limit, per-epoch evals
    sample their negatives; the training steps after them do not change."""
    def step_losses():
        log = pl.RunLog()
        pl.run_stagewise(small_graph, quick_settings(epochs=(2,)), log=log)
        return [r["loss"] for r in log.records if r["kind"] == "step"]

    full = step_losses()
    monkeypatch.setattr(pl, "EVAL_FULL_CORRUPTION_LIMIT", 0)
    assert step_losses() == full


def test_eval_rows_equal_scratch_eval_after_best_epoch_restore(small_graph,
                                                               monkeypatch):
    """Epoch 0 is made the best, so the stage restores pre-update encoder
    weights; the rows of the later eval must then not be served."""
    settings = quick_settings()
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    real_evaluate = pl.evaluate
    scores = iter([1.0, 0.0])

    def epoch_zero_best(*args, **kwargs):
        real_evaluate(*args, **kwargs)  # encodes rows like the real loop
        return {"mrr": next(scores)}

    monkeypatch.setattr(pl, "evaluate", epoch_zero_best)
    pl.train_stage(models, small_graph, "EndToEnd", settings=settings,
                   epochs=2, cache=pl.EmbeddingCache(256, 5), log=pl.RunLog(),
                   rng=np.random.default_rng(0))
    monkeypatch.undo()

    encoded = _count_encoded_rows(monkeypatch)
    scratch = pl.full_graph_embeddings(models, generate_synthetic(SMALL_SPEC))
    scratch_rows = sum(encoded)
    emb = pl.full_graph_embeddings(models, small_graph)
    # the epoch-1 eval's rows no longer match the weights: all re-encoded
    assert sum(encoded) == 2 * scratch_rows == 2 * _texted_rows(small_graph)
    assert emb.tobytes() == scratch.tobytes()
    for representation in ("gnn", "cls"):
        kw = dict(representation=representation)
        assert pl.evaluate(models, small_graph, "link", VALID, **kw) == \
            _scratch_evaluate(models, "link", VALID, **kw)
    # the two scratch evals encode; the evals on small_graph reuse their rows
    assert sum(encoded) == 4 * scratch_rows


def test_frozen_stage_after_last_epoch_best_reuses_eval_rows(small_graph,
                                                            monkeypatch):
    """A 1-epoch encoder-training stage keeps its last (and best) weights, so
    the next frozen stage's first eval encodes nothing and still equals a
    scratch eval byte for byte."""
    settings = quick_settings()
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache = pl.EmbeddingCache(256, 5)
    kw = dict(settings=settings, cache=cache, log=pl.RunLog())
    pl.train_stage(models, small_graph, "EndToEnd", epochs=1,
                   rng=np.random.default_rng(0), **kw)
    assert len(cache) == 0

    evals = []
    real_evaluate = pl.evaluate

    def recording(*args, **kwargs):
        before = len(encoded)
        result = real_evaluate(*args, **kwargs)
        rows = sum(encoded[before:])
        emb = pl.full_graph_embeddings(models, small_graph)
        scratch_emb = pl.full_graph_embeddings(models,
                                               generate_synthetic(SMALL_SPEC))
        scratch = real_evaluate(models, generate_synthetic(SMALL_SPEC),
                                *args[2:], **kwargs)
        evals.append((rows, result, scratch,
                      emb.tobytes() == scratch_emb.tobytes()))
        return result

    encoded = _count_encoded_rows(monkeypatch)
    monkeypatch.setattr(pl, "evaluate", recording)
    pl.train_stage(models, small_graph, "WarmStartGNN", epochs=1,
                   rng=np.random.default_rng(1), **kw)
    rows, result, scratch, same_embeddings = evals[0]
    assert rows == 0
    assert json.dumps(result) == json.dumps(scratch)
    assert same_embeddings


def test_in_place_encoder_edit_makes_the_next_eval_re_encode(small_graph,
                                                             monkeypatch):
    """An encoder weight edited in place, even a 0.0 turned -0.0, is seen:
    the next eval encodes every texted row again and equals an eval on a
    fresh graph byte for byte."""
    models = pl.build_models(small_graph, quick_settings(), rng=6)
    pl.evaluate(models, small_graph, "link", VALID)
    encoded = _count_encoded_rows(monkeypatch)
    texted = _texted_rows(small_graph)
    bias = models.encoder.params["blk0_bq"].data
    assert bias[0] == 0.0
    bias[0] = -0.0
    pl.evaluate(models, small_graph, "link", VALID)
    assert sum(encoded) == texted

    models.encoder.params["tok_emb"].data[5, 0] += 0.5
    before = sum(encoded)
    result = pl.evaluate(models, small_graph, "link", VALID)
    assert sum(encoded) - before == texted
    assert json.dumps(result) == json.dumps(
        _scratch_evaluate(models, "link", VALID))


def test_gnn_only_weight_change_re_encodes_nothing(small_graph, monkeypatch):
    models = pl.build_models(small_graph, quick_settings(), rng=7)
    first = pl.full_graph_embeddings(models, small_graph)
    encoded = _count_encoded_rows(monkeypatch)
    rng = np.random.default_rng(0)
    for p in models.gnn.params().values():
        p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
    assert not np.array_equal(pl.full_graph_embeddings(models, small_graph),
                              first)
    result = pl.evaluate(models, small_graph, "link", VALID)
    assert encoded == []
    assert json.dumps(result) == json.dumps(
        _scratch_evaluate(models, "link", VALID))


def test_evals_under_unchanged_weights_encode_each_row_once(small_graph,
                                                            monkeypatch):
    models = pl.build_models(small_graph, quick_settings(), rng=8)
    encoded = _count_encoded_rows(monkeypatch)
    pl.evaluate(models, small_graph, "link", VALID)
    assert sum(encoded) == _texted_rows(small_graph)
    pl.evaluate(models, small_graph, "link", TEST, representation="cls")
    assert sum(encoded) == _texted_rows(small_graph)


def test_nograd_encodes_only_misses_within_call_cap(small_graph, monkeypatch):
    """A no-grad assemble encodes each missed row once and nothing else, in
    calls of at most infer_batch rows; an overlapping second call
    encodes only the rows the first one did not."""
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    infer_batch = 16
    calls = []
    real_encode = tx.encode_cls

    def spy(model, tokens, **kw):
        calls.append(tokens.shape[0])
        return real_encode(model, tokens, **kw)

    monkeypatch.setattr(tx, "encode_cls", spy)
    cache = pl.EmbeddingCache(256, 5)
    refs = np.concatenate([_all_refs_of_type(small_graph, 0)[[30, 3, 17, 9]],
                           _all_refs_of_type(small_graph, 1)[:37]])
    _, first = pl.assemble_features(models, small_graph, refs, cache=cache,
                                    train_nodes=0, infer_batch=infer_batch,
                                    rng=0)
    assert first["misses"] == refs.shape[0]
    assert first["encoded_rows"] == first["misses"] == sum(calls)

    done = len(calls)
    more = np.concatenate([refs[20:], _all_refs_of_type(small_graph, 1)[37:]])
    feats, second = pl.assemble_features(models, small_graph, more, cache=cache,
                                         train_nodes=0, infer_batch=infer_batch,
                                         rng=0)
    new_rows = small_graph.node_counts[1] - 37
    assert second["hits"] == refs.shape[0] - 20
    assert second["encoded_rows"] == second["misses"] == new_rows \
        == sum(calls[done:])
    assert max(calls) <= infer_batch
    # the rows still equal one whole-table encode
    table = pl.token_table(models, small_graph, 1)
    with tg.no_grad():
        whole = real_encode(models.encoder, table).data
    assert feats.data[-new_rows:].tobytes() == whole[37:].tobytes()


def test_nograd_rows_independent_of_call_with_ragged_texts(small_graph):
    """Texts of many lengths, and types of different widths: a no-grad row is
    bit-identical whichever rows it is assembled with, and tape batches may
    mix types."""
    rng = np.random.default_rng(0)
    texts = [[" ".join(text.split()[:rng.integers(0, 6 if t == 0 else 3)])
              for text in rows] for t, rows in enumerate(small_graph.texts)]
    g = small_graph
    ragged = HeteroGraph(g.node_types, g.node_counts, texts, g.relations,
                         g.edges, g.node_class_ids, g.node_splits,
                         g.edge_labels)
    models = pl.build_models(ragged, quick_settings(), rng=2)
    refs = np.concatenate([_all_refs_of_type(ragged, 0),
                           _all_refs_of_type(ragged, 1)])
    widths = {tx.crop_padding(pl.token_table(models, ragged, t)).shape[1]
              for t in (0, 1)}
    assert len(widths) == 2

    def assemble(rows, train_nodes=0):
        feats, _ = pl.assemble_features(
            models, ragged, rows, cache=pl.EmbeddingCache(0, 0),
            train_nodes=train_nodes, infer_batch=16,
            rng=np.random.default_rng(0))
        return feats.data

    whole = assemble(refs)
    for size in (1, 2, 5, 17, 33):
        pick = rng.choice(refs.shape[0], size=size, replace=False)
        assert assemble(refs[pick]).tobytes() == whole[pick].tobytes(), size
    assert assemble(refs, train_nodes=8).shape == whole.shape


# ------------------------------------------------------------- update step


def _count_adam_steps(monkeypatch):
    calls = []
    real = tg.Adam.step

    def step(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(tg.Adam, "step", step)
    return calls


def test_nonfinite_mlm_loss_raises_naming_mlm_and_step(small_graph, monkeypatch):
    real = tx.mlm_pretrain_step

    def nan_step(*args):
        loss, masked = real(*args)
        return tg.mul(loss, tg.Tensor(np.nan)), masked

    monkeypatch.setattr(tx, "mlm_pretrain_step", nan_step)
    settings = quick_settings(mlm_epochs=1)
    models = pl.build_models(small_graph, settings, rng=0)
    with pytest.raises(NumericsError, match=r"(?i)mlm.* step 0\b"):
        pl.mlm_warmup(models, small_graph, settings, pl.RunLog(),
                      np.random.default_rng(1))


def test_nonfinite_stage_loss_raises_naming_stage_and_step(small_graph,
                                                           monkeypatch):
    real = dec.link_loss
    monkeypatch.setattr(dec, "link_loss", lambda *args: tg.mul(
        real(*args), tg.Tensor(np.nan)))
    with pytest.raises(NumericsError, match=r"WarmStartGNN.* step 0\b"):
        pl.run_stagewise(small_graph, quick_settings())


def test_stage_loss_off_the_tape_is_a_contract_error(small_graph, monkeypatch):
    monkeypatch.setattr(dec, "link_loss", lambda *args: tg.Tensor(1.0))
    with pytest.raises(ContractError, match="tape"):
        pl.run_stagewise(small_graph, quick_settings())


def test_mlm_that_masks_nothing_logs_zero_and_updates_nothing(small_graph,
                                                              monkeypatch):
    settings = quick_settings(mlm_epochs=2, mlm_mask_prob=0.0)
    models = pl.build_models(small_graph, settings, rng=0)
    before = {k: p.data.tobytes() for k, p in models.encoder.params.items()}
    calls = _count_adam_steps(monkeypatch)
    log = pl.RunLog()
    steps = pl.mlm_warmup(models, small_graph, settings, log,
                          np.random.default_rng(1))
    records = [r for r in log.records if r["stage"] == "MLM"]
    assert steps == len(records) == 2 * -(-80 // settings.batch_size)
    assert calls == []
    # no draw masked a token, so no step ran the encoder
    for key in ("loss", "encoded_rows", "tape_rows"):
        assert [r[key] for r in records] == [0] * steps, key
    assert {k: p.data.tobytes()
            for k, p in models.encoder.params.items()} == before


def test_every_training_step_takes_one_adam_step(small_graph, monkeypatch):
    calls = _count_adam_steps(monkeypatch)
    settings = quick_settings(stages=("PreFineTuneLM", "WarmStartGNN"),
                              epochs=(1, 1), mlm_epochs=1)
    _, log, _ = pl.run_stagewise(small_graph, settings)
    steps = [r for r in log.records if r["kind"] == "step"]
    assert {r["stage"] for r in steps} == {"MLM", "PreFineTuneLM",
                                           "WarmStartGNN"}
    # an MLM draw that masked nothing logs 0.0 and takes no step
    assert len(calls) == sum(r["stage"] != "MLM" or r["loss"] != 0.0
                             for r in steps)


@pytest.mark.parametrize("task", ["node", "edge"])
def test_missing_task_head_is_a_contract_error(small_graph, task):
    settings = quick_settings(task=task)
    models = pl.build_models(small_graph, settings)
    setattr(models, f"{task}_head", None)
    with pytest.raises(ContractError, match=f"no {task} classifier head"):
        pl.evaluate(models, small_graph, task, TEST)
    with pytest.raises(ContractError, match=f"no {task} classifier head"):
        pl.validate_plan(small_graph, settings, models)


@pytest.mark.parametrize("key", ["batch_size", "negatives_k"])
def test_step_count_past_memory_is_a_contract_error(small_graph, key):
    """2**62 fits int64 but no step's arrays: refused by name before any
    model is built, not by a traceback or a signal in the first step."""
    with pytest.raises(ContractError, match=f"key '{key}' must be"):
        pl.run_stagewise(small_graph, quick_settings(**{key: 2 ** 62}))


# ----------------------------------------------------------- tape write-back


def _spy_tape_rows(monkeypatch, graph, on_assemble=None):
    """Per assemble_features call from now on, the global ids of its tape
    rows, in tape order.  on_assemble() runs before each call."""
    calls = []
    real_assemble, real_split = ft.assemble_features, ft.split_train_inference

    def assemble(models, graph_, refs, **kwargs):
        if on_assemble is not None:
            on_assemble()
        calls.append(refs)
        return real_assemble(models, graph_, refs, **kwargs)

    def split(*args, **kwargs):
        train, infer = real_split(*args, **kwargs)
        refs = calls[-1]
        tape = refs[np.nonzero(graph.type_has_text[refs[:, 0]])[0][train]]
        calls[-1] = graph.type_offsets[tape[:, 0]] + tape[:, 1]
        return train, infer

    monkeypatch.setattr(ft, "assemble_features", assemble)
    monkeypatch.setattr(ft, "split_train_inference", split)
    return calls


def _global_to_ref(graph, g):
    t = int(np.searchsorted(graph.type_offsets, g, side="right") - 1)
    return t, int(g - graph.type_offsets[t])


def _entries(cache):
    """{global id: (value, version stamp)} of every cached row."""
    return {int(key): (cache._values[slot].copy(), int(stamp))
            for slot, (key, stamp, _) in enumerate(cache._meta) if key >= 0}


def test_end_to_end_step_writes_every_tape_row_to_the_cache(small_graph,
                                                            monkeypatch):
    """After one EndToEnd step every tape row is cached, stamped with the
    version before advance(), and holds the no-grad encode under the
    weights before the update, bit for bit."""
    settings = quick_settings(stages=("EndToEnd",))
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache = pl.EmbeddingCache(4096, 5)
    first = {}

    def before_step():
        first.setdefault("weights", models.snapshot())
        first.setdefault("version", cache.version)

    def advance():
        first.setdefault("store", _entries(cache))
        pl.EmbeddingCache.advance(cache)

    tape_rows = _spy_tape_rows(monkeypatch, small_graph, before_step)
    cache.advance = advance
    pl.train_stage(models, small_graph, "EndToEnd", settings=settings,
                   epochs=1, cache=cache, log=pl.RunLog(),
                   rng=np.random.default_rng(0))
    written = tape_rows[0]
    assert written.size == settings.budget_train_nodes
    assert not all(np.array_equal(p.data, first["weights"][name])
                   for name, p in models.all_params().items())
    models.restore(first["weights"])
    for g in written.tolist():
        value, stamp = first["store"][g]
        assert stamp == first["version"] == 0
        t, local = _global_to_ref(small_graph, g)
        fresh = ft._encode_nograd(models, small_graph, t, np.array([local]), 16)
        assert value.tobytes() == fresh[0].tobytes(), g


def test_ragged_texts_write_back_only_rows_encoded_at_their_type_width(
        small_graph):
    """On ragged texts a tape batch runs at its widest row's width: exactly
    the tape rows whose type's encode width is that width are cached, each
    equal to the no-grad encode, one-row batches included."""
    rng = np.random.default_rng(0)
    texts = [[" ".join(text.split()[:rng.integers(0, 6 if t == 0 else 3)])
              for text in rows] for t, rows in enumerate(small_graph.texts)]
    g = small_graph
    ragged = HeteroGraph(g.node_types, g.node_counts, texts, g.relations,
                         g.edges, g.node_class_ids, g.node_splits,
                         g.edge_labels)
    models = pl.build_models(ragged, quick_settings(), rng=2)
    widths = [ft.encode_width(models, ragged, t) for t in (0, 1)]
    assert widths[0] != widths[1]
    refs = np.concatenate([_all_refs_of_type(ragged, 0),
                           _all_refs_of_type(ragged, 1)])
    outcomes = set()
    for size in (1, 1, 2, 5, 17, 33, 33, 80):
        pick = refs[rng.choice(refs.shape[0], size=size, replace=False)]
        cache = pl.EmbeddingCache(256, 5)
        pl.assemble_features(models, ragged, pick, cache=cache,
                             train_nodes=size, infer_batch=16, rng=0)
        tape_width = max(tx.crop_padding(
            pl.token_table(models, ragged, t)[[l]]).shape[1] for t, l in pick)
        expected = {int(ragged.type_offsets[t] + l) for t, l in pick
                    if widths[t] == tape_width}
        assert set(_entries(cache)) == expected, size
        outcomes.add((len(expected) > 0, len(expected) < size))
        for key, (value, stamp) in _entries(cache).items():
            t, local = _global_to_ref(ragged, key)
            fresh = ft._encode_nograd(models, ragged, t, np.array([local]), 16)
            assert value.tobytes() == fresh[0].tobytes(), (size, key)
    # some batches write every row back, some a part, some none
    assert outcomes == {(True, False), (True, True), (False, True)}


def test_written_back_rows_are_served_within_the_staleness_limit(small_graph,
                                                                 monkeypatch):
    """Over EndToEnd steps at staleness 2, hits come from tape rows written
    back by earlier steps, and no hit is more than 2 versions past its
    stamp."""
    settings = quick_settings(stages=("EndToEnd",), epochs=(2,),
                              cache_staleness=2)
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache = pl.EmbeddingCache(4096, 2)
    tape_rows = _spy_tape_rows(monkeypatch, small_graph)
    written = {}  # global id -> version its tape value was cached at
    ages = {"tape": [], "nograd": []}

    def get_many(keys, out):
        entries = _entries(cache)
        missed = pl.EmbeddingCache.get_many(cache, keys, out)
        for i in np.setdiff1d(np.arange(keys.size), missed).tolist():
            value, stamp = entries[int(keys[i])]
            assert out[i].tobytes() == value.tobytes()
            source = "tape" if written.get(int(keys[i])) == stamp else "nograd"
            ages[source].append(cache.version - stamp)
        return missed

    def advance():
        for g in tape_rows[-1].tolist():
            written[g] = cache.version
        pl.EmbeddingCache.advance(cache)

    cache.get_many, cache.advance = get_many, advance
    pl.train_stage(models, small_graph, "EndToEnd", settings=settings,
                   epochs=2, cache=cache, log=pl.RunLog(),
                   rng=np.random.default_rng(0))
    assert len(tape_rows) > 3 and ages["tape"]
    assert max(ages["tape"] + ages["nograd"]) == 2
