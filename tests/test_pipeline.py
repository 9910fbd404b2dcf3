"""Stage plans, budget split, embedding cache, feature assembly, training."""

import copy
import json

import numpy as np
import pytest

import textgraph.pipeline as pl
import textgraph.tensor as tg
import textgraph.text as tx
from textgraph.errors import ContractError, LoadError
from textgraph.graph import (TEST, TRAIN, VALID, HeteroGraph, SyntheticSpec,
                             generate_synthetic)


@pytest.fixture(scope="module")
def small_graph():
    return generate_synthetic(SyntheticSpec(
        nodes_per_type=40, clusters=2, intra_p=0.15, inter_p=0.02,
        vocab_size=40, tokens_per_node=5, seed=5))


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
    train, infer = pl.split_train_inference(100, 30, rng)
    assert train.size == 30 and infer.size == 70
    combined = np.sort(np.concatenate([train, infer]))
    assert np.array_equal(combined, np.arange(100))


def test_split_train_inference_small_pool_all_train():
    train, infer = pl.split_train_inference(5, 10, np.random.default_rng(0))
    assert np.array_equal(train, np.arange(5))
    assert infer.size == 0


def test_split_train_inference_deterministic():
    a = pl.split_train_inference(50, 10, np.random.default_rng(3))
    b = pl.split_train_inference(50, 10, np.random.default_rng(3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ContractError):
        pl.split_train_inference(10, 0, np.random.default_rng(0))


# ------------------------------------------------------------------- cache


def test_cache_hit_then_staleness_expiry():
    cache = pl.EmbeddingCache(capacity=4, staleness_limit=2)
    v = np.ones(3)
    cache.put(("a", 0), v, step=10)
    assert cache.get(("a", 0), step=12) is v       # age 2 == limit
    assert cache.get(("a", 0), step=13) is None    # age 3 expired
    assert cache.hits == 1 and cache.misses == 1 and cache.stale_drops == 1


def test_cache_lru_eviction_order():
    cache = pl.EmbeddingCache(capacity=2, staleness_limit=100)
    cache.put("a", np.zeros(1), 0)
    cache.put("b", np.zeros(1), 0)
    assert cache.get("a", 0) is not None           # refresh a
    cache.put("c", np.zeros(1), 0)                 # evicts b
    assert cache.get("b", 0) is None
    assert cache.get("a", 0) is not None and cache.get("c", 0) is not None
    assert cache.evictions == 1


def test_cache_capacity_zero_stores_nothing():
    cache = pl.EmbeddingCache(capacity=0, staleness_limit=5)
    cache.put("a", np.zeros(1), 0)
    assert len(cache) == 0 and cache.get("a", 0) is None


def test_cache_clear_keeps_counters():
    cache = pl.EmbeddingCache(capacity=4, staleness_limit=5)
    cache.put("a", np.zeros(1), 0)
    cache.get("a", 0)
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
    budget = pl.NodeBudget(8, 16)
    cache = pl.EmbeddingCache(256, 5)
    refs = _all_refs_of_type(small_graph, 0)[:20]
    feats, stats = pl.assemble_features(
        models, small_graph, refs, cache=cache, step=0, budget=budget,
        rng=np.random.default_rng(0), lm_trainable=False)
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
    budget = pl.NodeBudget(8, 16)
    cache = pl.EmbeddingCache(256, 5)
    refs = _all_refs_of_type(small_graph, 1)[5:25]
    first, s1 = pl.assemble_features(models, small_graph, refs, cache=cache,
                                     step=0, budget=budget,
                                     rng=np.random.default_rng(0),
                                     lm_trainable=False)
    second, s2 = pl.assemble_features(models, small_graph, refs, cache=cache,
                                      step=1, budget=budget,
                                      rng=np.random.default_rng(9),
                                      lm_trainable=False)
    assert s2["hits"] == 20 and s2["misses"] == 0
    assert np.array_equal(first.data, second.data)


def test_assemble_features_budget_respected(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    refs = np.concatenate([_all_refs_of_type(small_graph, 0),
                           _all_refs_of_type(small_graph, 1)])
    feats, stats = pl.assemble_features(
        models, small_graph, refs, cache=pl.EmbeddingCache(256, 5), step=0,
        budget=pl.NodeBudget(8, 16), rng=np.random.default_rng(0),
        lm_trainable=True)
    assert stats["train_rows"] == 8
    assert stats["infer_rows"] == refs.shape[0] - 8
    assert feats.data.shape == (refs.shape[0], settings.dim)
    with pytest.raises(ContractError):
        pl.assemble_features(models, small_graph, np.empty((0, 2), dtype=np.int64),
                             cache=pl.EmbeddingCache(0, 0), step=0,
                             budget=pl.NodeBudget(8, 16),
                             rng=np.random.default_rng(0), lm_trainable=False)


def test_assemble_features_tape_rows_get_gradients(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    models.set_trainable({"lm"})
    refs = _all_refs_of_type(small_graph, 0)[:12]
    with tg.Tape() as tape:
        feats, stats = pl.assemble_features(
            models, small_graph, refs, cache=pl.EmbeddingCache(64, 5), step=0,
            budget=pl.NodeBudget(4, 8), rng=np.random.default_rng(0),
            lm_trainable=True)
        loss = tg.tensor_sum(feats * feats)
        tg.backward(loss, tape)
    emb_grad = models.encoder.params["tok_emb"].grad
    assert emb_grad is not None and np.abs(emb_grad).sum() > 0
    assert stats["train_rows"] == 4


# ------------------------------------------------------------ training runs


def test_run_stagewise_each_task(small_graph):
    for task in ("link", "node", "edge"):
        settings = quick_settings(task=task)
        models, log, final = pl.run_stagewise(small_graph, settings)
        steps = [r for r in log.records if r["kind"] == "step"]
        assert steps and all(np.isfinite(r["loss"]) for r in steps)
        metric = pl.primary_metric(task)
        assert metric in final and 0.0 <= final[metric] <= 1.0


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
                   epochs=1, cache=pl.EmbeddingCache(64, 5),
                   budget=pl.NodeBudget(8, 16), log=log,
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


def test_full_graph_embeddings_cls_matches_encoder(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=3)
    emb = pl.full_graph_embeddings(models, small_graph, settings=settings,
                                   cache=pl.EmbeddingCache(0, 0), step=0,
                                   budget=pl.NodeBudget(1, 16),
                                   representation="cls")
    assert emb.shape == (small_graph.total_nodes, settings.dim)
    table = pl.token_table(models, small_graph, 1)
    with tg.no_grad():
        direct = tx.encode_cls(models.encoder, table[:16]).data
    base = small_graph.type_offsets[1]
    assert np.array_equal(emb[base:base + 16], direct)


def test_evaluate_all_tasks_bounded(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=4)
    for task, key in (("link", "mrr"), ("node", "accuracy"), ("edge", "macro_f1")):
        out = pl.evaluate(models, small_graph, task, VALID, settings=settings)
        assert 0.0 <= out[key] <= 1.0
    with pytest.raises(ContractError):
        pl.evaluate(models, small_graph, "nope", VALID, settings=settings)


def test_evaluate_gnn_deterministic(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=4)
    a = pl.evaluate(models, small_graph, "link", TEST, settings=settings)
    b = pl.evaluate(models, small_graph, "link", TEST, settings=settings)
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
    before = pl.full_graph_embeddings(models, small_graph, settings=settings,
                                      cache=pl.EmbeddingCache(0, 0), step=0,
                                      budget=pl.NodeBudget(1, 16))
    after = pl.full_graph_embeddings(loaded, small_graph, settings=settings,
                                     cache=pl.EmbeddingCache(0, 0), step=0,
                                     budget=pl.NodeBudget(1, 16))
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


# ------------------------------------------- encoder-version cache and memo


def _texted_rows(graph):
    return sum(c for t, c in enumerate(graph.node_counts) if graph.has_text(t))


def test_frozen_encoder_cache_never_goes_stale(small_graph):
    """A frozen encoder never ages a cached row: a stage longer than the
    staleness limit drops nothing and encodes every texted row at most once,
    in training and across all its evals."""
    settings = quick_settings(task="node", cache_staleness=2)
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache, memo = pl.EmbeddingCache(256, 2), pl.eval_memo(small_graph)
    log = pl.RunLog()
    pl.train_stage(models, small_graph, "WarmStartGNN", settings=settings,
                   epochs=3, cache=cache, budget=pl.NodeBudget(8, 16), log=log,
                   rng=np.random.default_rng(0), memo=memo)
    steps = [r for r in log.records if r["kind"] == "step"]
    texted = _texted_rows(small_graph)
    assert len(steps) > cache.staleness_limit
    assert cache.version == 0
    assert cache.stale_drops == 0 and cache.evictions == 0
    assert sum(r["encoded_rows"] for r in steps) <= texted
    assert sum(r["cache_hits"] for r in steps) == cache.hits
    assert sum(r["cache_misses"] for r in steps) == cache.misses
    # three evals, one encode
    assert memo.misses == texted and memo.hits == 2 * texted


def test_training_stage_advances_encoder_version(small_graph):
    settings = quick_settings()
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache = pl.EmbeddingCache(256, 5)
    step, _ = pl.train_stage(models, small_graph, "EndToEnd", settings=settings,
                             epochs=1, cache=cache, budget=pl.NodeBudget(8, 16),
                             log=pl.RunLog(), rng=np.random.default_rng(0))
    # one advance per step, one more for the best-epoch restore
    assert cache.version == step + 1


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
    assert final == pl.evaluate(models, small_graph, "link", TEST,
                                settings=settings)


def test_memo_eval_equals_scratch_eval_after_best_epoch_restore(small_graph,
                                                                monkeypatch):
    """Epoch 0 is made the best, so the stage restores pre-update encoder
    weights; the memo must then serve nothing from the later eval."""
    settings = quick_settings()
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache, memo = pl.EmbeddingCache(256, 5), pl.eval_memo(small_graph)
    real_evaluate = pl.evaluate
    scores = iter([1.0, 0.0])

    def epoch_zero_best(*args, **kwargs):
        real_evaluate(*args, **kwargs)  # fills the memo like the real loop
        return {"mrr": next(scores)}

    monkeypatch.setattr(pl, "evaluate", epoch_zero_best)
    pl.train_stage(models, small_graph, "EndToEnd", settings=settings,
                   epochs=2, cache=cache, budget=pl.NodeBudget(8, 16),
                   log=pl.RunLog(), rng=np.random.default_rng(0), memo=memo)
    monkeypatch.undo()
    assert memo.hits == 0  # the encoder trained between the two evals

    def embeddings(cache, step):
        return pl.full_graph_embeddings(models, small_graph, settings=settings,
                                        cache=cache, step=step,
                                        budget=pl.NodeBudget(1, pl.EVAL_CHUNK))

    scratch = embeddings(pl.EmbeddingCache(0, 0), 0)
    # the memo's rows from the epoch-1 eval no longer match the weights
    assert not np.array_equal(embeddings(memo, cache.version - 1), scratch)
    assert embeddings(memo, cache.version).tobytes() == scratch.tobytes()
    for representation in ("gnn", "cls"):
        kw = dict(settings=settings, representation=representation)
        assert pl.evaluate(models, small_graph, "link", VALID, memo=memo,
                           version=cache.version, **kw) == \
            pl.evaluate(models, small_graph, "link", VALID, **kw)
    assert memo.hits > 0


def test_frozen_stage_after_last_epoch_best_reuses_eval_memo(small_graph,
                                                            monkeypatch):
    """A 1-epoch encoder-training stage keeps its last (and best) weights, so
    the next frozen stage's first eval encodes nothing and still equals a
    scratch eval byte for byte."""
    settings = quick_settings()
    models = pl.build_models(small_graph, settings,
                             rng=np.random.default_rng(0))
    cache, memo = pl.EmbeddingCache(256, 5), pl.eval_memo(small_graph)
    kw = dict(settings=settings, cache=cache, budget=pl.NodeBudget(8, 16),
              log=pl.RunLog(), memo=memo)
    pl.train_stage(models, small_graph, "EndToEnd", epochs=1,
                   rng=np.random.default_rng(0), **kw)
    assert len(cache) == 0

    encoded = []
    real_encode = tx.encode_cls

    def spy(model, tokens, **kwargs):
        encoded.append(tokens.shape[0])
        return real_encode(model, tokens, **kwargs)

    evals = []
    real_evaluate = pl.evaluate

    def recording(*args, **kwargs):
        scratch_rng = copy.deepcopy(kwargs["rng"])
        before = len(encoded)
        result = real_evaluate(*args, **kwargs)
        rows = sum(encoded[before:])
        emb = pl.full_graph_embeddings(
            models, small_graph, settings=settings, cache=memo,
            step=kwargs["version"], budget=pl.NodeBudget(1, pl.EVAL_CHUNK))
        scratch_emb = pl.full_graph_embeddings(
            models, small_graph, settings=settings, cache=pl.EmbeddingCache(0, 0),
            step=0, budget=pl.NodeBudget(1, pl.EVAL_CHUNK))
        scratch = real_evaluate(*args, **{**kwargs, "rng": scratch_rng,
                                          "memo": None, "version": 0})
        evals.append((rows, result, scratch, emb.tobytes() == scratch_emb.tobytes()))
        return result

    monkeypatch.setattr(tx, "encode_cls", spy)
    monkeypatch.setattr(pl, "evaluate", recording)
    pl.train_stage(models, small_graph, "WarmStartGNN", epochs=1,
                   rng=np.random.default_rng(1), **kw)
    rows, result, scratch, same_embeddings = evals[0]
    assert rows == 0
    assert json.dumps(result) == json.dumps(scratch)
    assert same_embeddings


def test_nograd_encodes_only_misses_within_call_cap(small_graph, monkeypatch):
    """A no-grad assemble encodes each missed row once and nothing else, in
    calls of at most budget.infer_batch rows; an overlapping second call
    encodes only the rows the first one did not."""
    settings = quick_settings()
    models = pl.build_models(small_graph, settings, rng=1)
    budget = pl.NodeBudget(8, 16)
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
                                    step=0, budget=budget, rng=0,
                                    lm_trainable=False)
    assert first["misses"] == refs.shape[0]
    assert first["encoded_rows"] == first["misses"] == sum(calls)

    done = len(calls)
    more = np.concatenate([refs[20:], _all_refs_of_type(small_graph, 1)[37:]])
    feats, second = pl.assemble_features(models, small_graph, more, cache=cache,
                                         step=0, budget=budget, rng=0,
                                         lm_trainable=False)
    new_rows = small_graph.node_counts[1] - 37
    assert second["hits"] == refs.shape[0] - 20
    assert second["encoded_rows"] == second["misses"] == new_rows \
        == sum(calls[done:])
    assert max(calls) <= budget.infer_batch
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

    def assemble(rows, lm_trainable=False):
        feats, _ = pl.assemble_features(
            models, ragged, rows, cache=pl.EmbeddingCache(0, 0), step=0,
            budget=pl.NodeBudget(8, 16), rng=np.random.default_rng(0),
            lm_trainable=lm_trainable)
        return feats.data

    whole = assemble(refs)
    for size in (1, 2, 5, 17, 33):
        pick = rng.choice(refs.shape[0], size=size, replace=False)
        assert assemble(refs[pick]).tobytes() == whole[pick].tobytes(), size
    assert assemble(refs, lm_trainable=True).shape == whole.shape
