"""Span-coverage self-test for the traced run.

    python3 -m pytest -q perfbench/check_spans.py

Runs each workload at a small size under the tracer and checks that every
layer records work on exactly the workloads where it should.  A wrapper that
missed the binding a caller uses (pipeline imports sample_neighbors,
sample_targets and save_checkpoint by name, cli imports load_graph) would
show up here as a layer with no calls.  The file name keeps it out of the
repository's default pytest collection: it trains three small models.
"""

import dataclasses
import shutil
import sys

import pytest

import run
from spans import PER_LAYER_UNITS, Tracer

sys.path.insert(0, run.SRC)

ALL = {"link-stagewise", "node-deep", "eval-cli"}
TRAINING = {"link-stagewise", "node-deep"}

# metric -> workloads where it must be positive; on the others it must be 0
EXPECTED = {
    "text.encode.tape_rows": {"link-stagewise"},
    "text.encode.tape_s": {"link-stagewise"},
    "text.encode.nograd_rows": ALL,
    "pipeline.cache.misses.PreFineTuneLM": {"link-stagewise"},
    "pipeline.cache.misses.WarmStartGNN": TRAINING,
    "pipeline.cache.misses.EndToEnd": {"link-stagewise"},
    "pipeline.encode_amplification.WarmStartGNN": TRAINING,
    "pipeline.assemble_features.self_s": ALL,
    "pipeline.evaluate.calls": ALL,
    "pipeline.full_graph_embeddings.s": ALL,
    "graph.sample_neighbors.calls": ALL,
    "graph.ego_sources": ALL,
    "graph.sample_targets.s": TRAINING,
    "graph.load_graph.s": ALL,
    "rgcn.gnn_forward.s": ALL,
    "rgcn.messages": ALL,
    "tensor.backward.s": TRAINING,
    "tensor.tape_nodes": TRAINING,
    "tensor.adam.s": TRAINING,
    "decoders.s": TRAINING,
    "negatives.corrupt.s": {"link-stagewise"},
    "negatives.distinct_endpoints_ratio": {"link-stagewise"},
    "negatives.full_eval_negatives.calls": {"link-stagewise", "eval-cli"},
    "checkpoint.save.bytes": TRAINING,
    "checkpoint.load.s": ALL,
    "cli.main.self_s": ALL,
}


def small(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    config = w.train_config and {
        **w.train_config, "epochs": ",".join("1" for _ in w.train_config["stages"].split(","))}
    return dataclasses.replace(w, nodes_per_type=150, train_config=config)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    results = {}
    for name in sorted(ALL):
        w = small(name)
        work = str(tmp_path_factory.mktemp(name))
        tally = run.Tally()
        tracer = Tracer()
        run.run_workload(w, 3, 1.0, work, tally, tracer)
        shutil.rmtree(work)
        results[name] = (tally, tracer.per_layer_metrics())
    return results


@pytest.mark.parametrize("workload", sorted(ALL))
def test_outputs_pass_their_checks(traced, workload):
    tally, _ = traced[workload]
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems


@pytest.mark.parametrize("workload", sorted(ALL))
def test_every_per_layer_metric_is_reported(traced, workload):
    _, metrics = traced[workload]
    assert list(metrics) == list(PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", sorted(ALL))
@pytest.mark.parametrize("metric", sorted(EXPECTED))
def test_layer_works_exactly_where_expected(traced, workload, metric):
    value = traced[workload][1][metric]
    if workload in EXPECTED[metric]:
        assert value > 0, f"{metric} saw no work on {workload}"
    else:
        assert value == 0, f"{metric} = {value} on {workload}, expected none"


def test_tracer_restores_every_binding():
    from textgraph import cli, graph, pipeline, tensor
    before = (pipeline.sample_neighbors, cli.load_graph, tensor.Adam.step,
              pipeline.save_checkpoint)
    with Tracer():
        assert pipeline.sample_neighbors.__wrapped__ is before[0]
        assert pipeline.sample_neighbors is graph.sample_neighbors
        assert cli.load_graph.__wrapped__ is before[1]
    assert (pipeline.sample_neighbors, cli.load_graph, tensor.Adam.step,
            pipeline.save_checkpoint) == before
