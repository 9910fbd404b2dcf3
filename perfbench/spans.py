"""Span tracer for the benchmark's traced runs.

While a Tracer is active it replaces public textgraph functions with wrappers
that record one span per call: name, start, end, parent span and the current
request id (the optimizer step on training workloads, the call index on
eval-cli).  A function imported by name into another module is a separate
binding, so every textgraph module global that holds the function is
replaced, not just the one in its home module.  Nothing inside src/ changes.

Spans stay in memory; per_layer_metrics() reduces them to the per-layer
numbers and dump() writes them out once the run is over.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import defaultdict

STAGES = ("PreFineTuneLM", "WarmStartGNN", "EndToEnd")
CACHE_COUNTERS = ("hits", "misses", "stale_drops", "evictions")

# (span name, module, function names); "text.encode" is split into
# ".tape" and ".nograd" after the call, by whether the output is on a tape.
TRACED = (
    ("cli.main", "cli", ("main",)),
    ("graph.load_graph", "graph", ("load_graph",)),
    ("graph.sample_neighbors", "graph", ("sample_neighbors",)),
    ("graph.sample_targets", "graph", ("sample_targets",)),
    ("text.encode", "text", ("encode_cls",)),
    ("rgcn.gnn_forward", "rgcn", ("gnn_forward",)),
    ("decoders", "decoders", ("distmult_scores", "link_loss", "node_logits",
                              "node_loss", "edge_logits", "edge_loss")),
    ("negatives.corrupt", "negatives", ("corrupt_joint", "corrupt_independent")),
    ("negatives.full_eval_negatives", "negatives", ("full_eval_negatives",)),
    ("pipeline.assemble_features", "pipeline", ("assemble_features",)),
    ("pipeline.full_graph_embeddings", "pipeline", ("full_graph_embeddings",)),
    ("pipeline.evaluate", "pipeline", ("evaluate",)),
    ("pipeline.train_stage", "pipeline", ("train_stage",)),
    ("tensor.backward", "tensor", ("backward",)),
    ("checkpoint.save", "checkpoint", ("save_checkpoint",)),
    ("checkpoint.load", "checkpoint", ("load_checkpoint",)),
)

# spans reported by their total time, as "<name>.s"
TOTAL_TIMED = ("pipeline.evaluate", "pipeline.full_graph_embeddings",
               "graph.sample_neighbors", "graph.sample_targets",
               "graph.load_graph", "rgcn.gnn_forward", "tensor.backward",
               "tensor.adam", "decoders", "negatives.corrupt",
               "negatives.full_eval_negatives", "checkpoint.save",
               "checkpoint.load")

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "text.encode.tape_s": "s", "text.encode.tape_rows": "count",
    "text.encode.nograd_s": "s", "text.encode.nograd_rows": "count",
    **{f"pipeline.cache.{c}.{s}": "count" for c in CACHE_COUNTERS for s in STAGES},
    **{f"pipeline.cache.hit_rate.{s}": "ratio" for s in STAGES},
    **{f"pipeline.encode_amplification.{s}": "ratio" for s in STAGES},
    "pipeline.assemble_features.self_s": "s",
    "pipeline.evaluate.s": "s", "pipeline.evaluate.calls": "count",
    "pipeline.full_graph_embeddings.s": "s",
    "graph.sample_neighbors.s": "s", "graph.sample_neighbors.calls": "count",
    "graph.ego_sources": "count", "graph.expansion_slots": "count",
    "graph.sample_targets.s": "s", "graph.load_graph.s": "s",
    "rgcn.gnn_forward.s": "s", "rgcn.messages": "count",
    "tensor.backward.s": "s", "tensor.tape_nodes": "count",
    "tensor.adam.s": "s",
    "gc.gen2_collections": "count", "gc.pause_s": "s",
    "decoders.s": "s",
    "negatives.corrupt.s": "s", "negatives.distinct_endpoints_ratio": "ratio",
    "negatives.full_eval_negatives.s": "s",
    "negatives.full_eval_negatives.calls": "count",
    "checkpoint.save.s": "s", "checkpoint.save.bytes": "bytes",
    "checkpoint.load.s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
}

# span fields; the fifth is the request id
_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    """Context manager: wraps the traced functions on enter, restores them
    on exit.  `request` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []
        self._stage: str | None = None
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ---------------------------------------------------------- installing

    def __enter__(self) -> "Tracer":
        import textgraph.cli  # noqa: F401  (loads every textgraph module)
        from textgraph import tensor
        hooks = {"text.encode": self._on_encode,
                 "graph.sample_neighbors": self._on_sample_neighbors,
                 "rgcn.gnn_forward": self._on_gnn_forward,
                 "tensor.backward": self._on_backward,
                 "negatives.corrupt": self._on_corrupt,
                 "checkpoint.save": self._on_save}
        modules = [m for n, m in sys.modules.items()
                   if n == "textgraph" or n.startswith("textgraph.")]
        for name, home, attrs in TRACED:
            for attr in attrs:
                original = getattr(sys.modules[f"textgraph.{home}"], attr)
                wrapper = self._wrap(name, original, hooks.get(name))
                if name == "pipeline.train_stage":
                    wrapper = self._stage_counters(wrapper)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
        self._replace(tensor.Adam, "step",
                      self._wrap("tensor.adam", tensor.Adam.step, self._on_adam))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def _replace(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if after is not None:
                after(span, args, out)
            return out
        return traced

    def _stage_counters(self, wrapped):
        """train_stage(models, graph, kind, *, cache, ...): the cache's own
        counters, read before and after, give per-stage deltas without
        touching get/put, which run hundreds of thousands of times."""
        @functools.wraps(wrapped)
        def stage(models, graph, kind, **kwargs):
            cache = kwargs["cache"]
            before = [getattr(cache, c) for c in CACHE_COUNTERS]
            self._stage = kind
            try:
                return wrapped(models, graph, kind, **kwargs)
            finally:
                self._stage = None
                for c, b in zip(CACHE_COUNTERS, before):
                    self.counts[f"pipeline.cache.{c}.{kind}"] += getattr(cache, c) - b
        return stage

    # --------------------------------------------------------------- hooks

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][_NAME] == name for i in self._stack)

    def _on_encode(self, span, args, out):
        rows = int(args[1].shape[0])
        kind = "tape" if getattr(out, "_src_tape", None) is not None else "nograd"
        span[_NAME] = f"text.encode.{kind}"
        self.counts[f"text.encode.{kind}_rows"] += rows
        if kind == "nograd" and self._stage and not self._inside("pipeline.evaluate"):
            self.counts[f"train_nograd_rows.{self._stage}"] += rows

    def _on_sample_neighbors(self, span, args, out):
        self.counts["graph.ego_sources"] += out.num_sources
        self.counts["graph.expansion_slots"] += out.expansion_slots

    def _on_gnn_forward(self, span, args, out):
        self.counts["rgcn.messages"] += sum(
            int(src.size) for block in args[1].blocks for src, _ in block.edges)

    def _on_backward(self, span, args, out):
        self.counts["tensor.tape_nodes"] += len(args[1])

    def _on_adam(self, span, args, out):
        self.request += 1

    def _on_corrupt(self, span, args, out):
        self.counts["corrupt.distinct_endpoints"] += out.distinct_endpoints
        self.counts["corrupt.endpoint_slots"] += 2 * len(out)

    def _on_save(self, span, args, out):
        self.counts["checkpoint.save.bytes"] += (
            os.path.getsize(out) + os.path.getsize(out.with_suffix(".bin")))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.counts["gc.gen2_collections"] += 1

    # ------------------------------------------------------------- results

    def per_layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric.  `<span>.s` is the time inside outermost
        spans of that name, `.self_s` the span time minus its child spans;
        a layer that did no work reports 0."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            d = span[_END] - span[_START]
            self_time[span[_NAME]] += d
            if span[_PARENT] >= 0:
                self_time[self.spans[span[_PARENT]][_NAME]] -= d
            if not self._has_ancestor(span, span[_NAME]):
                total[span[_NAME]] += d
                calls[span[_NAME]] += 1

        c = self.counts
        out = {f"{n}.s": total[n] for n in TOTAL_TIMED}
        out.update({
            "text.encode.tape_s": total["text.encode.tape"],
            "text.encode.nograd_s": total["text.encode.nograd"],
            "pipeline.assemble_features.self_s":
                self_time["pipeline.assemble_features"],
            "pipeline.evaluate.calls": calls["pipeline.evaluate"],
            "graph.sample_neighbors.calls": calls["graph.sample_neighbors"],
            "negatives.full_eval_negatives.calls":
                calls["negatives.full_eval_negatives"],
            "negatives.distinct_endpoints_ratio": _ratio(
                c["corrupt.distinct_endpoints"], c["corrupt.endpoint_slots"]),
            "cli.main.self_s": self_time["cli.main"],
            "trace.spans": len(self.spans),
        })
        for s in STAGES:
            hits, misses = c[f"pipeline.cache.hits.{s}"], c[f"pipeline.cache.misses.{s}"]
            out[f"pipeline.cache.hit_rate.{s}"] = _ratio(hits, hits + misses)
            out[f"pipeline.encode_amplification.{s}"] = _ratio(
                c[f"train_nograd_rows.{s}"], misses)
        return {name: out[name] if name in out else c[name]
                for name in PER_LAYER_UNITS}

    def _has_ancestor(self, span, name) -> bool:
        p = span[_PARENT]
        while p >= 0:
            if self.spans[p][_NAME] == name:
                return True
            p = self.spans[p][_PARENT]
        return False

    def dump(self, path: str):
        """Spans as [name, start_s, end_s, parent_index, request] rows."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": self.spans}, f)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
