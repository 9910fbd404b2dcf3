"""textgraph benchmark: one command, three workloads.

    python3 perfbench/run.py --workload link-stagewise --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout and imports textgraph from its src/
directory; nothing is installed.  The workload drives the program the way a
user does, through `textgraph.cli.main` (synth, train, eval) in this process,
checks every output, and prints one JSON object as the last line of stdout:
every end-to-end metric with --trace 0, every per-layer metric (see spans.py)
with --trace 1.  A detail record (environment, per-stage step times) goes to
perfbench/results/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS_DIR = os.path.join(HERE, "results")
WORK_DIR = os.path.join(HERE, "work")

SETUP_WINDOW_S = 2.0
TAIL_PERCENT = 95  # every workload runs >= 200 operations, so >= 10 lie beyond

END_TO_END_UNITS = {
    "setup_s": "s", "command_s": "s", "op_ms_p50": "ms", "op_ms_p95": "ms",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}

# The README's run.cfg, minus the paths and the epoch counts.
README_CONFIG = {
    "task": "link", "stages": "PreFineTuneLM,WarmStartGNN,EndToEnd",
    "batch_size": 32, "fanouts": 4, "num_layers": 2,
    "hidden_dim": 128, "learning_rate": "1e-3", "negatives_k": 4,
    "negative_mode": "joint", "budget_train_nodes": 64,
    "budget_infer_batch": 256, "cache_capacity": 4096, "cache_staleness": 10,
    "target_mode": "global",
}


@dataclass(frozen=True)
class Workload:
    task: str
    nodes_per_type: int
    # train config keys for a training workload; None runs the eval loop
    train_config: dict | None = None


WORKLOADS = {
    # The north-star recipe: encoder on the tape, cache churning under a
    # training encoder, joint negatives, per-epoch MRR evals, 3 checkpoints.
    "link-stagewise": Workload("link", 500, {**README_CONFIG, "epochs": "1,1,1"}),
    # Deep message passing on frozen features: sampler, GNN and backward do
    # the work, the cache only serves reads, negatives never run.
    "node-deep": Workload("node", 500, {
        "task": "node", "stages": "WarmStartGNN", "epochs": "8",
        "num_layers": 3, "fanouts": 8, "batch_size": 16}),
    # Forward-only `textgraph eval` calls: graph and checkpoint load, no-grad
    # encodes, a saturating ego sample and the per-query negatives loop.
    "eval-cli": Workload("link", 200),
}


@dataclass
class Tally:
    setup_s: list = field(default_factory=list)
    command_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    stage_ms: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def textgraph(*argv) -> tuple[int, str, float]:
    """One in-process CLI call: (exit code, stdout, wall seconds)."""
    from textgraph import cli
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), time.perf_counter() - t0


def synth(work: str, seed: int, nodes_per_type: int) -> str:
    graph_dir = os.path.join(work, "graph")
    code, _, _ = textgraph("synth", "--out", graph_dir, "--force", "--seed", seed,
                           "--nodes-per-type", nodes_per_type)
    if code != 0:
        raise RuntimeError(f"synth exited with code {code}")
    return graph_dir


def run_workload(w: Workload, seed: int, seconds: float, work: str, tally: Tally,
                 tracer=None):
    """Set up `w` in `work`, then measure it for `seconds`; only the measured
    part runs under the tracer.  Set-up is repeated for SETUP_WINDOW_S before
    the measurement and again after it: host speed shifts every second or
    so, and the median of a few set-ups in a row would sample one moment."""
    training = w.train_config is not None
    setup = setup_training if training else setup_eval
    measure = measure_training if training else measure_eval_loop

    def timed_setups():
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            inputs = setup(w, seed, work)
            tally.setup_s.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= SETUP_WINDOW_S:
                return inputs

    inputs = timed_setups()
    with tracer or contextlib.nullcontext():
        measure(w, seconds, work, tally, tracer, *inputs)
    timed_setups()


def setup_training(w: Workload, seed: int, work: str) -> tuple[str, str]:
    graph_dir = synth(work, seed, w.nodes_per_type)
    config = os.path.join(work, "run.cfg")
    with open(config, "w", encoding="utf-8") as f:
        for key, value in {"graph_dir": graph_dir, **w.train_config,
                           "seed": seed}.items():
            f.write(f"{key} = {value}\n")
    return graph_dir, config


def measure_training(w: Workload, seconds: float, work: str, tally: Tally, tracer,
                     graph_dir: str, config: str):
    stages = w.train_config["stages"].split(",")
    last_ckpt = f"stage{len(stages) - 1}_{stages[-1]}"
    deadline = time.perf_counter() + seconds
    duration = 0.0
    calls = 0
    # back-to-back train calls while the last one's duration still fits
    while calls == 0 or time.perf_counter() + duration <= deadline:
        out_dir = os.path.join(work, f"train{calls}")
        code, _, duration = textgraph("train", "--config", config, "--out", out_dir)
        calls += 1
        tally.command_s.append(duration)
        if code != 0:
            tally.check(False, f"train exited with code {code}")
            break
        with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as f:
            steps = [r for r in map(json.loads, f) if r["kind"] == "step"]
        for r in steps:
            tally.check(math.isfinite(r["loss"]),
                        f"non-finite loss at {r['stage']} step {r['step']}")
            tally.op_ms.append(r["elapsed_ms"])
            tally.stage_ms[r["stage"]].append(r["elapsed_ms"])
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
            report = f.read()
        parsed = json.loads(report)
        code, printed, _ = textgraph(
            "eval", os.path.join(out_dir, last_ckpt), graph_dir, "--task", w.task,
            "--split", "test", "--representation", parsed["representation"])
        tally.check(code == 0 and printed == report,
                    "eval of the last checkpoint does not reproduce report.json")
        if calls == 1:
            tally.quality = parsed["metrics"]
        shutil.rmtree(out_dir)


def setup_eval(w: Workload, seed: int, work: str) -> tuple[str, str]:
    from textgraph import pipeline as pl
    from textgraph.graph import load_graph
    graph_dir = synth(work, seed, w.nodes_per_type)
    # eval cost does not depend on weight values: untrained weights do
    ckpt = os.path.join(work, "model")
    graph = load_graph(graph_dir)
    settings = pl.TrainSettings(seed=seed)
    pl.save_bundle(ckpt, pl.build_models(graph, settings, rng=seed), graph, settings)
    return graph_dir, ckpt


def measure_eval_loop(w: Workload, seconds: float, work: str, tally: Tally, tracer,
                      graph_dir: str, ckpt: str):
    first: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < 2 or time.perf_counter() < deadline:
        representation = ("gnn", "cls")[calls % 2]
        if tracer is not None:
            tracer.request = calls
        code, printed, duration = textgraph(
            "eval", ckpt, graph_dir, "--task", w.task, "--split", "test",
            "--representation", representation)
        calls += 1
        tally.command_s.append(duration)
        tally.op_ms.append(duration * 1e3)
        if code == 0:
            first.setdefault(representation, printed)
        tally.check(code == 0 and printed == first.get(representation),
                    f"eval call {calls} ({representation}) differs from the first")
    if "gnn" in first:
        tally.quality = json.loads(first["gnn"])["metrics"]


def end_to_end_metrics(tally: Tally) -> dict[str, float]:
    ops = tally.op_ms or [0.0]
    return {
        "setup_s": statistics.median(tally.setup_s),
        "command_s": statistics.fmean(tally.command_s),
        "op_ms_p50": statistics.median(ops),
        "op_ms_p95": percentile(ops, TAIL_PERCENT),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (tally.attempted - tally.failed) / max(tally.attempted, 1),
    }


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def blas_record() -> dict:
    import numpy as np
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {"vendor": info.get("name"), "version": info.get("version"),
              "threads": None}
    # numpy wheels bundle OpenBLAS with a scipy_openblas symbol prefix
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            record["threads"] = fn()
    return record


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import textgraph
    except ImportError as e:
        print(f"perfbench: cannot import textgraph from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(textgraph.__file__).startswith(SRC + os.sep):
        print(f"perfbench: textgraph was imported from {textgraph.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from spans import PER_LAYER_UNITS, Tracer

    w = WORKLOADS[args.workload]
    tally = Tally()
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    try:
        run_workload(w, args.seed, args.seconds, work, tally, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = end_to_end_metrics(tally)
    if tracer is not None:
        metrics, units = tracer.per_layer_metrics(), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    stages = {s: {"steps": len(v), "step_ms_p50": statistics.median(v),
                  "step_ms_p95": percentile(v, TAIL_PERCENT)}
              for s, v in tally.stage_ms.items()}
    detail = {"environment": environment(args.workload, args.seed, args.seconds,
                                         args.trace),
              "operations": len(tally.op_ms), "commands": len(tally.command_s),
              "stages": stages, "test_quality": tally.quality,
              "end_to_end": end_to_end,
              "problems": tally.problems, "metrics": metrics}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")

    print(f"# environment {json.dumps(detail['environment'], sort_keys=True)}")
    for s, v in stages.items():
        print(f"# stage {s}: {v['steps']} steps, p50 {v['step_ms_p50']:.1f} ms, "
              f"p95 {v['step_ms_p95']:.1f} ms")
    print(f"# test quality {json.dumps(tally.quality, sort_keys=True)}")
    for problem in tally.problems:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
