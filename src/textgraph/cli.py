"""Command-line entry point: synth, train, eval, dump-embeddings.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Every
command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

from . import pipeline as pl
from .errors import ContractError, LoadError, NumericsError
from .graph import (SPLIT_NAMES, SyntheticSpec, generate_synthetic, load_graph,
                    save_graph)

# TrainSettings fields a config file cannot set: the model's shape beyond the
# grid below, and per-stage learning rates
_PROGRAMMATIC_ONLY = ("stage_learning_rates", "max_len", "dim", "num_heads",
                      "num_blocks", "aggregation")
# config key -> its default, whose type the file's value is parsed into
_CONFIG_DEFAULTS = {
    "graph_dir": "", "out_dir": "",
    **{f.name: f.default for f in dataclasses.fields(pl.TrainSettings)
       if f.name not in _PROGRAMMATIC_ONLY}}


def _grid(*choices):
    return (f"one of {list(choices)}", lambda v: v in choices)


# The config file's own policy, narrower than pipeline.SETTING_RULES: a grid
# over the GNN's depth and width and the step size, and masked-token
# pretraining that masks something.
_CONFIG_RULES = {
    "num_layers": _grid(1, 2, 3),
    "hidden_dim": _grid(128, 256, 512),
    "learning_rate": _grid(1e-3, 1e-4, 1e-5),
    "mlm_mask_prob": ("> 0", lambda v: v > 0),
}


class ConfigError(ValueError):
    pass


def _parse_value(key: str, raw: str, default):
    """raw as default's type; a tuple takes comma-separated items."""
    if isinstance(default, tuple):
        return tuple(_parse_value(key, item.strip(), default[0])
                     for item in raw.split(",") if item.strip())
    try:
        return type(default)(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' needs {type(default).__name__} values, "
                          f"got '{raw}'") from None


def parse_config(path: str) -> tuple[pl.TrainSettings, dict]:
    """Flat key=value file -> (TrainSettings, its graph_dir and out_dir).

    Unknown and duplicate keys are rejected by name.  Each value is parsed as
    its field's default is typed (a tuple takes comma-separated items) and
    checked against _CONFIG_RULES, then TrainSettings checks SETTING_RULES.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config '{path}': {e}") from None
    out: dict = {}
    for ln, line in enumerate(lines, start=1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        if "=" not in bare:
            raise ConfigError(f"{path}:{ln}: expected key=value, got '{bare}'")
        key, _, raw = bare.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{ln}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"{path}:{ln}: duplicate key '{key}'")
        value = _parse_value(key, raw, _CONFIG_DEFAULTS[key])
        what, ok = _CONFIG_RULES.get(key, (None, None))
        if ok is not None and not ok(value):
            raise ConfigError(f"key '{key}' must be {what}, got {value!r}")
        out[key] = value
    paths = {key: out.pop(key) for key in ("graph_dir", "out_dir") if key in out}
    return pl.TrainSettings(**out), paths


def _ensure_out_dir(path: str, force: bool):
    if os.path.isdir(path) and os.listdir(path):
        if not force:
            raise ConfigError(
                f"output directory '{path}' is not empty (use --force to reuse)")
    else:
        os.makedirs(path, exist_ok=True)


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(SyntheticSpec)})
    spec.validate()
    _ensure_out_dir(args.out, args.force)
    graph = generate_synthetic(spec)
    save_graph(graph, args.out)
    print(f"wrote synthetic graph ({graph.total_nodes} nodes, "
          f"{graph.total_edges} edges) to {args.out}")
    return 0


def cmd_train(args) -> int:
    settings, paths = parse_config(args.config)
    if "graph_dir" not in paths:
        raise ConfigError(f"{args.config}: missing required key 'graph_dir'")
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    out_dir = args.out or paths.get("out_dir")
    if not out_dir:
        raise ConfigError("train needs --out or an out_dir config key")
    graph = load_graph(paths["graph_dir"])
    _ensure_out_dir(out_dir, args.force)

    def save_stage(index: int, kind: str, models: pl.ModelBundle):
        stem = os.path.join(out_dir, f"stage{index}_{kind}")
        pl.save_bundle(stem, models, graph, settings)

    models, log, final = pl.run_stagewise(graph, settings,
                                          stage_callback=save_stage)
    log.dump_jsonl(os.path.join(out_dir, "metrics.jsonl"))
    report = {"task": settings.task, "split": "test",
              "representation": pl.stage_representation(settings.stages[-1]),
              "metrics": final}
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        f.write(_report_json(report))
    print(_report_json(report), end="")
    return 0


def cmd_eval(args) -> int:
    graph = load_graph(args.graph_dir)
    models = pl.load_bundle(args.checkpoint, graph)
    metrics = pl.evaluate(models, graph, args.task, SPLIT_NAMES.index(args.split),
                          representation=args.representation)
    report = {"task": args.task, "split": args.split,
              "representation": args.representation, "metrics": metrics}
    print(_report_json(report), end="")
    return 0


def cmd_dump_embeddings(args) -> int:
    graph = load_graph(args.graph_dir)
    models = pl.load_bundle(args.checkpoint, graph)
    emb = pl.full_graph_embeddings(models, graph, fanouts=args.fanouts)
    with open(args.out, "w", encoding="utf-8") as f:
        row = 0
        for t in range(len(graph.node_types)):
            name = graph.node_types[t]
            for l in range(graph.node_counts[t]):
                vec = "\t".join(repr(v) for v in emb[row].tolist())
                f.write(f"{name}\t{l}\t{vec}\n")
                row += 1
    print(f"wrote {row} embedding rows to {args.out}")
    return 0


# -------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textgraph",
        description="Stage-wise text-encoder + graph network training")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic graph directory")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--force", action="store_true")
    for f in dataclasses.fields(SyntheticSpec):
        p_synth.add_argument("--" + f.name.replace("_", "-"),
                             type=type(f.default), default=f.default)
    p_synth.set_defaults(fn=cmd_synth)

    p_train = sub.add_parser("train", help="run a staged training plan")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--force", action="store_true")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("graph_dir")
    p_eval.add_argument("--task", required=True, choices=sorted(pl.TASKS))
    p_eval.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p_eval.add_argument("--representation", default="gnn",
                        choices=("gnn", "cls"))
    p_eval.set_defaults(fn=cmd_eval)

    p_dump = sub.add_parser("dump-embeddings",
                            help="write all node embeddings as TSV")
    p_dump.add_argument("checkpoint")
    p_dump.add_argument("graph_dir")
    p_dump.add_argument("--out", required=True)
    p_dump.add_argument("--fanouts", type=int, default=None,
                        help="sampled neighbors per relation (default: all)")
    p_dump.set_defaults(fn=cmd_dump_embeddings)
    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Make glibc malloc keep freed memory for reuse instead of returning it.

    A training step allocates and frees tens of megabytes of float64
    activations, and a step's graph is freed as soon as the step ends.  With
    glibc's adaptive defaults, large blocks are mmapped and unmapped one by
    one and the heap top is trimmed once a step's graph is freed, so the next
    step faults the same pages in again: on the default graph a stage-wise
    train takes about 650k minor page faults, and their cost, which varies
    with load on the host, lands on the steps that allocate the most.  Fixed
    thresholds keep the pages mapped (about 30k faults).  Peak RSS stays the
    same, as the largest step sets it either way.  Off Linux, or without
    glibc's mallopt, this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the largest value glibc accepts


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, LoadError, OSError, MemoryError) as e:
        # OSError: an --out path that is a file, or under one, and the like;
        # MemoryError: a count that fits its rule but not in memory
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
