"""Command-line entry point: synth, train, eval, dump-embeddings.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Every
command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from . import pipeline as pl
from .errors import ContractError, LoadError, NumericsError
from .graph import (SPLIT_NAMES, TARGET_MODES, HeteroGraph, SyntheticSpec,
                    generate_synthetic, load_graph, save_graph)
from .negatives import NEGATIVE_MODES

_ENUM_KEYS = {
    "task": pl.TASKS,
    "negative_mode": NEGATIVE_MODES,
    "target_mode": TARGET_MODES,
}
_CHOICE_KEYS = {
    "num_layers": (1, 2, 3),
    "hidden_dim": (128, 256, 512),
}
_LEARNING_RATES = (1e-3, 1e-4, 1e-5)
_POSITIVE_INT_KEYS = ("batch_size", "fanouts", "negatives_k",
                      "budget_train_nodes", "budget_infer_batch", "partitions")
_NON_NEGATIVE_INT_KEYS = ("cache_capacity", "cache_staleness", "mlm_epochs",
                          "seed")
_KNOWN_KEYS = (set(_ENUM_KEYS) | set(_CHOICE_KEYS) | set(_POSITIVE_INT_KEYS)
               | set(_NON_NEGATIVE_INT_KEYS)
               | {"graph_dir", "stages", "epochs", "learning_rate",
                  "mlm_mask_prob", "out_dir"})


class ConfigError(ValueError):
    pass


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' needs an integer, got '{raw}'") from None


def parse_config(path: str) -> dict:
    """Flat key=value file -> validated dict of run options.

    Unknown keys are rejected by name; enumerated fields are checked against
    their allowed sets, numeric fields against their ranges.
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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"{path}:{ln}: duplicate key '{key}'")
        out[key] = _validate_value(key, raw)
    return out


def _validate_value(key: str, raw: str):
    if key in ("graph_dir", "out_dir"):
        return raw
    if key in _ENUM_KEYS:
        if raw not in _ENUM_KEYS[key]:
            raise ConfigError(f"key '{key}' must be one of "
                              f"{sorted(_ENUM_KEYS[key])}, got '{raw}'")
        return raw
    if key in _CHOICE_KEYS:
        value = _parse_int(key, raw)
        if value not in _CHOICE_KEYS[key]:
            raise ConfigError(f"key '{key}' must be one of "
                              f"{list(_CHOICE_KEYS[key])}, got {value}")
        return value
    if key == "learning_rate":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key 'learning_rate' needs a float, got '{raw}'") \
                from None
        if value not in _LEARNING_RATES:
            raise ConfigError(f"key 'learning_rate' must be one of "
                              f"{list(_LEARNING_RATES)}, got {value}")
        return value
    if key == "mlm_mask_prob":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key 'mlm_mask_prob' needs a float, got '{raw}'") \
                from None
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"key 'mlm_mask_prob' must be in (0, 1], got {value}")
        return value
    if key == "stages":
        stages = tuple(s.strip() for s in raw.split(",") if s.strip())
        if not stages:
            raise ConfigError("key 'stages' must list at least one stage")
        for s in stages:
            if s not in pl.STAGE_KINDS:
                raise ConfigError(f"key 'stages' has unknown stage kind '{s}' "
                                  f"(choose from {list(pl.STAGE_KINDS)})")
        return stages
    if key == "epochs":
        epochs = tuple(_parse_int("epochs", s.strip())
                       for s in raw.split(",") if s.strip())
        if not epochs or any(e < 1 for e in epochs):
            raise ConfigError("key 'epochs' must list positive integers")
        return epochs
    value = _parse_int(key, raw)
    if key in _POSITIVE_INT_KEYS and value < 1:
        raise ConfigError(f"key '{key}' must be >= 1, got {value}")
    if key in _NON_NEGATIVE_INT_KEYS and value < 0:
        raise ConfigError(f"key '{key}' must be >= 0, got {value}")
    return value


def settings_from_config(conf: dict) -> pl.TrainSettings:
    fields = {k: v for k, v in conf.items() if k not in ("graph_dir", "out_dir")}
    settings = pl.TrainSettings(**fields)
    if len(settings.stages) != len(settings.epochs):
        raise ConfigError(
            f"stages lists {len(settings.stages)} entries but epochs lists "
            f"{len(settings.epochs)}")
    return settings


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
    spec = SyntheticSpec(nodes_per_type=args.nodes_per_type,
                         clusters=args.clusters, intra_p=args.intra_p,
                         inter_p=args.inter_p, vocab_size=args.vocab_size,
                         tokens_per_node=args.tokens_per_node,
                         cluster_token_p=args.cluster_token_p, seed=args.seed)
    spec.validate()
    _ensure_out_dir(args.out, args.force)
    graph = generate_synthetic(spec)
    save_graph(graph, args.out)
    print(f"wrote synthetic graph ({graph.total_nodes} nodes, "
          f"{graph.total_edges} edges) to {args.out}")
    return 0


def cmd_train(args) -> int:
    conf = parse_config(args.config)
    if "graph_dir" not in conf:
        raise ConfigError(f"{args.config}: missing required key 'graph_dir'")
    if args.seed is not None:
        conf["seed"] = args.seed
    out_dir = args.out or conf.get("out_dir")
    if not out_dir:
        raise ConfigError("train needs --out or an out_dir config key")
    settings = settings_from_config(conf)
    graph = load_graph(conf["graph_dir"])
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
    if args.split not in SPLIT_NAMES:
        raise ConfigError(f"split must be one of {list(SPLIT_NAMES)}, "
                          f"got '{args.split}'")
    if args.task == "node" and models.node_head is None:
        raise ConfigError("checkpoint has no node classifier head")
    if args.task == "edge" and models.edge_head is None:
        raise ConfigError("checkpoint has no edge classifier head")
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
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--nodes-per-type", type=int, default=500)
    p_synth.add_argument("--clusters", type=int, default=4)
    p_synth.add_argument("--intra-p", type=float, default=0.03)
    p_synth.add_argument("--inter-p", type=float, default=0.002)
    p_synth.add_argument("--vocab-size", type=int, default=120)
    p_synth.add_argument("--tokens-per-node", type=int, default=12)
    p_synth.add_argument("--cluster-token-p", type=float, default=0.9)
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
    p_eval.add_argument("--split", default="test")
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
        if getattr(args, "seed", None) is not None:  # the config key's rule
            _validate_value("seed", str(args.seed))
        return args.fn(args)
    except (ConfigError, ContractError, LoadError, OSError) as e:
        # OSError: an --out path that is a file, or under one, and the like
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
