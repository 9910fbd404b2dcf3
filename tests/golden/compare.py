"""Run the same train, eval and dump-embeddings commands in two checkouts and
diff everything they write, byte for byte.

    python tests/golden/compare.py <other checkout>

Compares the checkout that holds this script with <other checkout>, for
example a copy of the parent commit.  Each tree synthesizes a graph and runs
six training configs (a 3-stage link plan, a 3-layer node plan, an edge
plan with MLM, partition_local targets, independent negatives, HeadOnly and
a small, stale cache, the same edge plan at capacity 300, where blocks that
refresh cached keys are stored on a full cache, a frozen-encoder node plan,
WarmStartGNN alone, as the node-deep benchmark workload runs it, and the
link plan on a copy of the graph with texts of 0 to 6 tokens), each
followed by `eval` of its last checkpoint with the gnn and cls
representations and by `dump-embeddings`.  Then it writes copies of the graph with one fault each
(FAULTS) and runs `eval` of the link plan's last checkpoint on each, so the
load errors are compared too; each of those commands must exit 2.  Every
command is a fresh `python -m textgraph.cli` process with one BLAS thread,
since the thread count changes a training run's float sums; the two trees
run under different PYTHONHASHSEED values, so comparing a checkout with
itself (`compare.py .`) checks that no output depends on the hash seed.

Every output file is compared byte for byte: the graph files, checkpoints,
report.json, each command's stdout, stderr and exit code, and metrics.jsonl
with its wall-clock `elapsed_ms` fields dropped.  Commands run with relative
paths, so paths printed by the commands match.  Prints each differing file
and each command that exited with another code than it should, and exits 1
if there is any.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE_TREE = Path(__file__).resolve().parents[2]

GRAPH = ["synth", "--out", "graph", "--seed", "0", "--nodes-per-type", "500"]

# name -> train config; its last checkpoint is evaluated on its task
CONFIGS = {
    "link": {
        "task": "link", "stages": "PreFineTuneLM,WarmStartGNN,EndToEnd",
        "epochs": "1,1,1", "batch_size": 32, "fanouts": 4, "num_layers": 2,
        "negatives_k": 4, "budget_train_nodes": 64, "cache_capacity": 4096,
        "cache_staleness": 10,
    },
    "node": {
        "task": "node", "stages": "WarmStartGNN,EndToEnd", "epochs": "1,1",
        "batch_size": 16, "num_layers": 3, "fanouts": 8,
        "budget_train_nodes": 16,
    },
    "edge": {
        "task": "edge", "stages": "PreFineTuneLM,WarmStartGNN,EndToEnd,HeadOnly",
        "epochs": "1,1,1,1", "batch_size": 32, "mlm_epochs": 1,
        "target_mode": "partition_local", "negative_mode": "independent",
        "budget_train_nodes": 32, "cache_capacity": 50, "cache_staleness": 2,
    },
    # no stage trains the encoder, so no row is encoded on the tape
    "frozen": {
        "task": "node", "stages": "WarmStartGNN", "epochs": "1",
        "batch_size": 16, "num_layers": 3, "fanouts": 8,
    },
}
# the edge plan at a capacity where the cache is full while blocks that
# refresh keys it holds are stored: 83 such blocks evict at seed 0
CONFIGS["edge300"] = {**CONFIGS["edge"], "cache_capacity": 300}
# the link plan on graph_ragged, whose texts hold 0 to 6 tokens: it reaches
# padding masks, cropped tape batches and tape rows narrower than their
# type's encode width, which every other config's 12-token texts miss
CONFIGS["ragged"] = {**CONFIGS["link"], "graph_dir": "graph_ragged"}

# node type -> n: graph_ragged is the graph with the text of node (type,
# local) cut to its first local % n tokens
RAGGED = {"query": 7, "product": 4}

# one-fault copies of the graph: name -> (file, line, column, new value).
# The link plan's last checkpoint is evaluated on each; every one must exit 2
FAULTS = {
    "bad_integer": ("edges.tsv", 2, "src_id", "1x"),
    "unknown_type": ("node_labels.tsv", 2, "node_type", "nosuchtype"),
    "duplicate_node": ("nodes.tsv", 3, "local_id", "0"),
    "unknown_labeled_edge": ("edge_labels.tsv", 2, "dst_id", "1000000"),
}


def run(tree: Path, work: Path, name: str, argv: list[str], hash_seed: str):
    """One CLI command of tree, run in work; its stdout, stderr and exit code
    are kept as output files <name>.stdout, .stderr and .exit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "textgraph.cli", *argv], cwd=work,
                          env=env, capture_output=True, text=True)
    for suffix, text in (("stdout", done.stdout), ("stderr", done.stderr),
                         ("exit", f"{done.returncode}\n")):
        (work / f"{name}.{suffix}").write_text(text, encoding="utf-8")


def last_checkpoint(name: str) -> str:
    """The stem of the checkpoint the last stage of config name saves."""
    stages = CONFIGS[name]["stages"].split(",")
    return f"{name}/stage{len(stages) - 1}_{stages[-1]}"


def write_ragged(work: Path):
    """graph_ragged: graph with each text cut by RAGGED."""
    shutil.copytree(work / "graph", work / "graph_ragged")
    path = work / "graph_ragged" / "nodes.tsv"
    header, *rows = path.read_text(encoding="utf-8").split("\n")
    for i, row in enumerate(rows):
        if row:
            tname, local, text = row.split("\t")
            kept = text.split()[:int(local) % RAGGED[tname]]
            rows[i] = "\t".join([tname, local, " ".join(kept)])
    path.write_text("\n".join([header, *rows]), encoding="utf-8")


def run_tree(tree: Path, work: Path, hash_seed: str):
    work.mkdir()
    run(tree, work, "synth", GRAPH, hash_seed)
    write_ragged(work)
    for name, config in CONFIGS.items():
        config = {"graph_dir": "graph", **config}
        cfg = work / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        run(tree, work, f"{name}.train", ["train", "--config", cfg.name,
                                          "--out", name], hash_seed)
        last = last_checkpoint(name)
        for rep in ("gnn", "cls"):
            run(tree, work, f"{name}.eval_{rep}",
                ["eval", last, config["graph_dir"], "--task", config["task"],
                 "--representation", rep], hash_seed)
        run(tree, work, f"{name}.dump",
            ["dump-embeddings", last, config["graph_dir"], "--out",
             f"{name}/emb.tsv"], hash_seed)
    for name, (file, line, column, value) in FAULTS.items():
        graph = work / f"graph_{name}"
        shutil.copytree(work / "graph", graph)
        lines = (graph / file).read_text(encoding="utf-8").split("\n")
        fields = lines[line - 1].split("\t")
        fields[lines[0].split("\t").index(column)] = value
        lines[line - 1] = "\t".join(fields)
        (graph / file).write_text("\n".join(lines), encoding="utf-8")
        run(tree, work, f"fault_{name}.eval",
            ["eval", last_checkpoint("link"), graph.name, "--task", "link"],
            hash_seed)


def comparable(path: Path) -> bytes:
    """The bytes a file is compared by: metrics.jsonl without elapsed_ms."""
    data = path.read_bytes()
    if path.name != "metrics.jsonl":
        return data
    records = [json.loads(line) for line in data.decode().splitlines()]
    return "".join(json.dumps({k: v for k, v in r.items() if k != "elapsed_ms"},
                              sort_keys=True) + "\n" for r in records).encode()


def expected_exit(name: str) -> str:
    """The .exit file content a command's run must leave."""
    return "2\n" if name.startswith("fault_") else "0\n"


def files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "textgraph" / "cli.py").is_file():
        print(f"error: {other} holds no src/textgraph/cli.py", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="textgraph-golden-") as tmp:
        ours, theirs = Path(tmp) / "ours", Path(tmp) / "theirs"
        with ThreadPoolExecutor(2) as pool:
            for job in [pool.submit(run_tree, HERE_TREE, ours, "1"),
                        pool.submit(run_tree, other, theirs, "2")]:
                job.result()
        names = sorted(files(ours) | files(theirs))
        differ = [name for name in names
                  if not ((ours / name).is_file() and (theirs / name).is_file()
                          and comparable(ours / name) == comparable(theirs / name))]
        failed = [f"{side.name}/{name}" for side in (ours, theirs) for name in names
                  if name.endswith(".exit") and (side / name).is_file()
                  and (side / name).read_text() != expected_exit(name)]
    print(f"compared {len(names)} files of {HERE_TREE} and {other}")
    for name in failed:
        print(f"failed: {name}")
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} differing files, {len(failed)} failed commands")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
