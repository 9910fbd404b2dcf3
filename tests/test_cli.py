"""End-to-end command tests: synth, train, eval, dump-embeddings."""

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

import textgraph.cli as cli
import textgraph.decoders as dec
import textgraph.pipeline as pl
from textgraph import tensor as tg
from textgraph.errors import ContractError
from textgraph.graph import (SyntheticSpec, generate_synthetic, load_graph,
                             sample_neighbors, save_graph)
from textgraph.rgcn import gnn_forward


def _dir_hashes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _write_config(path, graph_dir, **over):
    lines = {
        "graph_dir": graph_dir,
        "task": "link",
        "stages": "WarmStartGNN",
        "epochs": "1",
        "batch_size": "8",
        "fanouts": "3",
        "num_layers": "2",
        "hidden_dim": "128",
        "learning_rate": "1e-3",
        "negatives_k": "2",
        "negative_mode": "joint",
        "budget_train_nodes": "8",
        "budget_infer_batch": "16",
        "cache_capacity": "256",
        "cache_staleness": "5",
        "target_mode": "global",
        "seed": "0",
    }
    lines.update(over)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# run options\n")
        for k, v in lines.items():
            if v is not None:
                f.write(f"{k} = {v}\n")
    return str(path)


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthgraph")
    rc = cli.main(["synth", "--out", str(out), "--seed", "3",
                   "--nodes-per-type", "30", "--clusters", "2",
                   "--intra-p", "0.2", "--inter-p", "0.02",
                   "--vocab-size", "30", "--tokens-per-node", "4"])
    assert rc == 0
    return str(out)


# ------------------------------------------------------------------- synth


def test_synth_output_loads(graph_dir):
    graph = load_graph(graph_dir)
    assert graph.total_nodes == 60


def test_synth_same_seed_byte_identical(tmp_path):
    args = ["--seed", "5", "--nodes-per-type", "20", "--clusters", "2",
            "--intra-p", "0.3", "--inter-p", "0.05",
            "--vocab-size", "20", "--tokens-per-node", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--out", str(a)] + args) == 0
    assert cli.main(["synth", "--out", str(b)] + args) == 0
    assert _dir_hashes(a) == _dir_hashes(b)


def test_synth_rejects_single_cluster(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path / "one"), "--clusters", "1"])
    assert rc == 2
    assert "cluster" in capsys.readouterr().err.lower()


def test_synth_refuses_nonempty_dir_without_force(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    args = ["synth", "--out", str(out), "--nodes-per-type", "20",
            "--clusters", "2", "--intra-p", "0.3", "--inter-p", "0.05",
            "--vocab-size", "20", "--tokens-per-node", "3"]
    assert cli.main(args) == 2
    assert cli.main(args + ["--force"]) == 0


# ------------------------------------------------------------------- config


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.txt", "unused", dropout="0.5")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "dropout" in capsys.readouterr().err


def test_config_enumerated_ranges(tmp_path, graph_dir, capsys):
    for bad in ({"hidden_dim": "100"}, {"learning_rate": "0.5"},
                {"num_layers": "4"}, {"negative_mode": "both"},
                {"task": "ranking"}, {"stages": "WarmStartGNN,Nope"},
                {"epochs": "0"}, {"batch_size": "-3"}):
        cfg = _write_config(tmp_path / "c.txt", graph_dir, **bad)
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2, bad
        assert f"'{next(iter(bad))}'" in capsys.readouterr().err, bad


def test_negative_seed_flag_exits_2_before_any_work(tmp_path, graph_dir,
                                                   capsys):
    out = tmp_path / "o"
    assert cli.main(["synth", "--out", str(out), "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    cfg = _write_config(tmp_path / "c.txt", graph_dir)
    assert cli.main(["train", "--config", cfg, "--out", str(out),
                     "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_config_stage_epoch_length_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.txt", "unused",
                        stages="WarmStartGNN,EndToEnd", epochs="1")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "epochs" in capsys.readouterr().err


def test_config_missing_graph_dir(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.txt", None)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "graph_dir" in capsys.readouterr().err


# one bad value per TrainSettings field: (config file value, programmatic
# value); a field no config file sets is an unknown key there
BAD_SETTINGS = {
    "task": ("ranking", "ranking"),
    "stages": ("WarmStartGNN,Nope", ("Nope",)),
    "epochs": ("0", (0,)),
    "batch_size": ("99999999999999999999", 2 ** 63),
    "fanouts": ("99999999999999999999", 0),
    "num_layers": ("4", 0),
    "hidden_dim": ("100", -1),
    "learning_rate": ("-1.0", -1.0),
    "stage_learning_rates": ("0.0", (-1.0, 1e-3, 1e-3)),
    "negatives_k": ("99999999999999999999", True),
    "negative_mode": ("both", "both"),
    "budget_train_nodes": ("0", 0),
    "budget_infer_batch": ("-1", 1.5),
    "cache_capacity": ("-1", -1),
    "cache_staleness": ("99999999999999999999", 2 ** 63),
    "target_mode": ("local", "local"),
    "partitions": ("0", np.int64(0)),
    "mlm_epochs": ("-1", -1),
    "mlm_mask_prob": ("0", 1.5),
    "max_len": ("0", 0),
    "dim": ("0", 0),
    "num_heads": ("0", 0),
    "num_blocks": ("0", 0),
    "aggregation": ("max", "max"),
    "seed": ("-1", -1),
}


def test_every_setting_has_a_rule_and_a_bad_value():
    names = {f.name for f in dataclasses.fields(pl.TrainSettings)}
    assert set(pl.SETTING_RULES) == names == set(BAD_SETTINGS)
    assert pl.TrainSettings(seed=2 ** 70).seed == 2 ** 70  # no upper bound


@pytest.mark.parametrize("key", sorted(BAD_SETTINGS))
def test_bad_config_value_exits_2_naming_the_key(tmp_path, graph_dir, capsys,
                                                 key):
    cfg = _write_config(tmp_path / "c.txt", graph_dir,
                        **{key: BAD_SETTINGS[key][0]})
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(BAD_SETTINGS))
def test_bad_setting_fails_before_models_are_built(graph_dir, monkeypatch, key):
    graph = load_graph(graph_dir)
    monkeypatch.setattr(pl, "build_models", lambda *a, **k: pytest.fail(
        "models were built"))
    with pytest.raises(ContractError, match=f"key '{key}' must be"):
        pl.run_stagewise(graph, pl.TrainSettings(**{key: BAD_SETTINGS[key][1]}))


def test_readme_run_cfg_parses_into_the_defaults(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        block = f.read().split("with `run.cfg`:\n\n```\n", 1)[1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block.split("```", 1)[0])
    settings, paths = cli.parse_config(str(cfg))
    assert paths == {"graph_dir": "/tmp/g"}
    assert settings == pl.TrainSettings()  # the block spells out the defaults


def test_synth_flags_default_to_the_spec():
    args = cli.build_parser().parse_args(["synth", "--out", "unused"])
    assert SyntheticSpec(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(SyntheticSpec)}) \
        == SyntheticSpec()


def test_integer_flags_past_int64_exit_2(tmp_path, trained, capsys):
    huge = "99999999999999999999"
    out = tmp_path / "g"
    assert cli.main(["synth", "--out", str(out), "--nodes-per-type", huge]) == 2
    assert "'nodes_per_type'" in capsys.readouterr().err
    assert not out.exists()
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    assert cli.main(["dump-embeddings", ckpt, trained["graph_dir"],
                     "--out", str(tmp_path / "e.tsv"), "--fanouts", huge]) == 2
    assert "fanouts" in capsys.readouterr().err


def _edit_graph_file(src_dir, dst_dir, name, edit):
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, name)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(edit(lines))
    return str(dst_dir)


@pytest.mark.parametrize("task, name, edit, split", [
    ("node", "node_labels.tsv",
     lambda lines: [l.replace("\ttest\n", "\ttrain\n") for l in lines], "test"),
    ("link", "edge_labels.tsv", lambda lines: lines[:1], "valid")])
def test_plan_without_eval_rows_fails_before_any_step(tmp_path, graph_dir,
                                                     capsys, task, name, edit,
                                                     split):
    gdir = _edit_graph_file(graph_dir, tmp_path / "g", name, edit)
    cfg = _write_config(tmp_path / "c.txt", gdir, task=task,
                        stages="PreFineTuneLM,WarmStartGNN", epochs="1,1")
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert f"the {task} task has no {split} rows" in capsys.readouterr().err
    assert os.listdir(out) == []  # no step record, no checkpoint


@pytest.mark.parametrize("key", ["batch_size", "negatives_k"])
def test_step_count_past_memory_exits_2_before_any_step(tmp_path, graph_dir,
                                                        capsys, key):
    """2**62 fits int64: the batch sampler raised ValueError (exit 1) and
    np.repeat crashed by SIGSEGV.  Smaller sizes that numpy would really try
    to allocate are left untested."""
    cfg = _write_config(tmp_path / "c.txt", graph_dir, **{key: str(2 ** 62)})
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: key '{key}' must be") and err.count("\n") == 1
    assert not out.exists()


def test_memory_error_exits_2(tmp_path, graph_dir, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(pl, "run_stagewise", out_of_memory)
    cfg = _write_config(tmp_path / "c.txt", graph_dir)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 32.0 GiB\n"


@pytest.mark.parametrize("name", ["node_labels.tsv", "edge_labels.tsv"])
def test_class_id_past_int64_exits_2_naming_the_line(tmp_path, graph_dir,
                                                     capsys, name):
    def huge_first_class(lines):
        cols = lines[1].split("\t")
        cols[-2] = "99999999999999999999"
        return [lines[0], "\t".join(cols)] + lines[2:]

    gdir = _edit_graph_file(graph_dir, tmp_path / "g", name, huge_first_class)
    cfg = _write_config(tmp_path / "c.txt", gdir)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name}:2: class_id" in err
    assert err.count("\n") == 1


# -------------------------------------------------------------------- train


@pytest.fixture(scope="module")
def trained(tmp_path_factory, graph_dir):
    base = tmp_path_factory.mktemp("trainrun")
    cfg = _write_config(base / "run.txt", graph_dir,
                        stages="PreFineTuneLM,WarmStartGNN", epochs="1,1")
    out = base / "out"
    rc = cli.main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return {"cfg": cfg, "out": str(out), "graph_dir": graph_dir}


def test_train_writes_stage_checkpoints_and_report(trained):
    names = sorted(os.listdir(trained["out"]))
    assert "stage0_PreFineTuneLM.json" in names
    assert "stage1_WarmStartGNN.json" in names
    assert "stage1_WarmStartGNN.bin" in names
    assert "metrics.jsonl" in names and "report.json" in names
    with open(os.path.join(trained["out"], "report.json")) as f:
        report = json.load(f)
    assert report["split"] == "test" and "mrr" in report["metrics"]


def test_train_reproducible_excluding_elapsed(tmp_path, trained):
    out2 = tmp_path / "out2"
    rc = cli.main(["train", "--config", trained["cfg"], "--out", str(out2)])
    assert rc == 0
    with open(os.path.join(trained["out"], "report.json"), "rb") as f:
        first = f.read()
    assert first == (out2 / "report.json").read_bytes()

    def stripped(path):
        rows = []
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                r.pop("elapsed_ms", None)
                rows.append(json.dumps(r, sort_keys=True))
        return rows

    assert stripped(os.path.join(trained["out"], "metrics.jsonl")) == \
        stripped(str(out2 / "metrics.jsonl"))


def test_nonfinite_loss_exits_3(tmp_path, graph_dir, monkeypatch, capsys):
    real = dec.link_loss
    monkeypatch.setattr(dec, "link_loss", lambda *args: tg.mul(
        real(*args), tg.Tensor(np.nan)))
    cfg = _write_config(tmp_path / "run.txt", graph_dir)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "WarmStartGNN" in capsys.readouterr().err


def test_out_that_names_a_file_exits_2(tmp_path, graph_dir, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = _write_config(tmp_path / "run.txt", graph_dir)
    for argv in (["synth", "--out", str(taken), "--nodes-per-type", "20"],
                 ["train", "--config", cfg, "--out", str(taken)],
                 ["train", "--config", cfg, "--out", str(taken / "sub")]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_blas_thread_count_does_not_change_a_run(tmp_path):
    gdir = tmp_path / "graph"
    assert cli.main(["synth", "--out", str(gdir), "--nodes-per-type", "120"]) == 0
    cfg = _write_config(tmp_path / "run.txt", str(gdir),
                        stages="PreFineTuneLM,WarmStartGNN,EndToEnd",
                        epochs="1,1,1")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "textgraph.cli", "train",
                        "--config", cfg, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        with open(out / "metrics.jsonl") as f:
            records = [json.loads(line) for line in f]
        for r in records:
            r.pop("elapsed_ms", None)
        files = _dir_hashes(out)
        del files["metrics.jsonl"]
        runs.append((records, files))
    assert len(runs[0][1]) == 1 + 3 * 3  # report.json, 3 checkpoints
    assert runs[0] == runs[1]


# --------------------------------------------------------------------- eval


def test_eval_matches_train_report(trained, capsys):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    rc = cli.main(["eval", ckpt, trained["graph_dir"], "--task", "link",
                   "--split", "test"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    with open(os.path.join(trained["out"], "report.json")) as f:
        report = json.load(f)
    assert printed["metrics"] == report["metrics"]


def test_eval_twice_identical_bytes(trained, capsys):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    argv = ["eval", ckpt, trained["graph_dir"], "--task", "link"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_rejects_missing_head(tmp_path, capsys):
    graph = generate_synthetic(SyntheticSpec(
        nodes_per_type=20, clusters=2, intra_p=0.3, inter_p=0.05,
        vocab_size=20, tokens_per_node=3, seed=8))
    gdir = tmp_path / "nolabel"
    save_graph(graph, gdir)
    os.remove(gdir / "node_labels.tsv")
    os.remove(gdir / "edge_labels.tsv")
    bare = load_graph(str(gdir))
    settings = pl.TrainSettings()
    models = pl.build_models(bare, settings)
    assert models.node_head is None
    stem = str(tmp_path / "bare_ckpt")
    pl.save_bundle(stem, models, bare, settings)
    rc = cli.main(["eval", stem, str(gdir), "--task", "node"])
    assert rc == 2
    assert "head" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["node", "edge"])
def test_eval_without_the_task_head_exits_2_naming_it(tmp_path, graph_dir,
                                                      capsys, task):
    graph = load_graph(graph_dir)
    settings = pl.TrainSettings()
    models = pl.build_models(graph, settings)
    setattr(models, f"{task}_head", None)
    stem = str(tmp_path / "ckpt")
    pl.save_bundle(stem, models, graph, settings)
    assert cli.main(["eval", stem, graph_dir, "--task", task]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the models have no {task} classifier head")
    assert err.count("\n") == 1


@pytest.mark.parametrize("task, name", [("node", "node_labels.tsv"),
                                        ("edge", "edge_labels.tsv")])
def test_eval_label_class_beyond_the_head_exits_2(tmp_path, trained, capsys,
                                                  task, name):
    def relabel_first_test_row(lines):
        i = next(i for i, l in enumerate(lines) if l.endswith("\ttest\n"))
        cols = lines[i].split("\t")
        cols[-2] = "7"
        return lines[:i] + ["\t".join(cols)] + lines[i + 1:]

    gdir = _edit_graph_file(trained["graph_dir"], tmp_path / "g", name,
                            relabel_first_test_row)
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    assert cli.main(["eval", ckpt, gdir, "--task", task]) == 2
    assert f"{task} label class 7 is beyond the {task} head's 2 classes" in \
        capsys.readouterr().err


def test_eval_rejects_mismatched_graph(tmp_path, trained):
    other = tmp_path / "othergraph"
    assert cli.main(["synth", "--out", str(other), "--seed", "9",
                     "--nodes-per-type", "25", "--clusters", "2",
                     "--intra-p", "0.3", "--inter-p", "0.05",
                     "--vocab-size", "25", "--tokens-per-node", "3"]) == 0
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    assert cli.main(["eval", ckpt, str(other), "--task", "link"]) == 2


def test_eval_rejects_headerless_graph_file(tmp_path, trained, capsys):
    gdir = tmp_path / "headerless"
    shutil.copytree(trained["graph_dir"], gdir)
    edges = gdir / "edges.tsv"
    edges.write_text(edges.read_text().split("\n", 1)[1])
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    assert cli.main(["eval", ckpt, str(gdir), "--task", "link"]) == 2
    assert "edges.tsv:1: expected the header" in capsys.readouterr().err


def test_eval_rejects_manifest_missing_meta_key(tmp_path, trained, capsys):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    stem = str(tmp_path / "ckpt")
    for ext in (".bin", ".vocab.txt"):
        shutil.copyfile(ckpt + ext, stem + ext)
    with open(ckpt + ".json", encoding="utf-8") as f:
        manifest = json.load(f)
    del manifest["meta"]["aggregation"]
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    rc = cli.main(["eval", stem, trained["graph_dir"], "--task", "link"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ckpt.json" in err and "'aggregation'" in err


@pytest.mark.parametrize("key, value", [
    ("dim", "16"), ("node_classes", "2"), ("max_len", "x"),
    ("hidden_dim", 16.5), ("relations", 5), ("num_heads", 0),
    ("vocab_size", "25"), ("aggregation", "max"), ("num_layers", True),
    ("edge_classes", -1), ("node_types", ["a", 1]), ("node_counts", [30.0]),
    ("relations", [["r", "a"]])])
def test_eval_rejects_wrongly_typed_meta(tmp_path, trained, capsys, key, value):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    stem = str(tmp_path / "ckpt")
    for ext in (".bin", ".vocab.txt"):
        shutil.copyfile(ckpt + ext, stem + ext)
    with open(ckpt + ".json", encoding="utf-8") as f:
        manifest = json.load(f)
    manifest["meta"][key] = value
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    rc = cli.main(["eval", stem, trained["graph_dir"], "--task", "link"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ckpt.json" in err and f"'{key}'" in err


def test_eval_rejects_overlapping_manifest_offsets(tmp_path, trained, capsys):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    stem = str(tmp_path / "ckpt")
    for ext in (".bin", ".vocab.txt"):
        shutil.copyfile(ckpt + ext, stem + ext)
    with open(ckpt + ".json", encoding="utf-8") as f:
        manifest = json.load(f)
    manifest["arrays"][1]["offset"] = 0
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    rc = cli.main(["eval", stem, trained["graph_dir"], "--task", "link"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ckpt.json" in err and manifest["arrays"][1]["name"] in err


def test_non_default_architecture_evaluates_from_the_models(tmp_path, capsys):
    """eval and dump-embeddings read the GNN's depth and width from the
    checkpoint alone."""
    gdir = tmp_path / "graph"
    assert cli.main(["synth", "--out", str(gdir), "--seed", "4",
                     "--nodes-per-type", "20", "--clusters", "2",
                     "--intra-p", "0.3", "--inter-p", "0.05",
                     "--vocab-size", "20", "--tokens-per-node", "3"]) == 0
    cfg = _write_config(tmp_path / "run.txt", str(gdir), num_layers="3",
                        hidden_dim="256")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    ckpt = str(out / "stage0_WarmStartGNN")
    graph = load_graph(str(gdir))
    models = pl.load_bundle(ckpt, graph)
    assert [layer.w_self.data.shape[1] for layer in models.gnn.layers] == \
        [256, 256, models.dim]

    assert cli.main(["eval", ckpt, str(gdir), "--task", "link"]) == 0
    assert capsys.readouterr().out == (out / "report.json").read_text()

    dump = tmp_path / "emb.tsv"
    assert cli.main(["dump-embeddings", ckpt, str(gdir),
                     "--out", str(dump)]) == 0
    with open(dump) as f:
        dumped = np.array([[float(v) for v in line.split("\t")[2:]]
                           for line in f])
    assert np.array_equal(dumped, pl.full_graph_embeddings(models, graph))


# ---------------------------------------------------------- dump-embeddings


def test_dump_embeddings_shape_and_recomputation(tmp_path, trained):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    out = tmp_path / "emb.tsv"
    rc = cli.main(["dump-embeddings", ckpt, trained["graph_dir"],
                   "--out", str(out)])
    assert rc == 0
    graph = load_graph(trained["graph_dir"])
    models = pl.load_bundle(ckpt, graph)
    expected = pl.full_graph_embeddings(models, graph)
    with open(out) as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    assert len(rows) == graph.total_nodes
    assert all(len(r) == 2 + models.dim for r in rows)
    assert rows[0][0] == graph.node_types[0] and rows[0][1] == "0"
    dumped = np.array([[float(v) for v in r[2:]] for r in rows])
    assert np.array_equal(dumped, expected)  # repr round-trips float64


def test_dump_embeddings_out_that_names_a_directory_exits_2(tmp_path, trained,
                                                           capsys):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    assert cli.main(["dump-embeddings", ckpt, trained["graph_dir"],
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_dump_embeddings_deterministic(tmp_path, trained):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for path in (a, b):
        assert cli.main(["dump-embeddings", ckpt, trained["graph_dir"],
                         "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dump_embeddings_honors_fanouts_on_small_graphs(tmp_path, trained):
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    narrow, full = tmp_path / "narrow.tsv", tmp_path / "full.tsv"
    assert cli.main(["dump-embeddings", ckpt, trained["graph_dir"],
                     "--out", str(narrow), "--fanouts", "1"]) == 0
    assert cli.main(["dump-embeddings", ckpt, trained["graph_dir"],
                     "--out", str(full)]) == 0
    graph = load_graph(trained["graph_dir"])
    assert graph.total_nodes <= pl.EVAL_FULL_CORRUPTION_LIMIT
    models = pl.load_bundle(ckpt, graph)
    all_refs = pl.node_refs(graph)
    batch = sample_neighbors(graph, all_refs, fanouts=1,
                             num_layers=len(models.gnn.layers), rng=0)
    with tg.no_grad():
        feats, _ = pl.assemble_features(
            models, graph, batch.source_refs, cache=pl.EmbeddingCache(0, 0),
            train_nodes=0, infer_batch=pl.EVAL_CHUNK, rng=0)
        expected = gnn_forward(models.gnn, batch, feats).data[
            batch.target_index(all_refs)]
    with open(narrow) as f:
        dumped = np.array([[float(v) for v in line.split("\t")[2:]]
                           for line in f])
    assert np.array_equal(dumped, expected)
    assert narrow.read_bytes() != full.read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_freed_heap_is_reused_without_page_faults():
    # a step's worth of activations, freed together as a finished tape is
    def round_trip():
        blocks = [np.ones(1 << 18) for _ in range(40)]  # 40 x 2 MiB, touched
        del blocks

    cli._keep_freed_heap()
    round_trip()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        round_trip()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # without the fixed thresholds each round re-faults all 80 MiB (~20k pages)
    assert faults < 2000


def test_eval_has_no_fanouts_flag(trained, capsys):
    """eval always uses the saturating neighborhood, so it takes no fanout."""
    ckpt = os.path.join(trained["out"], "stage1_WarmStartGNN")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", ckpt, trained["graph_dir"], "--task", "link",
                  "--fanouts", "3"])
    assert exc.value.code == 2
    assert "--fanouts" in capsys.readouterr().err
