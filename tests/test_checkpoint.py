import json

import numpy as np
import pytest

from textgraph import checkpoint as ck
from textgraph.errors import LoadError


def test_round_trip(tmp_path, rng):
    arrays = {
        "enc/w": rng.normal(size=(4, 3)),
        "gnn/layer0": rng.normal(size=(2, 2, 2)),
        "dm/rel": rng.normal(size=5),
    }
    meta = {"dims": {"hidden": 7}, "task": "link"}
    path = ck.save_checkpoint(tmp_path / "model", arrays, meta)
    assert path.name == "model.json"
    loaded, meta2 = ck.load_checkpoint(tmp_path / "model")
    assert meta2 == meta
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].dtype == np.float64
        np.testing.assert_array_equal(loaded[k], arrays[k])


def test_accepts_bin_or_json_suffix(tmp_path):
    ck.save_checkpoint(tmp_path / "m.bin", {"a": np.ones(2)}, {})
    for name in ("m", "m.bin", "m.json"):
        arrays, _ = ck.load_checkpoint(tmp_path / name)
        np.testing.assert_array_equal(arrays["a"], [1.0, 1.0])


def test_missing_and_truncated(tmp_path):
    with pytest.raises(LoadError, match="not found"):
        ck.load_checkpoint(tmp_path / "nope")
    ck.save_checkpoint(tmp_path / "m", {"a": np.ones(8)}, {})
    blob = (tmp_path / "m.bin").read_bytes()
    (tmp_path / "m.bin").write_bytes(blob[:-8])
    with pytest.raises(LoadError, match="truncated|size"):
        ck.load_checkpoint(tmp_path / "m")


def test_bad_manifest(tmp_path):
    ck.save_checkpoint(tmp_path / "m", {"a": np.ones(2)}, {})
    (tmp_path / "m.json").write_text("nonsense")
    with pytest.raises(LoadError, match="bad JSON"):
        ck.load_checkpoint(tmp_path / "m")
    manifest = {"format": "other", "meta": {}, "arrays": []}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(LoadError, match="unknown format"):
        ck.load_checkpoint(tmp_path / "m")


def test_dotted_stems_in_one_directory_stay_apart(tmp_path):
    ck.save_checkpoint(tmp_path / "model.v1", {"a": np.ones(2)}, {"v": 1})
    ck.save_checkpoint(tmp_path / "model.v2", {"a": np.zeros(3)}, {"v": 2})
    for name, expected, v in (("model.v1", np.ones(2), 1),
                              ("model.v2.json", np.zeros(3), 2)):
        arrays, meta = ck.load_checkpoint(tmp_path / name)
        np.testing.assert_array_equal(arrays["a"], expected)
        assert meta == {"v": v}
    assert not (tmp_path / "model.bin").exists()


def _swap_offsets(m):
    first, second = m["arrays"]
    first["offset"], second["offset"] = second["offset"], first["offset"]


MANIFEST_MUTATIONS = {
    "overlapping offsets": lambda m: m["arrays"][1].update(offset=0),
    "swapped offsets": _swap_offsets,
    "no arrays": lambda m: m.pop("arrays"),
    "entry without shape": lambda m: m["arrays"][0].pop("shape"),
    "shape is a string": lambda m: m["arrays"][0].update(shape="4"),
    "negative dimension": lambda m: m["arrays"][0].update(shape=[-4]),
    "name is not a string": lambda m: m["arrays"][0].update(name=3),
    "repeated name": lambda m: m["arrays"][1].update(name="a"),
    "meta is not an object": lambda m: m.update(meta=["k"]),
}


@pytest.mark.parametrize("mutation", sorted(MANIFEST_MUTATIONS))
def test_malformed_manifest_is_a_load_error(tmp_path, mutation):
    ck.save_checkpoint(tmp_path / "m", {"a": np.ones(4), "b": np.zeros(4)},
                       {"k": 1})
    manifest = json.loads((tmp_path / "m.json").read_text())
    MANIFEST_MUTATIONS[mutation](manifest)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(LoadError, match="m.json"):
        ck.load_checkpoint(tmp_path / "m")


def test_manifest_that_is_not_an_object_is_a_load_error(tmp_path):
    ck.save_checkpoint(tmp_path / "m", {"a": np.ones(4)}, {})
    manifest = json.loads((tmp_path / "m.json").read_text())
    (tmp_path / "m.json").write_text(json.dumps([manifest]))
    with pytest.raises(LoadError, match="m.json"):
        ck.load_checkpoint(tmp_path / "m")
