"""The JSON inputs, dataset configs and HRIR pack indexes, read by one reader.

Every key of every object is read against its dataclass: a value of the
wrong JSON type fails with an error that names the key, the file and, for
a pack entry, its position. Fuzzed values of any kind either load or fail
with a ValueError that names the file.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit import wavio
from binauralkit.cli import main
from binauralkit.hrir import load_pack, save_pack, synth_pack
from binauralkit.scenegen import load_dataset_config
from binauralkit.spherical import Direction
from binauralkit.visualmap import FovConfig

SR = 16000
README = Path(__file__).resolve().parents[1] / "README.md"

# (key, the JSON kind it is read as, required) for each object of each input
KEYS = {
    "dataset": [
        ("master_seed", "int", True), ("count", "int", True), ("pool", "list", True),
        ("output_dir", "string", True), ("ratios", "list", False),
        ("sample_rate", "int", False), ("duration_s", "float", False),
        ("gain_range", "list", False), ("fov", "object", False), ("pack", "string", False),
        ("array", "list", False),
    ],
    "fov": [("theta_v0", "float", False), ("aspect_hw", "float", False),
            ("vert_extent", "float", False)],
    "index": [("name", "string", True), ("sample_rate", "int", True), ("entries", "list", True)],
    "entry": [("azimuth_deg", "float", True), ("elevation_deg", "float", True),
              ("left", "string", True), ("right", "string", True)],
}
WRONG = {"bool": True, "string": "1", "list": [1.0], "object": {"a": 1}, "null": None}


def wrong_values():
    for place, keys in KEYS.items():
        for key, kind, required in keys:
            for name, value in WRONG.items():
                if name != kind and (name != "null" or required):
                    yield pytest.param(place, key, value, id=f"{place}-{key}-{name}")


def write_pool(root) -> list[str]:
    for i in range(3):
        wavio.write_wav(root / f"c{i}.wav", SR, np.full(SR // 10, 0.1 * (i + 1)))
    return [f"c{i}.wav" for i in range(3)]


def write_config(root, **overrides):
    config = {"master_seed": 7, "count": 2, "pool": write_pool(root), "output_dir": "out",
              "duration_s": 0.05}
    config.update(overrides)
    path = root / "dataset.json"
    path.write_text(json.dumps(config))
    return path


def write_index(root, index_change=(), entry_change=()):
    for ear in "lr":
        wavio.write_wav(root / f"{ear}.wav", SR, np.array([1.0, 0.5]))
    e = {"azimuth_deg": 0, "elevation_deg": 0, "left": "l.wav", "right": "r.wav"}
    index = {"name": "two", "sample_rate": SR,
             "entries": [e, {**e, "azimuth_deg": 90, **dict(entry_change)}]}
    index.update(index_change)
    path = root / "index.json"
    path.write_text(json.dumps(index))
    return path


@pytest.mark.parametrize("place, key, value", wrong_values())
def test_wrong_json_type_is_named(tmp_path, capsys, place, key, value):
    if place in ("dataset", "fov"):
        fov = {"theta_v0": 0.5, "aspect_hw": 0.75, "vert_extent": 0.25, key: value}
        path = write_config(tmp_path, **({"fov": fov} if place == "fov" else {key: value}))
        assert main(["dataset", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert (f"{key} in fov in {path}" if place == "fov" else f"{key} in {path}") in err
        assert not (tmp_path / "out").exists()
    else:
        change = {key: value}
        path = write_index(tmp_path, *((change, ()) if place == "index" else ((), change)))
        with pytest.raises(ValueError) as info:
            load_pack(tmp_path)
        where = f"{path}" if place == "index" else f"{path} entry 1"
        assert str(info.value).startswith(f"{key} in {where}")


def test_mistyped_fov_fails_before_work(tmp_path, capsys):
    fov = {"theta_v0": True, "aspect_hw": "0.5", "vert_extent": 1}
    path = write_config(tmp_path, fov=fov)
    assert main(["dataset", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: theta_v0 in fov in {path}: expected float, got True\n"
    assert not (tmp_path / "out").exists()


def test_unknown_fov_key_is_rejected(tmp_path):
    path = write_config(tmp_path, fov={"theta_v0": 0.5, "vert_extnt": 1.0})
    with pytest.raises(ValueError) as info:
        load_dataset_config(path)
    assert str(info.value) == f"unknown keys in fov in {path}: vert_extnt"


@pytest.mark.parametrize("key, value", [
    ("vert_extent", math.nan), ("vert_extent", math.inf), ("aspect_hw", math.nan),
    ("aspect_hw", math.inf),
])
def test_non_finite_fov_value_fails_before_work(tmp_path, capsys, key, value):
    path = write_config(tmp_path, fov={"theta_v0": 0.5, key: value})
    message = f"fov in {path}: {key} must be positive and finite, got {value}"
    with pytest.raises(ValueError) as info:
        load_dataset_config(path)
    assert str(info.value) == message
    assert main(["dataset", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_oversized_duration_is_named(tmp_path, capsys):
    # 1e308 s is an infinite sample count at any rate
    path = write_config(tmp_path, duration_s=1e308)
    message = (f"{path}: duration_s must be positive and count fewer than 2**63 samples "
               f"at {SR} Hz, got 1e+308")
    with pytest.raises(ValueError) as info:
        load_dataset_config(path)
    assert str(info.value) == message
    assert main(["dataset", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("index_change, entry_change, where", [
    ({"gain": 1.0}, {}, "{index}"),
    ({}, {"gain": 1.0}, "{index} entry 1"),
], ids=["index", "entry"])
def test_unknown_index_key_is_rejected(tmp_path, index_change, entry_change, where):
    path = write_index(tmp_path, index_change, entry_change)
    with pytest.raises(ValueError) as info:
        load_pack(tmp_path)
    assert str(info.value) == f"unknown keys in {where.format(index=path)}: gain"


@pytest.mark.parametrize("key, value", [
    ("ratios", [math.nan, 0.5, 0.5]), ("ratios", [0.5, 0.5, math.nan]),
    ("gain_range", [0.5, math.inf]), ("gain_range", [math.inf, math.inf]),
], ids=["ratios-nan-first", "ratios-nan-last", "gain_range-inf-hi", "gain_range-inf-both"])
def test_non_finite_sampling_value_is_named(tmp_path, capsys, key, value):
    message = {"ratios": "ratios must be 3 non-negative values summing to 1",
               "gain_range": "gain_range must be two finite values 0 < lo <= hi"}[key]
    path = write_config(tmp_path, **{key: value})
    with pytest.raises(ValueError) as info:
        load_dataset_config(path)
    assert str(info.value).startswith(f"{path}: {message}, got ")
    assert main(["dataset", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {key} must be")
    assert not (tmp_path / "out").exists()


def test_missing_fov_key_takes_its_default(tmp_path):
    config, *_ = load_dataset_config(write_config(tmp_path, fov={"theta_v0": 0.5}))
    assert config.fov == FovConfig(theta_v0=0.5)
    config, *_ = load_dataset_config(write_config(tmp_path, fov={"aspect_hw": None}))
    assert config.fov == FovConfig()


def test_saved_pack_loads_to_an_equal_pack(tmp_path):
    pack = synth_pack(n_azimuths=6)
    save_pack(pack, tmp_path)
    back = load_pack(tmp_path)
    assert (back.name, back.sample_rate) == (pack.name, pack.sample_rate)
    for a, b in zip(pack.entries, back.entries, strict=True):
        assert b.direction == Direction.from_degrees(*np.degrees(
            [a.direction.azimuth, a.direction.elevation]))
        for fir_a, fir_b in ((a.left_fir, b.left_fir), (a.right_fir, b.right_fir)):
            np.testing.assert_array_equal(fir_a.astype(np.float32), fir_b)


def test_readme_index_example_loads(tmp_path):
    # the JSON block under "HRIR pack format" in the README
    text = README.read_text().split("### HRIR pack format", 1)[1]
    index = json.loads(text.split("```json", 1)[1].split("```", 1)[0])
    (tmp_path / "index.json").write_text(json.dumps(index))
    wavio.write_wav(tmp_path / "d000_L.wav", SR, np.array([1.0, 0.0]))
    wavio.write_wav(tmp_path / "d000_R.wav", SR, np.array([0.5, 0.0]))
    pack = load_pack(tmp_path)
    assert (pack.name, pack.sample_rate, len(pack.entries)) == ("...", SR, 1)
    assert pack.entries[0].direction == Direction(0.0, 0.0)
    np.testing.assert_array_equal(pack.entries[0].right_fir, [0.5, 0.0])


# --- fuzzed values: a load succeeds or raises a ValueError naming the file --

NUMBERS = st.sampled_from([0, -1, 1, 3, 2**64, 10**400, -(10**400), 0.5, -0.0, 5e-324, 1e308,
                           math.nan, math.inf, -math.inf]) | st.integers() | st.floats()
STRINGS = st.sampled_from(["", ".", "..", "missing.wav", "c1.wav", "d001_R.wav", "pack",
                           "index.json"]) | st.text(max_size=6)
SCALARS = st.none() | st.booleans() | NUMBERS | STRINGS
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(STRINGS, inner, max_size=2), max_leaves=6)


def mutated(doc, data):
    """A copy of the JSON object `doc` with one or two values replaced, mostly
    by values of their own JSON kind, or dropped. Each change walks down from
    a top-level key, one level deeper at each step with probability 3/4."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.integers(0, 3)):
            parent = parent[key]
            key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                            else range(len(parent))))
        old = parent[key]
        kind = (STRINGS if isinstance(old, str) else st.lists(NUMBERS, max_size=3)
                if isinstance(old, list) else NUMBERS)
        action = data.draw(st.sampled_from(["same kind", "any value", "drop"]))
        if action == "drop":
            del parent[key]
        else:
            parent[key] = data.draw(kind if action == "same kind" else VALUES)
    return doc


class TestFuzzedValues:
    """Valid dataset configs and pack indexes with values replaced or dropped:
    each load returns, or raises a ValueError whose message names the file."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        for name in ("pack", "indexed"):  # the config's pack, and the one whose index is fuzzed
            save_pack(synth_pack(n_azimuths=4), root / name)
        config = {"master_seed": 7, "count": 2, "pool": write_pool(root), "output_dir": "out",
                  "ratios": [0.4, 0.5, 0.1], "sample_rate": SR, "duration_s": 0.05,
                  "gain_range": [0.5, 1.0], "pack": "pack", "array": [[0, 0], [90, 0], [180, 0]],
                  "fov": {"theta_v0": 0.5, "aspect_hw": 0.75, "vert_extent": 0.25}}
        index = json.loads((root / "indexed" / "index.json").read_text())
        return root, config, index

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_dataset_config(self, folder, data):
        root, config, _ = folder
        path = root / "dataset.json"
        path.write_text(json.dumps(mutated(config, data)))
        try:
            load_dataset_config(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        assert not (root / "out").exists()

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_pack_index(self, folder, data):
        root, _, index = folder
        path = root / "indexed" / "index.json"
        path.write_text(json.dumps(mutated(index, data)))
        try:
            load_pack(path.parent)
        except ValueError as exc:
            assert str(path) in str(exc)
