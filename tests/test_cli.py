import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import binauralkit
from binauralkit import wavio
from binauralkit.cli import main

SR = 16000


def write_tone(path, seconds=1.0, freq=440.0, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    wavio.write_wav(path, sr, 0.5 * np.sin(2 * np.pi * freq * t))
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def tone(tmp_path):
    return write_tone(tmp_path / "tone.wav")


class TestRender:
    def test_front_wy_gives_identical_channels(self, tmp_path, tone, capsys):
        out = tmp_path / "out.wav"
        code = main([
            "render", "--in", str(tone), "--out", str(out),
            "--decoder", "wy", "--azimuth-deg", "0",
        ])
        assert code == 0
        _, data = wavio.read_wav(out)
        np.testing.assert_array_equal(data[:, 0], data[:, 1])

    def test_pixel_left_edge_logs_plus_sixty(self, tmp_path, tone, capsys):
        out = tmp_path / "out.wav"
        code = main([
            "render", "--in", str(tone), "--out", str(out),
            "--decoder", "wy", "--pixel", "-1", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "azimuth +60.000 deg" in captured.out

    def test_zenith_flag(self, tmp_path, tone, capsys):
        out = tmp_path / "out.wav"
        code = main([
            "render", "--in", str(tone), "--out", str(out),
            "--decoder", "wy", "--azimuth-deg", "0", "--zenith-deg", "90",
        ])
        assert code == 0
        assert "elevation +0.000 deg" in capsys.readouterr().out

    def test_deterministic_output_bytes(self, tmp_path, tone):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        args = ["render", "--in", str(tone), "--decoder", "ambisonic-hrir",
                "--azimuth-deg", "45", "--elevation-deg", "10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert file_hash(a) == file_hash(b)

    def test_missing_direction_fails(self, tmp_path, tone, capsys):
        code = main(["render", "--in", str(tone), "--out", str(tmp_path / "x.wav"),
                     "--decoder", "wy"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_stereo_input_rejected(self, tmp_path, capsys):
        stereo = tmp_path / "st.wav"
        wavio.write_wav(stereo, SR, np.zeros((100, 2)))
        code = main(["render", "--in", str(stereo), "--out", str(tmp_path / "x.wav"),
                     "--decoder", "wy", "--azimuth-deg", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestHrirSynth:
    def test_writes_valid_pack(self, tmp_path, capsys):
        out = tmp_path / "pack"
        code = main(["hrir-synth", "--out-dir", str(out), "--n-azimuths", "8"])
        assert code == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["entries"]) == 8
        from binauralkit.hrir import load_pack

        assert len(load_pack(out).entries) == 8

    def test_invalid_head_radius_fails(self, tmp_path, capsys):
        code = main(["hrir-synth", "--out-dir", str(tmp_path / "p"),
                     "--head-radius", "-1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_self_comparison(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        stereo = tmp_path / "gt.wav"
        wavio.write_wav(stereo, SR, rng.normal(size=(SR, 2)) * 0.1)
        report_path = tmp_path / "report.json"
        code = main(["eval", "--gt", str(stereo), "--pred", str(stereo),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["stft"] == 0.0
        assert report["mag"] == 0.0
        assert report["snr_db"] == 120.0
        assert report["d_phase"] == 0.0
        assert report["windows"] >= 1

    def test_channel_swap_on_hard_panned_material(self, tmp_path):
        rng = np.random.default_rng(62)
        left = rng.normal(size=SR)
        gt, swapped = tmp_path / "gt.wav", tmp_path / "swap.wav"
        wavio.write_wav(gt, SR, np.stack([left, np.zeros(SR)], axis=1))
        wavio.write_wav(swapped, SR, np.stack([np.zeros(SR), left], axis=1))
        report_path = tmp_path / "r.json"
        assert main(["eval", "--gt", str(gt), "--pred", str(swapped),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["d_phase"] == pytest.approx(np.pi, abs=1e-6)

    def test_length_mismatch_fails(self, tmp_path, capsys):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        wavio.write_wav(a, SR, np.ones((SR, 2)))
        wavio.write_wav(b, SR, np.ones((SR + 10, 2)))
        assert main(["eval", "--gt", str(a), "--pred", str(b)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCompareDecoders:
    def test_writes_three_wavs_and_distances(self, tmp_path, tone):
        out = tmp_path / "cmp"
        code = main(["compare-decoders", "--in", str(tone), "--out-dir", str(out),
                     "--azimuth-deg", "60"])
        assert code == 0
        for name in ("wy.wav", "hrir.wav", "ambisonic-hrir.wav"):
            assert (out / name).is_file()
        distances = json.loads((out / "decoder_distances.json").read_text())
        assert set(distances) == {
            "wy_vs_hrir", "wy_vs_ambisonic-hrir", "hrir_vs_ambisonic-hrir",
        }
        assert all(v is not None for v in distances.values())

    def test_hard_left_louder_left_in_all_decoders(self, tmp_path, tone):
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(tone), "--out-dir", str(out),
                     "--azimuth-deg", "60"]) == 0
        for name in ("wy.wav", "hrir.wav", "ambisonic-hrir.wav"):
            _, data = wavio.read_wav(out / name)
            assert np.sqrt(np.mean(data[:, 0] ** 2)) >= np.sqrt(np.mean(data[:, 1] ** 2))

    def test_silence_renders_silent_files(self, tmp_path):
        silent = tmp_path / "silent.wav"
        wavio.write_wav(silent, SR, np.zeros(SR))
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(silent), "--out-dir", str(out),
                     "--azimuth-deg", "0"]) == 0
        for name in ("wy.wav", "hrir.wav", "ambisonic-hrir.wav"):
            _, data = wavio.read_wav(out / name)
            np.testing.assert_array_equal(data, 0.0)


class TestDataset:
    def make_pool(self, root, n=4):
        pool = []
        rng = np.random.default_rng(71)
        for i in range(n):
            name = f"clip{i}.wav"
            wavio.write_wav(root / name, SR, rng.normal(size=SR // 4) * 0.3)
            pool.append(name)
        return pool

    def write_config(self, root, pool, name="config.json", **overrides):
        config = {
            "master_seed": 7,
            "count": 10,
            "pool": pool,
            "output_dir": "out",
            "duration_s": 0.05,
        }
        config.update(overrides)
        path = root / name
        path.write_text(json.dumps(config))
        return path

    def test_writes_manifest_with_count_entries(self, tmp_path, capsys):
        pool = self.make_pool(tmp_path)
        config = self.write_config(tmp_path, pool)
        assert main(["dataset", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest) == 10
        assert "sources per scene" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        pool = self.make_pool(tmp_path)
        config_a = self.write_config(tmp_path, pool, name="ca.json", output_dir="a")
        config_b = self.write_config(tmp_path, pool, name="cb.json", output_dir="b")
        assert main(["dataset", "--config", str(config_a)]) == 0
        assert main(["dataset", "--config", str(config_b)]) == 0
        hashes_a = sorted(
            (p.name, file_hash(p)) for p in (tmp_path / "a").iterdir()
        )
        hashes_b = sorted(
            (p.name, file_hash(p)) for p in (tmp_path / "b").iterdir()
        )
        assert hashes_a == hashes_b

    def test_degenerate_ratios_make_single_source_scenes(self, tmp_path):
        pool = self.make_pool(tmp_path)
        config = self.write_config(tmp_path, pool, ratios=[1.0, 0.0, 0.0])
        assert main(["dataset", "--config", str(config)]) == 0
        for item in json.loads((tmp_path / "out" / "manifest.json").read_text()):
            meta = json.loads((tmp_path / "out" / item["scene_json"]).read_text())
            assert len(meta["sources"]) == 1

    def test_fov_is_used_and_recorded(self, tmp_path):
        pool = self.make_pool(tmp_path)
        fov = {"theta_v0": 0.5, "aspect_hw": 0.75, "vert_extent": 0.25}
        config = self.write_config(tmp_path, pool, fov=fov)
        assert main(["dataset", "--config", str(config)]) == 0
        for item in json.loads((tmp_path / "out" / "manifest.json").read_text()):
            meta = json.loads((tmp_path / "out" / item["scene_json"]).read_text())
            assert meta["fov"] == fov
            for src in meta["sources"]:
                assert abs(src["azimuth_rad"]) <= fov["theta_v0"] + 1e-12

    def test_unknown_key_fails_before_work(self, tmp_path, capsys):
        pool = self.make_pool(tmp_path)
        config = self.write_config(tmp_path, pool, ratio=[1.0, 0.0, 0.0], fvo={})
        assert main(["dataset", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "fvo, ratio" in err
        assert not (tmp_path / "out").exists()

    def test_misspelled_fov_key_fails(self, tmp_path, capsys):
        pool = self.make_pool(tmp_path)
        fov = {"theta_v0": 0.5, "aspect_hw": 0.75, "vert_extent": 0.25, "vert_extnt": 1.0}
        config = self.write_config(tmp_path, pool, fov=fov)
        assert main(["dataset", "--config", str(config)]) == 1
        assert "fov in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_clip_pool_fails_before_work(self, tmp_path, capsys):
        pool = self.make_pool(tmp_path, n=1)
        config = self.write_config(tmp_path, pool)
        assert main(["dataset", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "clip pool must hold at least 3 clips, got 1" in err
        assert not (tmp_path / "out").exists()

    def test_missing_pool_clip_fails_before_work(self, tmp_path, capsys):
        config = self.write_config(tmp_path, ["ghost.wav"])
        assert main(["dataset", "--config", str(config)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_import_leaves_out_scipy_signal_and_numba():
    # a fresh interpreter, so modules other tests loaded do not count
    src = str(Path(binauralkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, binauralkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numba' "
        "or m == 'scipy.signal' or m.startswith('scipy.signal.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
