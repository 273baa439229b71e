import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import binauralkit
from binauralkit import metrics, wavio
from binauralkit.binaural import default_speaker_array
from binauralkit.cli import main
from binauralkit.hrir import load_pack, save_pack, synth_pack
from binauralkit.scenegen import DatasetConfig, load_dataset_config

README = Path(__file__).resolve().parents[1] / "README.md"

SR = 16000
# (sample rate, n_fft, win, hop) of the metrics' STFT at rates other than 16 kHz
GEOMETRIES = [
    (8000, 256, 200, 80),
    (22050, 1024, 551, 221),
    (44100, 2048, 1103, 441),
    (48000, 2048, 1200, 480),
]


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

    def test_no_zenith_flag(self, tmp_path, tone, capsys):
        code = main([
            "render", "--in", str(tone), "--out", str(tmp_path / "out.wav"),
            "--decoder", "wy", "--azimuth-deg", "0", "--zenith-deg", "90",
        ])
        assert code == 2
        assert "--zenith-deg" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", [["--elevation-deg", "30"], ["--azimuth-deg", "30"]],
                             ids=["elevation", "azimuth"])
    def test_pixel_with_an_angle_flag_fails(self, tmp_path, tone, capsys, angle):
        out = tmp_path / "out.wav"
        code = main(["render", "--in", str(tone), "--out", str(out),
                     "--decoder", "wy", "--pixel", "0", "0", *angle])
        assert code == 1
        assert "give either --pixel or angle flags, not both" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("decoder", ["hrir", "ambisonic-hrir"])
    def test_low_rate_without_pack_fails(self, tmp_path, capsys, decoder):
        # the synthetic pack leaves its far-ear low-pass out at 12 kHz and below
        tone = write_tone(tmp_path / "tone8k.wav", sr=8000)
        out = tmp_path / "x.wav"
        code = main(["render", "--in", str(tone), "--out", str(out),
                     "--decoder", decoder, "--azimuth-deg", "30"])
        assert code == 0
        rate, data = wavio.read_wav(out, channels=2)
        assert rate == 8000 and np.abs(data[:, 0]).max() > np.abs(data[:, 1]).max()

    @pytest.mark.parametrize("decoder", ["hrir", "ambisonic-hrir"])
    def test_minute_at_48_khz_renders_in_full(self, tmp_path, decoder):
        tone = write_tone(tmp_path / "tone60.wav", seconds=60, sr=48000)
        out = tmp_path / "out.wav"
        assert main(["render", "--in", str(tone), "--out", str(out),
                     "--decoder", decoder, "--azimuth-deg", "30"]) == 0
        rate, data = wavio.read_wav(out, channels=2)
        assert rate == 48000 and data.shape == (60 * 48000, 2)
        assert np.isfinite(data).all()


class TestHrirSynth:
    def test_writes_valid_pack(self, tmp_path, capsys):
        out = tmp_path / "pack"
        code = main(["hrir-synth", "--out-dir", str(out), "--n-azimuths", "8"])
        assert code == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["entries"]) == 8
        assert len(load_pack(out).entries) == 8

    def test_invalid_head_radius_fails(self, tmp_path, capsys):
        code = main(["hrir-synth", "--out-dir", str(tmp_path / "p"),
                     "--head-radius", "-1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--head-radius", "nan", "head_radius must be positive and finite, got nan"),
        ("--head-radius", "inf", "head_radius must be positive and finite, got inf"),
        ("--head-radius", "1e9", "head_radius 1000000000.0 m at sample_rate 16000 Hz needs "
         "filters longer than the 4096-tap maximum"),
        ("--ild-db", "inf", "ild_db must be 0 to 120, got inf"),
        ("--ild-db", "nan", "ild_db must be 0 to 120, got nan"),
        ("--ild-db", "1e300", "ild_db must be 0 to 120, got 1e+300"),
        ("--n-azimuths", "361", "n_azimuths must be 2 to 360, got 361"),  # one past the maximum
    ], ids=["head_radius-nan", "head_radius-inf", "head_radius-1e9", "ild_db-inf", "ild_db-nan",
            "ild_db-1e300", "n_azimuths-361"])
    def test_out_of_range_flag_is_named_before_work(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "pack"
        assert main(["hrir-synth", "--out-dir", str(out), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_low_rate_pack_the_render_error_asks_for(self, tmp_path, capsys):
        tone = write_tone(tmp_path / "tone8k.wav", sr=8000)
        out = tmp_path / "x.wav"
        render = ["render", "--in", str(tone), "--out", str(out), "--azimuth-deg", "30"]
        pack_dir = tmp_path / "pack8k"
        assert main(["hrir-synth", "--out-dir", str(pack_dir), "--sample-rate", "8000"]) == 0
        pack = load_pack(pack_dir)
        assert pack.sample_rate == 8000
        for entry in pack.entries:  # no low-pass tail: one tap per ear
            assert np.count_nonzero(entry.left_fir) == np.count_nonzero(entry.right_fir) == 1
        assert main(render + ["--hrir-pack", str(pack_dir)]) == 0
        rate, data = wavio.read_wav(out, channels=2)
        assert rate == 8000 and data.shape == (8000, 2)
        assert np.abs(data[:, 0]).max() > np.abs(data[:, 1]).max()  # +30 deg is on the left

    def test_low_rate_pack_is_the_synthetic_pack(self, tmp_path):
        assert main(["hrir-synth", "--out-dir", str(tmp_path), "--sample-rate", "8000"]) == 0
        saved, ref = load_pack(tmp_path), synth_pack(sample_rate=8000)
        assert len(saved.entries) == len(ref.entries)
        for a, b in zip(saved.entries, ref.entries):  # save_pack stores float32
            assert a.direction.azimuth == pytest.approx(b.direction.azimuth, abs=1e-12)
            np.testing.assert_array_equal(a.left_fir, b.left_fir.astype(np.float32))
            np.testing.assert_array_equal(a.right_fir, b.right_fir.astype(np.float32))
            assert np.count_nonzero(b.left_fir) == np.count_nonzero(b.right_fir) == 1


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

    def test_report_records_the_window_flags(self, tmp_path):
        stereo = tmp_path / "gt.wav"
        wavio.write_wav(stereo, SR, np.random.default_rng(64).normal(size=(SR, 2)) * 0.1)
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gt", str(stereo), "--pred", str(stereo), "--report",
                     str(report_path), "--window-s", "0.5", "--hop-s", "0.25"]) == 0
        report = json.loads(report_path.read_text())
        assert report["windows"] == 3
        assert report["config"]["window_s"] == 0.5 and report["config"]["hop_s"] == 0.25

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

    @pytest.mark.parametrize("pred_rate, pred_n, needle", [
        (8000, SR, "sample rates differ: 16000 vs 8000"),
        (SR, SR + 10, "signal lengths differ: 16000 vs 16010"),
    ])
    def test_mismatched_pair_names_both_files(self, tmp_path, capsys, pred_rate, pred_n, needle):
        gt, pred = tmp_path / "gt.wav", tmp_path / "pred.wav"
        wavio.write_wav(gt, SR, np.ones((SR, 2)))
        wavio.write_wav(pred, pred_rate, np.ones((pred_n, 2)))
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == f"error: {gt} vs {pred}: {needle}\n"

    @pytest.mark.parametrize("sr, n_fft, win, hop", GEOMETRIES)
    def test_scores_at_any_rate(self, tmp_path, sr, n_fft, win, hop):
        rng = np.random.default_rng(sr)
        gt, pred = tmp_path / "gt.wav", tmp_path / "pred.wav"
        wavio.write_wav(gt, sr, rng.normal(size=(sr, 2)) * 0.1)
        wavio.write_wav(pred, sr, rng.normal(size=(sr, 2)) * 0.1)
        report_path = tmp_path / "r.json"
        assert main(["eval", "--gt", str(gt), "--pred", str(pred),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["windows"] == 4  # 0.63 s windows at a 0.1 s hop over 1 s
        assert report["config"]["stft"] == {"n_fft": n_fft, "win": win, "hop": hop}
        assert report["stft"] > 0.0 and 0.0 < report["d_phase"] < np.pi

    @pytest.mark.parametrize("sr, seconds, flags", [
        (22050, 2, ["--hop-s", "0.0371"]),
        (44100, 1, []),
        (SR, 1, ["--window-s", "0.03", "--hop-s", "0.01"]),
    ])
    def test_report_counts_and_scores_every_window(self, tmp_path, sr, seconds, flags):
        rng = np.random.default_rng(sr)
        gt, pred = (rng.normal(size=(seconds * sr, 2)) * 0.1 for _ in range(2))
        wavio.write_wav(tmp_path / "gt.wav", sr, gt)
        wavio.write_wav(tmp_path / "pred.wav", sr, pred)
        report_path = tmp_path / "r.json"
        assert main(["eval", "--gt", str(tmp_path / "gt.wav"), "--pred", str(tmp_path / "pred.wav"),
                     "--report", str(report_path), *flags]) == 0
        report = json.loads(report_path.read_text())
        win = round(report["config"]["window_s"] * sr)
        hop = round(report["config"]["hop_s"] * sr)
        assert report["windows"] == (seconds * sr - win) // hop + 1
        assert all(np.isfinite(report[k]) for k in ("stft", "env", "mag", "snr_db", "d_phase"))
        _, gt = wavio.read_wav(tmp_path / "gt.wav", channels=2)
        _, pred = wavio.read_wav(tmp_path / "pred.wav", channels=2)

        def env_term(s):  # L2 distance of the Hilbert envelopes, summed over the ears
            g, p = (np.abs(metrics.hilbert(x[s:s + win].T)) for x in (gt, pred))
            return np.sqrt(np.sum((g - p) ** 2, axis=-1)).sum()

        env = np.mean([env_term(s) for s in range(0, len(gt) - win + 1, hop)])
        assert abs(env - report["env"]) <= 1e-12 * report["env"]

    def test_mono_input_names_the_file(self, tmp_path, capsys):
        mono, stereo = tmp_path / "mono.wav", tmp_path / "st.wav"
        wavio.write_wav(mono, SR, np.zeros(SR))
        wavio.write_wav(stereo, SR, np.zeros((SR, 2)))
        assert main(["eval", "--gt", str(mono), "--pred", str(stereo)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{mono} is not a stereo WAV: it has 1 channel(s)" in err

    def test_negative_hop_fails(self, tmp_path, capsys):
        stereo = tmp_path / "gt.wav"
        wavio.write_wav(stereo, SR, np.random.default_rng(63).normal(size=(SR, 2)) * 0.1)
        assert main(["eval", "--gt", str(stereo), "--pred", str(stereo),
                     "--hop-s", "-0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "hop_s must be positive and span at least one sample, got -0.1" in err

    @pytest.mark.parametrize("flag, name", [("--window-s", "window_s"), ("--hop-s", "hop_s")])
    def test_oversized_window_parameter_is_named(self, tmp_path, capsys, flag, name):
        stereo = tmp_path / "gt.wav"
        wavio.write_wav(stereo, SR, np.random.default_rng(64).normal(size=(SR, 2)) * 0.1)
        assert main(["eval", "--gt", str(stereo), "--pred", str(stereo), flag, "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stereo} vs {stereo}: ")
        assert err.endswith(f": {name} must be positive and count fewer than 2**63 samples "
                            f"at {SR} Hz, got 1e+308\n")


    def test_window_shorter_than_the_stft_window_is_named(self, tmp_path, capsys):
        stereo = tmp_path / "gt.wav"
        wavio.write_wav(stereo, SR, np.random.default_rng(65).normal(size=(SR, 2)) * 0.1)
        assert main(["eval", "--gt", str(stereo), "--pred", str(stereo),
                     "--window-s", "0.005"]) == 1
        assert capsys.readouterr().err == (
            f"error: {stereo} vs {stereo}: window_s 0.005 spans 80 samples, fewer than "
            f"the 400-sample STFT window at {SR} Hz\n")


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

    def test_distances_record_the_window_they_used(self, tmp_path, tone):
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(tone), "--out-dir", str(out),
                     "--azimuth-deg", "30"]) == 0
        distances = json.loads((out / "decoder_distances.json").read_text())
        for d in distances.values():
            assert d["windows"] == 4  # 0.63 s windows at a 0.1 s hop over 1 s
            assert d["config"] == {
                "window_s": 0.63, "hop_s": 0.1, "stft": {"n_fft": 512, "win": 400, "hop": 160}
            }

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


    def test_silent_reference_gives_null_distances(self, tmp_path):
        silent = tmp_path / "silent.wav"
        wavio.write_wav(silent, SR, np.zeros(SR))
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(silent), "--out-dir", str(out),
                     "--azimuth-deg", "0"]) == 0
        distances = json.loads((out / "decoder_distances.json").read_text())
        assert distances == dict.fromkeys(
            ["wy_vs_hrir", "wy_vs_ambisonic-hrir", "hrir_vs_ambisonic-hrir"])

    def test_reference_silent_in_every_window_gives_null(self, tmp_path):
        # the clip sounds only after the last 0.63 s window's end, sample
        # 4800 + 10080; evaluate, not the CLI, decides which pair it can score
        clip = np.zeros(SR)
        clip[15000:] = 0.5 * np.sin(np.arange(SR - 15000) * 2 * np.pi * 440 / SR)
        tail = tmp_path / "tail.wav"
        wavio.write_wav(tail, SR, clip)
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(tail), "--out-dir", str(out),
                     "--azimuth-deg", "30"]) == 0
        distances = json.loads((out / "decoder_distances.json").read_text())
        assert distances["wy_vs_hrir"] is None and distances["wy_vs_ambisonic-hrir"] is None
        for pair, score in distances.items():
            _, ref = wavio.read_wav(out / f"{pair.split('_vs_')[0]}.wav")
            assert (score is None) == (not ref[:14880].any()), pair

    @pytest.mark.parametrize("sr, n_fft, win, hop", GEOMETRIES)
    def test_scores_at_any_rate(self, tmp_path, sr, n_fft, win, hop):
        # the input renders with a pack at its rate, and the distances use
        # the STFT geometry of that rate
        tone = write_tone(tmp_path / "tone.wav", sr=sr)
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(tone), "--out-dir", str(out),
                     "--azimuth-deg", "30"]) == 0
        distances = json.loads((out / "decoder_distances.json").read_text())
        assert len(distances) == 3
        for d in distances.values():
            assert d["windows"] == 4
            assert d["config"]["stft"] == {"n_fft": n_fft, "win": win, "hop": hop}
        for name in ("wy.wav", "hrir.wav", "ambisonic-hrir.wav"):
            assert wavio.read_wav(out / name)[0] == sr

    @pytest.mark.parametrize("sr, seconds, needle", [
        (SR, 0.25, "shorter than the 0.63 s window"),
    ])
    def test_failing_score_leaves_no_output(self, tmp_path, capsys, sr, seconds, needle):
        tone = write_tone(tmp_path / "tone.wav", seconds=seconds, sr=sr)
        out = tmp_path / "cmp"
        assert main(["compare-decoders", "--in", str(tone), "--out-dir", str(out),
                     "--azimuth-deg", "30"]) == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()


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

    def test_saved_pack_reruns_identically_and_with_fewer_scenes(self, tmp_path):
        assert main(["hrir-synth", "--out-dir", str(tmp_path / "pack")]) == 0
        pool = self.make_pool(tmp_path, n=3)
        for name in ("out", "again"):
            config = self.write_config(tmp_path, pool, count=6, pack="pack", output_dir=name)
            assert main(["dataset", "--config", str(config)]) == 0

        def hashes(name):
            return sorted((p.name, file_hash(p)) for p in (tmp_path / name).iterdir())

        assert hashes("out") == hashes("again")
        config = self.write_config(tmp_path, pool, count=2, pack="pack")
        assert main(["dataset", "--config", str(config)]) == 0
        assert len(list((tmp_path / "out").glob("scene_*.json"))) == 2
        assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())) == 2

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

    @pytest.mark.parametrize("duration_s", [0, -0.5, 1e-5])  # 1e-5 s is 0.16 samples
    def test_empty_duration_fails_before_work(self, tmp_path, capsys, duration_s):
        pool = self.make_pool(tmp_path)
        config = self.write_config(tmp_path, pool, duration_s=duration_s)
        assert main(["dataset", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "duration_s must be positive" in err
        assert f"span at least one sample, got {float(duration_s)}" in err
        assert not (tmp_path / "out").exists()

    def test_oversized_duration_fails_before_work(self, tmp_path, capsys):
        # 1.6e14 samples at 16 kHz: a scene's float32 stereo WAV would pass 4 GiB
        pool = self.make_pool(tmp_path)
        config = self.write_config(tmp_path, pool, duration_s=1e10)
        assert main(["dataset", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: duration_s must fit")
        assert not (tmp_path / "out").exists()

    def test_missing_pool_clip_fails_before_work(self, tmp_path, capsys):
        config = self.write_config(tmp_path, ["ghost.wav"])
        assert main(["dataset", "--config", str(config)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate, data, needle", [
        (8000, np.full(SR // 4, 0.1), "sample rate 8000, but the config's sample_rate is 16000"),
        (SR, np.full((SR // 4, 2), 0.1), "is not a mono WAV: it has 2 channel(s)"),
        (SR, np.array([0.1, np.nan, 0.1]), "contains non-finite samples"),
    ])
    def test_bad_pool_clip_fails_before_work(self, tmp_path, capsys, rate, data, needle):
        pool = self.make_pool(tmp_path)
        wavfile = pytest.importorskip("scipy.io.wavfile")
        wavfile.write(tmp_path / "odd.wav", rate, data.astype(np.float32))  # wavio refuses the NaN
        self.write_config(tmp_path, pool + ["odd.wav"])
        self.assert_fails_before_work(tmp_path, capsys, "pool clip 'odd.wav' in", needle)

    def test_pool_clip_silent_over_the_scene_fails_before_work(self, tmp_path, capsys):
        # 0.05 s scenes read 800 samples; this clip is loud only after its first 800
        pool = self.make_pool(tmp_path)
        wavio.write_wav(tmp_path / "late.wav", SR, np.r_[np.zeros(800), np.full(400, 0.1)])
        self.write_config(tmp_path, pool + ["late.wav"])
        self.assert_fails_before_work(tmp_path, capsys, "pool clip 'late.wav' in",
                                      "all zero in its first 800 samples, the scene length")
        self.write_config(tmp_path, pool + ["late.wav"], duration_s=0.0501)  # 802 samples
        load_dataset_config(tmp_path / "config.json")

    def assert_fails_before_work(self, tmp_path, capsys, *needles):
        config = tmp_path / "config.json"
        assert main(["dataset", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for needle in (str(config), *needles):
            assert needle in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["master_seed", "count", "pool", "output_dir"])
    def test_missing_required_key_is_named(self, tmp_path, capsys, key):
        config = self.write_config(tmp_path, self.make_pool(tmp_path))
        raw = json.loads(config.read_text())
        del raw[key]
        config.write_text(json.dumps(raw))
        self.assert_fails_before_work(tmp_path, capsys, f"missing required key '{key}'")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("pool", "clip0.wav"),  # a string, not a list of refs
            ("ratios", 5),
            ("gain_range", [1.0]),
            ("count", 2.5),
            ("count", True),
            ("master_seed", -1),
            ("master_seed", None),
            ("duration_s", "0.05"),
            ("array", [[0, 0], [45]]),
            ("array", 5),
            ("pack", 5),
            ("fov", [0.5, 0.5, 0.5]),
            # a well-conditioned array but for one entry's type
            ("array", [[True, 20], [90, 0], [180, 0], [270, 0], [0, 60]]),
            ("array", [["10", 20], [90, 0], [180, 0], [270, 0], [0, 60]]),
        ],
    )
    def test_bad_value_is_named(self, tmp_path, capsys, key, value):
        overrides = {key: value}
        pool = overrides.pop("pool", self.make_pool(tmp_path))
        self.write_config(tmp_path, pool, **overrides)
        self.assert_fails_before_work(tmp_path, capsys, key)

    @pytest.mark.parametrize(
        "key, value, needle",
        [
            ("array", [[10, 20, 3], [90, 0], [180, 0], [270, 0], [0, 60]],
             "expected 2 values, got 3"),
            ("ratios", [0.5, 0.5], "expected 3 values, got 2"),
            ("gain_range", [1.0], "expected 2 values, got 1"),
        ],
    )
    def test_fixed_length_list_of_wrong_length_is_named(self, tmp_path, capsys, key, value, needle):
        self.write_config(tmp_path, self.make_pool(tmp_path), **{key: value})
        self.assert_fails_before_work(tmp_path, capsys, f"{key} in", needle)

    @pytest.mark.parametrize("text", ["[1, 2]", "7", "{not json"])
    def test_config_that_is_not_an_object_fails(self, tmp_path, capsys, text):
        (tmp_path / "config.json").write_text(text)
        self.assert_fails_before_work(tmp_path, capsys)

    def test_low_rate_without_pack_fails_before_work(self, tmp_path, capsys):
        # the synthetic pack leaves its far-ear low-pass out at 12 kHz and below
        pool = [f"c{i}.wav" for i in range(3)]
        for i, ref in enumerate(pool):
            write_tone(tmp_path / ref, 0.1, 300.0 * (i + 1), sr=8000)
        config = self.write_config(tmp_path, pool, sample_rate=8000, count=3)
        assert main(["dataset", "--config", str(config)]) == 0
        assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())) == 3
        assert wavio.read_wav(tmp_path / "out" / "scene_00000_binaural.wav")[0] == 8000

    def test_pack_at_another_rate_fails_before_work(self, tmp_path, capsys):
        save_pack(synth_pack(n_azimuths=4, sample_rate=44100), tmp_path / "pack44")
        self.write_config(tmp_path, self.make_pool(tmp_path), pack="pack44")
        self.assert_fails_before_work(
            tmp_path, capsys, "pack in", str(tmp_path / "pack44"), "44100 Hz", "16000 Hz"
        )

    def test_null_optional_keys_take_the_defaults(self, tmp_path):
        pool = self.make_pool(tmp_path)
        nulls = dict.fromkeys(
            ["ratios", "pack", "array", "sample_rate", "duration_s", "gain_range", "fov"]
        )
        config, _, pack, arr = load_dataset_config(self.write_config(tmp_path, pool, **nulls))
        assert config == DatasetConfig(7, 10, tuple(pool), str(tmp_path / "out"))
        assert pack.name == "synthetic" and pack.sample_rate == SR
        assert arr.directions == default_speaker_array().directions

    def test_readme_example_loads_with_the_defaults(self, tmp_path):
        # the JSON block under "Dataset config" in the README
        text = README.read_text().split("### Dataset config", 1)[1]
        example = json.loads(text.split("```json", 1)[1].split("```", 1)[0])
        assert set(example) == {
            "master_seed", "count", "pool", "output_dir", "ratios", "pack", "array",
            "sample_rate", "duration_s", "gain_range", "fov",
        }
        for ref in example["pool"]:
            (tmp_path / ref).parent.mkdir(exist_ok=True)
            wavio.write_wav(tmp_path / ref, SR, np.ones(10))
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(example))
        config, store, pack, arr = load_dataset_config(path)
        # every value the README shows is DatasetConfig's default
        assert config == DatasetConfig(
            master_seed=7, count=100, pool=tuple(example["pool"]),
            output_dir=str(tmp_path / "out"),
        )
        assert store[example["pool"][0]].n_samples == 10  # refs resolve beside the config
        assert pack.name == "synthetic"
        assert arr.directions == default_speaker_array().directions


def test_readme_library_example_runs(capsys):
    # the Python block under "Library" in the README
    text = README.read_text().split("## Library", 1)[1]
    namespace = {}
    exec(text.split("```python", 1)[1].split("```", 1)[0], namespace)
    report = namespace["report"]
    assert report.windows == 4  # 0.63 s windows at a 0.1 s hop over 1 s
    assert json.loads(capsys.readouterr().out) == report.to_dict()


PACKAGE = Path(binauralkit.__file__).resolve().parent
SUBMODULES = sorted(f"binauralkit.{p.stem}" for p in PACKAGE.glob("*.py")
                    if p.stem not in ("__init__", "cli"))


@pytest.mark.parametrize("argv, unused", [
    (None, ["numpy", *SUBMODULES]),
    (["render", "--in", "tone.wav", "--out", "out.wav", "--azimuth-deg", "30"],
     ["binauralkit.metrics", "binauralkit.spectral", "binauralkit.scenegen",
      "binauralkit._kernels"]),
    (["eval", "--gt", "gt.wav", "--pred", "pred.wav"],
     ["binauralkit.scenegen", "binauralkit.visualmap"]),
], ids=["import", "render", "eval"])
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    # a fresh interpreter, so modules other tests loaded do not count
    write_tone(tmp_path / "tone.wav")
    rng = np.random.default_rng(65)
    for name in ("gt.wav", "pred.wav"):
        wavio.write_wav(tmp_path / name, SR, rng.normal(size=(SR, 2)) * 0.1)
    probe = (
        "import json, sys; from binauralkit import cli; "
        "argv = json.loads(sys.argv[1]); code = 0 if argv is None else cli.main(argv); "
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0
    # numpy is the one runtime dependency, and evaluate's np.unique takes no numpy.ma
    heavy = [m for m in modules
             if m.split(".")[0] in ("scipy", "numba") or m.split(".")[:2] == ["numpy", "ma"]]
    assert heavy == []
    assert sorted(set(unused) & set(modules)) == []
