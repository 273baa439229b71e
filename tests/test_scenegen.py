import hashlib
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from binauralkit import wavio
from binauralkit.ambisonic import MonoSignal
from binauralkit.binaural import default_speaker_array
from binauralkit.hrir import synth_pack
from binauralkit.scenegen import (
    DatasetConfig,
    SceneSource,
    SceneSpec,
    WavStore,
    gen_dataset,
    make_separation_pair,
    normalize_amplitude,
    sample_scene,
    scene_seed,
    synth_pseudo_pair,
)
from binauralkit.spherical import Direction
from binauralkit.visualmap import DEFAULT_FOV, direction_to_pixel

SR = 16000
DRAWS = Path(__file__).with_name("scene_draws.json")


@pytest.fixture(scope="module")
def pack():
    return synth_pack(n_azimuths=24)


@pytest.fixture(scope="module")
def arr():
    return default_speaker_array()


@pytest.fixture
def store():
    rng = np.random.default_rng(41)
    return {
        f"clip{i}": MonoSignal(rng.normal(size=SR // 2), SR) for i in range(5)
    }


def scene(sources, duration_s=0.25, seed=0):
    return SceneSpec(sources=tuple(sources), seed=seed, sample_rate=SR, duration_s=duration_s)


class TestNormalize:
    def test_example_values(self):
        out = normalize_amplitude(MonoSignal(np.array([0.5, -0.25]), SR))
        np.testing.assert_array_equal(out.samples, [1.0, -0.5])

    def test_idempotent_on_unit_peak(self):
        x = MonoSignal(np.array([0.3, -1.0, 0.7]), SR)
        once = normalize_amplitude(x)
        twice = normalize_amplitude(once)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_random_signal_peaks_at_one(self):
        rng = np.random.default_rng(42)
        out = normalize_amplitude(MonoSignal(rng.normal(size=1000), SR))
        assert np.max(np.abs(out.samples)) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize_amplitude(MonoSignal(np.zeros(10), SR))


class TestSceneTypes:
    def test_source_count_bounds(self):
        src = SceneSource("clip0", (0.0, 0.0))
        with pytest.raises(ValueError):
            SceneSpec(sources=())
        with pytest.raises(ValueError):
            SceneSpec(sources=(src,) * 4)

    @pytest.mark.parametrize("rate", [True, 16000.5, 0])
    def test_rate_must_be_a_positive_whole_number(self, rate):
        src = SceneSource("clip0", (0.0, 0.0))
        with pytest.raises(ValueError, match="sample_rate must be positive and whole"):
            SceneSpec(sources=(src,), sample_rate=rate)

    @pytest.mark.parametrize("duration_s", [1e308, 1e16])  # inf samples; 1.6e20 samples
    def test_oversized_duration_is_named(self, duration_s):
        src = SceneSource("clip0", (0.0, 0.0))
        with pytest.raises(ValueError) as info:
            SceneSpec(sources=(src,), sample_rate=SR, duration_s=duration_s)
        assert str(info.value) == (f"duration_s must be positive and count fewer than 2**63 "
                                   f"samples at {SR} Hz, got {duration_s}")

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, np.float64(7.0)])
    def test_seed_must_be_an_integer(self, seed):
        # sample_scene would truncate a float seed, and True would draw as 1
        src = SceneSource("clip0", (0.0, 0.0))
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            SceneSpec(sources=(src,), seed=seed)
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            sample_scene(seed, ["a", "b", "c"])

    def test_numpy_integer_seed_is_stored_as_an_int(self):
        spec = SceneSpec(sources=(SceneSource("clip0", (0.0, 0.0)),), seed=np.uint64(2**63 + 5))
        assert type(spec.seed) is int and spec.seed == 2**63 + 5
        pool = ["a", "b", "c"]
        assert sample_scene(np.uint64(9), pool) == sample_scene(9, pool)

    def test_placement_is_a_pixel_pair(self):
        with pytest.raises(TypeError):
            SceneSource("c", Direction(0.0, 0.0))

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            SceneSource("clip0", (0.0, 0.0), gain=-0.1)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_is_named(self, gain):
        with pytest.raises(ValueError, match=r"^gain must be finite and non-negative, got"):
            SceneSource("clip0", (0.0, 0.0), gain=gain)

    def test_patch_scale_is_the_gain(self, store, pack, arr):
        pair = synth_pseudo_pair(scene([SceneSource("clip0", (0.2, 0.0), gain=0.7)]),
                                 store, pack, arr)
        meta = pair.metadata["sources"][0]
        assert meta["patch_scale"] == meta["gain"] == 0.7
        assert meta["patch_box"] == pytest.approx([0.2 - 0.175, -0.175, 0.2 + 0.175, 0.175])


class TestSynthPseudoPair:
    def test_single_source_center(self, store, pack, arr):
        from binauralkit.ambisonic import encode
        from binauralkit.binaural import render_ambisonic_hrir

        spec = scene([SceneSource("clip0", (0.0, 0.0))])
        pair = synth_pseudo_pair(spec, store, pack, arr)
        meta = pair.metadata["sources"][0]
        assert meta["azimuth_rad"] == 0.0
        assert meta["elevation_rad"] == 0.0
        n = int(round(spec.duration_s * SR))
        expected_mono = normalize_amplitude(
            MonoSignal(store["clip0"].samples[:n], SR)
        )
        reference = render_ambisonic_hrir(
            encode(expected_mono, Direction(0.0, 0.0)), arr, pack
        )
        np.testing.assert_allclose(pair.binaural.left, reference.left, atol=1e-12)
        np.testing.assert_array_equal(pair.mono_mix.samples, expected_mono.samples)

    @pytest.mark.parametrize("gain, part", [(1e307, "left"), (1.7e308, "samples")])
    def test_overflowing_gains_are_named_without_warnings(self, store, pack, arr, gain, part):
        # 1e307 overflows inside the render's FFTs, 1.7e308 already in the mono mix
        spec = scene([SceneSource(f"clip{i}", (0.5 * i - 0.5, 0.1), gain) for i in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"source gains {[gain] * 3} overflow the scene: "
                    f"{part} channel contains non-finite samples")):
                synth_pseudo_pair(spec, store, pack, arr)

    def test_zero_gain_source_disappears(self, store, pack, arr):
        base = scene([SceneSource("clip0", (0.2, -0.1), gain=0.8)])
        padded = scene(
            [
                SceneSource("clip0", (0.2, -0.1), gain=0.8),
                SceneSource("clip1", (-0.5, 0.4), gain=0.0),
            ]
        )
        a = synth_pseudo_pair(base, store, pack, arr)
        b = synth_pseudo_pair(padded, store, pack, arr)
        np.testing.assert_allclose(a.binaural.left, b.binaural.left, atol=1e-15)
        np.testing.assert_allclose(a.binaural.right, b.binaural.right, atol=1e-15)

    def test_two_source_scene_is_sum_of_singles(self, store, pack, arr):
        s1 = SceneSource("clip0", (0.3, 0.5), gain=0.9)
        s2 = SceneSource("clip2", (-0.7, -0.2), gain=0.6)
        both = synth_pseudo_pair(scene([s1, s2]), store, pack, arr)
        one = synth_pseudo_pair(scene([s1]), store, pack, arr)
        two = synth_pseudo_pair(scene([s2]), store, pack, arr)
        combined = one.binaural.left + two.binaural.left
        scale = np.abs(combined).max()
        np.testing.assert_allclose(both.binaural.left, combined, atol=1e-6 * scale)
        np.testing.assert_array_equal(
            both.mono_mix.samples, one.mono_mix.samples + two.mono_mix.samples
        )

    def test_mono_mix_is_gain_weighted_sum(self, store, pack, arr):
        s1 = SceneSource("clip0", (0.0, 0.0), gain=0.5)
        s2 = SceneSource("clip1", (0.5, 0.5), gain=1.0)
        pair = synth_pseudo_pair(scene([s1, s2]), store, pack, arr)
        n = pair.mono_mix.n_samples
        expected = 0.5 * normalize_amplitude(
            MonoSignal(store["clip0"].samples[:n], SR)
        ).samples + 1.0 * normalize_amplitude(MonoSignal(store["clip1"].samples[:n], SR)).samples
        np.testing.assert_array_equal(pair.mono_mix.samples, expected)

    def test_short_clip_zero_padded(self, pack, arr):
        tiny = {"c": MonoSignal(np.array([0.5, -1.0]), SR)}
        pair = synth_pseudo_pair(scene([SceneSource("c", (0.0, 0.0))], 0.01), tiny, pack, arr)
        assert pair.mono_mix.n_samples == 160
        np.testing.assert_array_equal(pair.mono_mix.samples[2:], 0.0)

    def test_explicit_direction_placement(self, store, pack, arr):
        # a direction is placed by its pixel pair
        placement = direction_to_pixel(Direction(0.4, 0.1))
        pair = synth_pseudo_pair(
            scene([SceneSource("clip0", placement)]), store, pack, arr
        )
        meta = pair.metadata["sources"][0]
        assert meta["azimuth_rad"] == pytest.approx(0.4)
        assert meta["elevation_rad"] == pytest.approx(0.1)
        assert meta["u"] == pytest.approx(-0.4 / DEFAULT_FOV.theta_v0)

    def test_out_of_fov_direction_rejected(self, store, pack, arr):
        spec = scene([SceneSource("clip0", (1.5, 0.0))])  # azimuth -pi/2, past the border
        with pytest.raises(ValueError, match="outside the"):
            synth_pseudo_pair(spec, store, pack, arr)

    def test_missing_clip_rejected(self, store, pack, arr):
        with pytest.raises(FileNotFoundError):
            synth_pseudo_pair(scene([SceneSource("nope", (0.0, 0.0))]), store, pack, arr)

    def test_silent_clip_rejected(self, pack, arr):
        silent = {"s": MonoSignal(np.zeros(100), SR)}
        with pytest.raises(ValueError, match="all-zero"):
            synth_pseudo_pair(scene([SceneSource("s", (0.0, 0.0))], 0.01), silent, pack, arr)

    def test_clip_silent_over_the_scene_is_named(self, pack, arr):
        # loud after its first 200 samples, but the scene reads only 160
        late = {"late.wav": MonoSignal(np.r_[np.zeros(200), np.ones(100)], SR)}
        spec = scene([SceneSource("late.wav", (0.0, 0.0))], 0.01)
        with pytest.raises(ValueError) as info:
            synth_pseudo_pair(spec, late, pack, arr)
        assert str(info.value) == (
            "cannot normalize an all-zero clip 'late.wav' in its first 160 samples"
        )
        longer = scene([SceneSource("late.wav", (0.0, 0.0))], 0.015)
        assert synth_pseudo_pair(longer, late, pack, arr).per_source_mono[0].samples[-1] == 1.0

    def test_rate_mismatch_rejected(self, pack, arr):
        wrong = {"w": MonoSignal(np.ones(100), 44100)}
        with pytest.raises(ValueError, match="rate"):
            synth_pseudo_pair(scene([SceneSource("w", (0.0, 0.0))], 0.01), wrong, pack, arr)

    def test_metadata_directions_inside_fov(self, store, pack, arr):
        for seed in range(20):
            spec = sample_scene(seed, list(store), duration_s=0.02)
            pair = synth_pseudo_pair(spec, store, pack, arr)
            for src in pair.metadata["sources"]:
                assert abs(src["azimuth_rad"]) <= DEFAULT_FOV.theta_v0 + 1e-12
                assert abs(math.tan(src["elevation_rad"])) <= DEFAULT_FOV.vert_extent + 1e-9


class TestSampleScene:
    def test_degenerate_ratios_force_k1(self):
        pool = [f"c{i}" for i in range(5)]
        for seed in range(50):
            assert len(sample_scene(seed, pool, (1.0, 0.0, 0.0)).sources) == 1

    def test_same_seed_same_scene(self):
        pool = [f"c{i}" for i in range(5)]
        a = sample_scene(123, pool)
        b = sample_scene(123, pool)
        assert a == b

    def test_distinct_clips_within_scene(self):
        pool = [f"c{i}" for i in range(4)]
        for seed in range(200):
            refs = [s.audio_ref for s in sample_scene(seed, pool, (0.0, 0.0, 1.0)).sources]
            assert len(set(refs)) == len(refs) == 3

    def test_gains_inside_range(self):
        pool = [f"c{i}" for i in range(4)]
        for seed in range(100):
            for s in sample_scene(seed, pool, gain_range=(0.5, 1.0)).sources:
                assert 0.5 <= s.gain <= 1.0

    def test_empirical_ratio_matches_table(self):
        pool = [f"c{i}" for i in range(6)]
        counts = {1: 0, 2: 0, 3: 0}
        n = 10_000
        for i in range(n):
            counts[len(sample_scene(scene_seed(777, i), pool).sources)] += 1
        assert counts[1] / n == pytest.approx(0.4, abs=0.02)
        assert counts[2] / n == pytest.approx(0.5, abs=0.02)
        assert counts[3] / n == pytest.approx(0.1, abs=0.02)

    def test_draws_match_the_pinned_table(self):
        # K, the clip picks and the exact u, v and gain of 3 master seeds x 50
        # indices, as numpy drew them when the table was written: these draws
        # take no FFT, so only numpy's generators or the draw order can move them
        table = json.loads(DRAWS.read_text())
        for master, scenes in table["draws"].items():
            assert len(scenes) == 50
            for i, want in enumerate(scenes):
                sources = sample_scene(scene_seed(int(master), i), table["pool"]).sources
                got = {"k": len(sources), "picks": [s.audio_ref for s in sources],
                       "u": [s.placement[0].hex() for s in sources],
                       "v": [s.placement[1].hex() for s in sources],
                       "gain": [float(s.gain).hex() for s in sources]}
                assert got == want, (master, i)

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            sample_scene(0, ["a", "b"])

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_named(self, seed):
        with pytest.raises(ValueError, match=(
                f"^seed must fit an unsigned 64-bit integer, got {seed}$")):
            sample_scene(seed, ["a", "b", "c"])

    def test_invalid_ratios_rejected(self):
        pool = ["a", "b", "c"]
        with pytest.raises(ValueError, match="ratios"):
            sample_scene(0, pool, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="ratios"):
            sample_scene(0, pool, (-0.2, 1.1, 0.1))


class TestSeparationPair:
    def test_edge_directions(self):
        spec = make_separation_pair("a", "b")
        d0 = spec.sources[0]
        d1 = spec.sources[1]
        assert d0.placement == (-1.0, 0.0)
        assert d1.placement == (1.0, 0.0)
        from binauralkit.scenegen import resolve_placement

        _, _, dir0 = resolve_placement(d0, spec.fov)
        _, _, dir1 = resolve_placement(d1, spec.fov)
        assert dir0.azimuth == pytest.approx(math.pi / 3)
        assert dir1.azimuth == pytest.approx(-math.pi / 3)

    def test_swap_swaps_directions_only(self):
        a = make_separation_pair("a", "b")
        b = make_separation_pair("b", "a")
        assert a.sources[0].audio_ref == b.sources[1].audio_ref
        assert a.sources[0].placement == b.sources[0].placement

    def test_identical_clips_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_separation_pair("a", "a")

    def test_feeds_the_synthesis_pipeline(self, store, pack, arr):
        spec = make_separation_pair("clip0", "clip1", sample_rate=SR, duration_s=0.05)
        pair = synth_pseudo_pair(spec, store, pack, arr)
        assert pair.binaural.n_samples == 800


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestGenDataset:
    def make_config(self, out, count=4, seed=99):
        return DatasetConfig(
            master_seed=seed,
            count=count,
            pool=("clip0", "clip1", "clip2", "clip3", "clip4"),
            output_dir=str(out),
            duration_s=0.05,
        )

    @pytest.mark.parametrize("rate", [True, 16000.5, float("nan")])
    def test_rate_must_be_a_positive_whole_number(self, tmp_path, rate):
        with pytest.raises(ValueError, match="sample_rate must be positive and whole"):
            replace(self.make_config(tmp_path), sample_rate=rate)

    def test_duration_is_bounded_by_the_scene_wav(self, tmp_path):
        # the binaural WAV of a scene may hold at most max_frames(2) float32 frames
        most = wavio.max_frames(2)
        assert replace(self.make_config(tmp_path), duration_s=most / 16000).duration_s
        too_long = (most + 1) / 16000
        with pytest.raises(ValueError, match=f"duration_s must fit .* at most {most} samples "
                           f"at 16000 Hz, got {too_long}"):
            replace(self.make_config(tmp_path), duration_s=too_long)

    def test_count_zero_writes_empty_manifest(self, tmp_path, store, pack, arr):
        manifest = gen_dataset(self.make_config(tmp_path / "d", count=0), store, pack, arr)
        assert manifest == []
        assert json.loads((tmp_path / "d" / "manifest.json").read_text()) == []
        assert list((tmp_path / "d").iterdir()) == [tmp_path / "d" / "manifest.json"]

    def test_outputs_are_byte_identical_across_runs(self, tmp_path, store, pack, arr):
        gen_dataset(self.make_config(tmp_path / "a"), store, pack, arr)
        gen_dataset(self.make_config(tmp_path / "b"), store, pack, arr)
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_manifest_lists_per_scene_files(self, tmp_path, store, pack, arr):
        out = tmp_path / "d"
        manifest = gen_dataset(self.make_config(out), store, pack, arr)
        assert [m["index"] for m in manifest] == [0, 1, 2, 3]
        for item in manifest:
            assert (out / item["scene_json"]).is_file()
            assert (out / item["binaural_wav"]).is_file()
            assert (out / item["mono_wav"]).is_file()
            meta = json.loads((out / item["scene_json"]).read_text())
            stem = f"scene_{item['index']:05d}"
            assert item["source_wavs"] == [f"{stem}_src{j}.wav" for j in range(len(meta["sources"]))]
        listed = {"manifest.json"}
        for item in manifest:
            listed |= {item["scene_json"], item["binaural_wav"], item["mono_wav"], *item["source_wavs"]}
        assert {p.name for p in out.iterdir()} == listed

    def test_k_histogram_within_loose_binomial_bounds(self, tmp_path, store, pack, arr):
        out = tmp_path / "h"
        manifest = gen_dataset(self.make_config(out, count=100, seed=5), store, pack, arr)
        counts = {1: 0, 2: 0, 3: 0}
        for item in manifest:
            meta = json.loads((out / item["scene_json"]).read_text())
            counts[len(meta["sources"])] += 1
        for k, p in zip((1, 2, 3), (0.4, 0.5, 0.1)):
            bound = 4 * math.sqrt(p * (1 - p) / 100)
            assert abs(counts[k] / 100 - p) <= bound

    def test_failed_scene_reports_index(self, tmp_path, pack, arr):
        broken = {"clip0": MonoSignal(np.ones(100), SR)}  # other refs missing
        with pytest.raises(RuntimeError, match=r"scene \d+"):
            gen_dataset(self.make_config(tmp_path / "f", count=8), broken, pack, arr)

    def test_overflowing_scene_is_named_with_its_index(self, tmp_path, store, pack, arr):
        config = replace(self.make_config(tmp_path / "o"), ratios=(0.0, 0.0, 1.0),
                         gain_range=(1e307, 1e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=re.escape(
                    "scene 0 failed: source gains [1e+307, 1e+307, 1e+307] overflow the scene")):
                gen_dataset(config, store, pack, arr)

    def test_failed_scene_writes_failed_file_and_no_manifest(self, tmp_path, pack, arr):
        broken = {"clip0": MonoSignal(np.ones(100), SR)}  # other refs missing
        out = tmp_path / "f"
        with pytest.raises(RuntimeError) as info:
            gen_dataset(self.make_config(out, count=8), broken, pack, arr)
        assert (out / "FAILED").read_text() == f"{info.value}\n"
        assert not (out / "manifest.json").exists()

    def test_good_rerun_clears_an_earlier_failure(self, tmp_path, store, pack, arr):
        broken = {"clip0": MonoSignal(np.ones(100), SR)}  # other refs missing
        out = tmp_path / "f"
        with pytest.raises(RuntimeError):
            gen_dataset(self.make_config(out, count=8), broken, pack, arr)
        assert (out / "FAILED").exists()
        gen_dataset(self.make_config(out), store, pack, arr)
        assert not (out / "FAILED").exists()
        assert (out / "manifest.json").is_file()

    def test_smaller_rerun_replaces_the_earlier_scene_files(self, tmp_path, store, pack, arr):
        out = tmp_path / "d"
        gen_dataset(self.make_config(out, count=6), store, pack, arr)
        others = ["notes.txt", "scene_1.json", "scene_00001_extra.wav", "scene_00001_src.wav"]
        for name in others:
            (out / name).write_text("keep")
        gen_dataset(self.make_config(out, count=2), store, pack, arr)
        gen_dataset(self.make_config(tmp_path / "fresh", count=2), store, pack, arr)
        for name in others:
            assert (out / name).read_text() == "keep"  # not a name gen_dataset writes
            (out / name).unlink()
        assert dir_digest(out) == dir_digest(tmp_path / "fresh")

    def test_failing_rerun_removes_the_earlier_manifest(self, tmp_path, store, pack, arr):
        broken = {"clip0": MonoSignal(np.ones(100), SR)}  # other refs missing
        out = tmp_path / "f"
        gen_dataset(self.make_config(out, count=8), store, pack, arr)
        with pytest.raises(RuntimeError) as info:
            gen_dataset(self.make_config(out, count=8), broken, pack, arr)
        failed = int(re.search(r"scene (\d+)", str(info.value)).group(1))
        assert not (out / "manifest.json").exists()
        assert (out / "FAILED").is_file()
        written = {p.name[:11] for p in out.iterdir() if p.name != "FAILED"}
        assert written == {f"scene_{i:05d}" for i in range(failed)}

    def test_scene_seed_is_stable(self):
        assert scene_seed(1, 0) == scene_seed(1, 0)
        assert scene_seed(1, 0) != scene_seed(1, 1)
        assert scene_seed(1, 0) != scene_seed(2, 0)


class TestWavStore:
    def test_loads_mono_wavs(self, tmp_path):
        from binauralkit import wavio

        wavio.write_wav(tmp_path / "x.wav", SR, np.array([0.1, -0.2, 0.3]))
        sig = WavStore(tmp_path)["x.wav"]
        assert sig.sample_rate == SR
        assert sig.n_samples == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WavStore(tmp_path)["missing.wav"]

    def test_rejects_stereo_clip(self, tmp_path):
        from binauralkit import wavio

        wavio.write_wav(tmp_path / "st.wav", SR, np.zeros((10, 2)))
        with pytest.raises(ValueError, match="mono"):
            WavStore(tmp_path)["st.wav"]

