import math

import numpy as np
import pytest

from binauralkit.ambisonic import MonoSignal, encode, mix
from binauralkit.binaural import (
    decode_wy,
    default_speaker_array,
    make_speaker_array,
    project_to_speakers,
    read_binaural_wav,
    render_ambisonic_hrir,
    render_direct_hrir,
    write_binaural_wav,
)
from binauralkit.hrir import HrirEntry, HrirPack, synth_pack
from binauralkit.spherical import Direction, harmonic_vector


def naive_convolve_trim(x, h):
    """O(N K) time-domain convolution, trimmed to len(x)."""
    out = np.zeros(len(x))
    for n in range(len(x)):
        for k in range(len(h)):
            if 0 <= n - k < len(x):
                out[n] += h[k] * x[n - k]
    return out


def rms(x):
    return np.sqrt(np.mean(x**2))


def tetrahedral_directions():
    el = math.asin(1 / math.sqrt(3))
    return [
        Direction(math.radians(az), el if i % 2 == 0 else -el)
        for i, az in enumerate((45, 135, -135, -45))
    ]


@pytest.fixture
def noise():
    rng = np.random.default_rng(17)
    return MonoSignal(rng.normal(size=8000), 16000)


@pytest.fixture
def pack():
    return synth_pack(n_azimuths=24, ild_db=6.0)


class TestDecodeWY:
    def test_front_gives_identical_channels(self, noise):
        out = decode_wy(encode(noise, Direction(0.0, 0.0)))
        np.testing.assert_allclose(out.left, noise.samples, atol=1e-15)
        np.testing.assert_allclose(out.right, noise.samples, atol=1e-15)

    def test_hard_left(self, noise):
        out = decode_wy(encode(noise, Direction(math.pi / 2, 0.0)))
        np.testing.assert_allclose(out.left, 2 * noise.samples, atol=1e-12)
        np.testing.assert_allclose(out.right, 0.0, atol=1e-12)

    def test_silence(self):
        out = decode_wy(encode(MonoSignal(np.zeros(16), 16000), Direction(1.0, 0.0)))
        np.testing.assert_array_equal(out.left, 0.0)
        np.testing.assert_array_equal(out.right, 0.0)

    def test_sum_is_twice_w(self, noise):
        b = encode(noise, Direction(0.9, 0.4))
        out = decode_wy(b)
        np.testing.assert_allclose(out.left + out.right, 2 * b.w, rtol=1e-14, atol=1e-15)


class TestDirectHrir:
    def test_identity_filters_pass_through(self):
        taps = np.array([1.0])
        pack_one = HrirPack(
            (HrirEntry(Direction(0, 0), taps, taps.copy(), 16000),), 16000
        )
        impulse = np.zeros(64)
        impulse[0] = 1.0
        out = render_direct_hrir(MonoSignal(impulse, 16000), Direction(0, 0), pack_one)
        np.testing.assert_allclose(out.left, impulse, atol=1e-12)
        np.testing.assert_allclose(out.right, impulse, atol=1e-12)

    def test_left_source_is_louder_left(self, noise, pack):
        out = render_direct_hrir(noise, Direction(math.pi / 2, 0.0), pack)
        assert rms(out.left) > rms(out.right)

    def test_matches_naive_convolution(self, pack):
        rng = np.random.default_rng(23)
        x = MonoSignal(rng.normal(size=400), 16000)
        direction = Direction(0.7, 0.0)
        out = render_direct_hrir(x, direction, pack)
        from binauralkit.hrir import nearest

        entry = nearest(pack, direction)
        np.testing.assert_allclose(
            out.left, naive_convolve_trim(x.samples, entry.left_fir), atol=1e-9
        )
        np.testing.assert_allclose(
            out.right, naive_convolve_trim(x.samples, entry.right_fir), atol=1e-9
        )

    def test_rate_mismatch_rejected(self, pack):
        with pytest.raises(ValueError):
            render_direct_hrir(MonoSignal(np.ones(10), 44100), Direction(0, 0), pack)


class TestSpeakerArray:
    def test_default_array_is_full_rank(self):
        arr = default_speaker_array()
        assert len(arr.directions) == 8
        assert np.linalg.matrix_rank(arr.d_matrix) == 4
        np.testing.assert_allclose(arr.d_matrix @ arr.d_pinv, np.eye(4), atol=1e-9)

    def test_default_array_spans_frontal_arc(self):
        azimuths = [d.azimuth for d in default_speaker_array().directions]
        assert min(azimuths) == pytest.approx(-math.pi / 2 + math.pi / 16)
        assert max(azimuths) == pytest.approx(math.pi / 2 - math.pi / 16)

    def test_default_array_is_mirror_symmetric(self):
        dirs = default_speaker_array().directions
        pairs = {(round(d.azimuth, 12), round(d.elevation, 12)) for d in dirs}
        assert {(-az, el) for az, el in pairs} == pairs

    def test_tetrahedral_square_array_inverts(self):
        arr = make_speaker_array(tetrahedral_directions())
        np.testing.assert_allclose(arr.d_pinv, np.linalg.inv(arr.d_matrix), atol=1e-9)

    def test_identical_directions_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            make_speaker_array([Direction(0.3, 0.0)] * 8)

    def test_coplanar_ring_rejected(self):
        # all-horizon speakers zero the Z harmonic row
        with pytest.raises(ValueError, match="rank"):
            make_speaker_array(
                [Direction(az, 0.0) for az in np.linspace(-1.5, 1.5, 8)]
            )

    def test_too_few_speakers_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            make_speaker_array([Direction(0, 0)] * 3)

    def test_nearly_singular_layout_rejected(self):
        # full rank, but condition number 3.8e5 and decoder gains of 6.4e4
        with pytest.raises(ValueError, match="ill-conditioned"):
            make_speaker_array([
                Direction(0.0, 0.0), Direction(0.0, 1.25), Direction(0.5, 0.0),
                Direction(0.0, 0.0), Direction(6.103515625e-05, 0.0),
            ])


class TestProjection:
    def test_reencode_recovers_bformat(self, noise):
        arr = default_speaker_array()
        rng = np.random.default_rng(29)
        from binauralkit.ambisonic import BFormat

        b = BFormat(*rng.normal(size=(4, 256)), sample_rate=16000)
        feeds = project_to_speakers(b, arr)
        stack = np.stack([f.samples for f in feeds])
        np.testing.assert_allclose(arr.d_matrix @ stack, b.channels(), atol=1e-9)

    def test_zero_in_zero_out(self):
        arr = default_speaker_array()
        b = encode(MonoSignal(np.zeros(32), 16000), Direction(0, 0))
        for feed in project_to_speakers(b, arr):
            np.testing.assert_array_equal(feed.samples, 0.0)

    def test_square_array_concentrates_on_source_speaker(self, noise):
        dirs = tetrahedral_directions()
        arr = make_speaker_array(dirs)
        b = encode(noise, dirs[2])
        feeds = project_to_speakers(b, arr)
        expected = np.linalg.inv(arr.d_matrix) @ harmonic_vector(dirs[2])
        stack = np.stack([f.samples for f in feeds])
        np.testing.assert_allclose(stack, np.outer(expected, noise.samples), atol=1e-9)


class TestAmbisonicHrirRender:
    def test_silence_renders_silent(self, pack):
        arr = default_speaker_array()
        b = encode(MonoSignal(np.zeros(128), 16000), Direction(0.1, 0.0))
        out = render_ambisonic_hrir(b, arr, pack)
        np.testing.assert_array_equal(out.left, 0.0)
        np.testing.assert_array_equal(out.right, 0.0)

    def test_hard_left_is_louder_left(self, noise, pack):
        arr = default_speaker_array()
        out = render_ambisonic_hrir(encode(noise, Direction(math.pi / 2, 0.0)), arr, pack)
        assert rms(out.left) > rms(out.right)

    def test_mixture_equals_sum_of_parts(self, noise, pack):
        arr = default_speaker_array()
        rng = np.random.default_rng(31)
        other = MonoSignal(rng.normal(size=noise.n_samples), 16000)
        b1 = encode(noise, Direction(0.8, 0.1))
        b2 = encode(other, Direction(-0.5, -0.2))
        combined = render_ambisonic_hrir(mix([b1, b2]), arr, pack)
        separate_l = render_ambisonic_hrir(b1, arr, pack).left + render_ambisonic_hrir(
            b2, arr, pack
        ).left
        np.testing.assert_allclose(
            combined.left, separate_l, rtol=1e-6, atol=1e-9 * rms(separate_l)
        )

    def test_wy_linearity_over_mix(self, noise):
        rng = np.random.default_rng(37)
        other = MonoSignal(rng.normal(size=noise.n_samples), 16000)
        b1 = encode(noise, Direction(0.8, 0.1))
        b2 = encode(other, Direction(-0.5, -0.2))
        combined = decode_wy(mix([b1, b2]))
        np.testing.assert_allclose(
            combined.left, decode_wy(b1).left + decode_wy(b2).left, rtol=1e-6, atol=1e-12
        )

    def test_mirror_symmetry(self, noise, pack):
        # symmetric pack + symmetric array: render(theta) ear-swapped == render(-theta)
        arr = default_speaker_array()
        theta = 0.4
        a = render_ambisonic_hrir(encode(noise, Direction(theta, 0.0)), arr, pack)
        b = render_ambisonic_hrir(encode(noise, Direction(-theta, 0.0)), arr, pack)
        scale = max(rms(a.left), rms(a.right))
        np.testing.assert_allclose(a.left, b.right, atol=1e-6 * scale)
        np.testing.assert_allclose(a.right, b.left, atol=1e-6 * scale)

    def test_rate_mismatch_rejected(self, noise):
        arr = default_speaker_array()
        pack44 = synth_pack(sample_rate=44100)
        with pytest.raises(ValueError):
            render_ambisonic_hrir(encode(noise, Direction(0, 0)), arr, pack44)


class TestBinauralWav:
    def test_round_trip(self, tmp_path, noise, pack):
        out = render_direct_hrir(noise, Direction(0.5, 0.0), pack)
        path = tmp_path / "b.wav"
        write_binaural_wav(path, out)
        back = read_binaural_wav(path)
        assert back.sample_rate == out.sample_rate
        np.testing.assert_array_equal(
            back.left, out.left.astype(np.float32).astype(np.float64)
        )

    def test_pcm16_write(self, tmp_path, noise):
        out = decode_wy(encode(noise, Direction(0, 0)))
        write_binaural_wav(tmp_path / "b16.wav", out, fmt="pcm16")
        back = read_binaural_wav(tmp_path / "b16.wav")
        assert back.n_samples == out.n_samples
