import math

import numpy as np
import pytest

from binauralkit.ambisonic import BFormat, MonoSignal, encode, mix
from binauralkit.binaural import BinauralSignal
from binauralkit.spherical import Direction


@pytest.fixture
def noise():
    rng = np.random.default_rng(11)
    return MonoSignal(rng.normal(size=4000), 16000)


class TestTypes:
    def test_mono_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MonoSignal(np.array([0.0, np.inf]), 16000)

    def test_mono_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            MonoSignal(np.zeros(4), 0)

    @pytest.mark.parametrize("cls, n_channels", [(MonoSignal, 1), (BFormat, 4), (BinauralSignal, 2)])
    @pytest.mark.parametrize("rate", [True, 16000.5, float("nan"), -8000])
    def test_rate_must_be_a_positive_whole_number(self, cls, n_channels, rate):
        channels = [np.zeros(4)] * n_channels
        with pytest.raises(ValueError, match=f"sample_rate must be positive and whole, got {rate}"):
            cls(*channels, rate)

    @pytest.mark.parametrize("rate", [np.int64(8000), np.uint16(8000), 8000.0])
    def test_rate_is_stored_as_an_int(self, rate):
        assert type(MonoSignal(np.zeros(4), rate).sample_rate) is int

    def test_bformat_rejects_ragged_channels(self):
        with pytest.raises(ValueError, match=r"^channel lengths differ: \[3, 4\]$"):
            BFormat(np.zeros(4), np.zeros(4), np.zeros(3), np.zeros(4))

    def test_binaural_rejects_ragged_channels_with_the_same_message(self):
        with pytest.raises(ValueError, match=r"^channel lengths differ: \[3, 4\]$"):
            BinauralSignal(np.zeros(3), np.zeros(4), 16000)


class TestEncode:
    def test_front(self, noise):
        b = encode(noise, Direction(0.0, 0.0))
        np.testing.assert_array_equal(b.w, noise.samples)
        np.testing.assert_allclose(b.x, noise.samples, atol=1e-15)
        np.testing.assert_allclose(b.y, 0.0, atol=1e-15)
        np.testing.assert_allclose(b.z, 0.0, atol=1e-15)

    def test_hard_left(self, noise):
        b = encode(noise, Direction(math.pi / 2, 0.0))
        np.testing.assert_allclose(b.y, noise.samples, atol=1e-15)
        np.testing.assert_allclose(b.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(b.z, 0.0, atol=1e-15)

    def test_straight_up(self, noise):
        b = encode(noise, Direction(0.0, math.pi / 2))
        np.testing.assert_allclose(b.z, noise.samples, atol=1e-15)
        np.testing.assert_allclose(b.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(b.y, 0.0, atol=1e-15)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            encode(MonoSignal(np.array([]), 16000), Direction(0.0, 0.0))

    def test_magnitude_identity(self, noise):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = Direction(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
            b = encode(noise, d)
            np.testing.assert_allclose(b.x**2 + b.y**2 + b.z**2, b.w**2, atol=1e-12)

    def test_linearity(self, noise):
        rng = np.random.default_rng(4)
        other = MonoSignal(rng.normal(size=noise.n_samples), 16000)
        d = Direction(0.8, -0.2)
        combo = MonoSignal(2.0 * noise.samples - 3.0 * other.samples, 16000)
        direct = encode(combo, d)
        parts = encode(noise, d), encode(other, d)
        for ch in ("w", "x", "y", "z"):
            expected = 2.0 * getattr(parts[0], ch) - 3.0 * getattr(parts[1], ch)
            np.testing.assert_allclose(getattr(direct, ch), expected, rtol=1e-12, atol=1e-15)

    def test_rotation_equivariance(self, noise):
        theta, delta = 0.3, 0.9
        b0 = encode(noise, Direction(theta, 0.1))
        b1 = encode(noise, Direction(theta + delta, 0.1))
        c, s = math.cos(delta), math.sin(delta)
        np.testing.assert_allclose(b1.x, c * b0.x - s * b0.y, atol=1e-12)
        np.testing.assert_allclose(b1.y, s * b0.x + c * b0.y, atol=1e-12)


class TestMix:
    def test_singleton_identity(self, noise):
        b = encode(noise, Direction(0.4, 0.0))
        m = mix([b])
        np.testing.assert_array_equal(m.w, b.w)
        np.testing.assert_array_equal(m.y, b.y)

    def test_cancellation(self, noise):
        d = Direction(0.4, -0.1)
        neg = MonoSignal(-noise.samples, noise.sample_rate)
        m = mix([encode(noise, d), encode(neg, d)])
        for ch in ("w", "x", "y", "z"):
            np.testing.assert_allclose(getattr(m, ch), 0.0, atol=1e-15)

    def test_zero_pads_shorter_parts(self):
        a = encode(MonoSignal(np.ones(10), 16000), Direction(0.0, 0.0))
        b = encode(MonoSignal(np.ones(4), 16000), Direction(0.0, 0.0))
        m = mix([a, b])
        assert m.n_samples == 10
        np.testing.assert_allclose(m.w[:4], 2.0)
        np.testing.assert_allclose(m.w[4:], 1.0)

    def test_mix_equals_encoded_sum_only_when_colocated(self, noise):
        rng = np.random.default_rng(5)
        other = MonoSignal(rng.normal(size=noise.n_samples), 16000)
        d = Direction(0.7, 0.2)
        same = mix([encode(noise, d), encode(other, d)])
        joint = encode(MonoSignal(noise.samples + other.samples, 16000), d)
        for ch in ("w", "x", "y", "z"):
            np.testing.assert_allclose(getattr(same, ch), getattr(joint, ch), atol=1e-12)
        apart = mix([encode(noise, d), encode(other, Direction(-0.7, 0.2))])
        assert not np.allclose(apart.y, joint.y)

    def test_errors(self, noise):
        with pytest.raises(ValueError):
            mix([])
        b16 = encode(noise, Direction(0.0, 0.0))
        b44 = encode(MonoSignal(noise.samples, 44100), Direction(0.0, 0.0))
        with pytest.raises(ValueError):
            mix([b16, b44])
