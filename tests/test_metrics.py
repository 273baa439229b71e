import json
import math

import numpy as np
import pytest

from binauralkit.ambisonic import MonoSignal
from binauralkit.binaural import BinauralSignal
from binauralkit.metrics import (
    SNR_CAP_DB,
    d_phase,
    env_distance,
    evaluate,
    hilbert,
    mag_distance,
    snr,
    stft_distance,
)
from binauralkit.spectral import Spectrogram, StftConfig, stft

SR = 16000


def binaural(left, right):
    return BinauralSignal(left, right, SR)


def noise_pair(seed, n=SR):
    rng = np.random.default_rng(seed)
    return binaural(rng.normal(size=n), rng.normal(size=n))


def l2(x):
    return np.sqrt(np.sum(np.abs(x) ** 2))


class TestStftDistance:
    def test_zero_on_identical(self):
        gt = noise_pair(1)
        pred = binaural(gt.left.copy(), gt.right.copy())
        assert stft_distance(gt, pred) == 0.0

    def test_channel_swap_is_positive(self):
        rng = np.random.default_rng(2)
        left = rng.normal(size=SR)
        gt = binaural(left, np.zeros(SR))  # hard-panned
        swapped = binaural(np.zeros(SR), left)
        assert stft_distance(gt, swapped) > 1.0

    def test_matches_loop_oracle_whole_signal(self):
        gt, pred = noise_pair(3, n=4000), noise_pair(4, n=4000)
        sgl = stft(MonoSignal(gt.left, SR)).bins
        sgr = stft(MonoSignal(gt.right, SR)).bins
        spl = stft(MonoSignal(pred.left, SR)).bins
        spr = stft(MonoSignal(pred.right, SR)).bins
        acc_l = sum(
            abs(sgl[i, j] - spl[i, j]) ** 2
            for i in range(sgl.shape[0])
            for j in range(sgl.shape[1])
        )
        acc_r = sum(
            abs(sgr[i, j] - spr[i, j]) ** 2
            for i in range(sgr.shape[0])
            for j in range(sgr.shape[1])
        )
        expected = math.sqrt(acc_l) + math.sqrt(acc_r)
        assert stft_distance(gt, pred, window_s=None) == pytest.approx(expected, abs=1e-9)

    # every pair-taking metric checks a pair alike and names both values
    @pytest.mark.parametrize("metric", [evaluate, snr, stft_distance, env_distance, mag_distance])
    @pytest.mark.parametrize("rate, n, message", [
        (SR, SR + 1, "signal lengths differ: 16000 vs 16001"),
        (8000, SR, "sample rates differ: 16000 vs 8000"),
    ], ids=["length", "rate"])
    def test_length_mismatch_rejected(self, metric, rate, n, message):
        rng = np.random.default_rng(6)
        pred = BinauralSignal(rng.normal(size=n), rng.normal(size=n), rate)
        with pytest.raises(ValueError, match=f"^{message}$"):
            metric(noise_pair(5), pred)


class TestEnvDistance:
    def test_zero_on_identical(self):
        gt = noise_pair(7)
        assert env_distance(gt, binaural(gt.left.copy(), gt.right.copy())) == 0.0

    def test_sine_envelope_is_flat(self):
        # analytic-signal magnitude of a pure tone is ~1 away from the edges
        t = np.arange(SR) / SR
        env = np.abs(hilbert(np.sin(2 * np.pi * 440 * t)))
        np.testing.assert_allclose(env[200:-200], 1.0, atol=1e-3)

    def test_sign_inversion_invisible(self):
        gt = noise_pair(8)
        flipped = binaural(-gt.left, -gt.right)
        assert env_distance(gt, flipped) == pytest.approx(0.0, abs=1e-9)


class TestHilbert:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 777, 4096, 10080, 10081])
    def test_matches_scipy(self, n):
        x = np.random.default_rng(n).normal(size=n)
        expected = pytest.importorskip("scipy.signal").hilbert(x)
        got = hilbert(x)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 2, 5, 10080, 10081])
    def test_rows_equal_one_dimensional_calls(self, n):
        x = np.random.default_rng(n).normal(size=(4, n))
        got = hilbert(x)
        for row, expected in zip(got, (hilbert(r) for r in x)):
            np.testing.assert_array_equal(row, expected)
        reference = pytest.importorskip("scipy.signal").hilbert(x, axis=-1)
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_real_part_is_the_input(self):
        x = np.random.default_rng(1).normal(size=1001)
        np.testing.assert_allclose(hilbert(x).real, x, atol=1e-12)


class TestMagDistance:
    def test_zero_on_identical(self):
        gt = noise_pair(9)
        assert mag_distance(gt, binaural(gt.left.copy(), gt.right.copy())) == 0.0

    def test_phase_blind(self):
        gt = noise_pair(10)
        flipped = binaural(-gt.left, -gt.right)  # phase shifted by pi everywhere
        assert mag_distance(gt, flipped) == pytest.approx(0.0, abs=1e-9)

    def test_doubled_prediction_matches_oracle(self):
        gt = noise_pair(11, n=4000)
        pred = binaural(2 * gt.left, 2 * gt.right)
        expected = l2(np.abs(stft(MonoSignal(gt.left, SR)).bins)) + l2(
            np.abs(stft(MonoSignal(gt.right, SR)).bins)
        )
        assert mag_distance(gt, pred, window_s=None) == pytest.approx(expected, rel=1e-9)


class TestSnr:
    def test_identical_hits_cap(self):
        gt = noise_pair(12)
        assert snr(gt, binaural(gt.left.copy(), gt.right.copy())) == SNR_CAP_DB

    def test_zero_prediction_is_zero_db(self):
        gt = noise_pair(13)
        assert snr(gt, binaural(np.zeros(SR), np.zeros(SR))) == pytest.approx(0.0)

    def test_constructed_ten_db(self):
        gt = noise_pair(14)
        rng = np.random.default_rng(15)
        eta = rng.normal(size=2 * SR)
        gt_energy = np.sum(gt.left**2) + np.sum(gt.right**2)
        eta *= math.sqrt(gt_energy / 10.0 / np.sum(eta**2))
        pred = binaural(gt.left + eta[:SR], gt.right + eta[SR:])
        assert snr(gt, pred) == pytest.approx(10.0, abs=1e-9)

    def test_internal_consistency(self):
        gt, pred = noise_pair(16), noise_pair(17)
        resid = np.sum((gt.left - pred.left) ** 2) + np.sum((gt.right - pred.right) ** 2)
        total = np.sum(gt.left**2) + np.sum(gt.right**2)
        assert snr(gt, pred) + 10 * math.log10(resid / total) == pytest.approx(0.0, abs=1e-12)

    def test_zero_ground_truth_rejected(self):
        silent = binaural(np.zeros(SR), np.zeros(SR))
        with pytest.raises(ValueError, match="zero"):
            snr(silent, noise_pair(18))


class TestDPhase:
    def test_zero_on_identical_diff(self):
        gt = noise_pair(19, n=4000)
        diff_spec = stft(MonoSignal(gt.left - gt.right, SR))
        assert d_phase(gt, diff_spec) == pytest.approx(0.0, abs=1e-15)

    def test_channel_swap_flips_by_pi(self):
        gt = noise_pair(20, n=4000)
        diff = stft(MonoSignal(gt.left - gt.right, SR))
        negated = Spectrogram(-diff.bins, diff.config, diff.n_samples)
        assert d_phase(gt, negated) == pytest.approx(math.pi, abs=1e-9)

    def test_zero_prediction_against_uniform_phases(self):
        gt = noise_pair(21, n=4000)
        diff = stft(MonoSignal(gt.left - gt.right, SR))
        zero = Spectrogram(np.zeros(diff.shape), diff.config, diff.n_samples)
        assert d_phase(gt, zero) == pytest.approx(math.pi / 2, abs=0.05)

    def test_range_bound(self):
        gt = noise_pair(22, n=4000)
        rng = np.random.default_rng(23)
        spec = stft(MonoSignal(gt.left - gt.right, SR))
        arbitrary = Spectrogram(
            rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape), spec.config
        )
        value = d_phase(gt, arbitrary)
        assert 0.0 <= value <= math.pi

    def test_spectrogram_of_another_rate_rejected(self):
        # 1 s at 44.1 and at 48 kHz both give 1025 x 101 bins, so only the
        # config tells them apart
        rng = np.random.default_rng(34)
        gt = BinauralSignal(rng.normal(size=44100), rng.normal(size=44100), 44100)
        assert d_phase(gt, stft(MonoSignal(gt.left - gt.right, 44100))) == 0.0
        other = stft(MonoSignal(rng.normal(size=48000), 48000))
        assert other.shape == (1025, 101)
        with pytest.raises(ValueError, match="44100 Hz .* vs 48000 Hz"):
            d_phase(gt, other)

    def test_shape_mismatch_rejected(self):
        gt = noise_pair(24, n=4000)
        with pytest.raises(ValueError, match=(
                r"^shapes differ: gt_diff \(257, 26\) vs pred_diff_spec \(257, 51\)$")):
            d_phase(gt, stft(MonoSignal(np.zeros(8000), SR)))


class TestEvaluate:
    def test_perfect_prediction(self):
        gt = noise_pair(25)
        report = evaluate(gt, binaural(gt.left.copy(), gt.right.copy()))
        assert report.stft_dist == 0.0
        assert report.env == 0.0
        assert report.mag == 0.0
        assert report.snr_db == SNR_CAP_DB
        assert report.d_phase == 0.0

    def test_mono_mono_phase_anchor(self):
        # decorrelated ground truth vs a spatially-flat prediction
        gt = noise_pair(26, n=10 * SR)
        mono_mix = (gt.left + gt.right) / 2
        report = evaluate(gt, binaural(mono_mix, mono_mix.copy()))
        assert report.d_phase == pytest.approx(math.pi / 2, abs=0.05)

    def test_window_count_for_ten_seconds(self):
        gt = noise_pair(27, n=10 * SR)
        report = evaluate(gt, binaural(np.zeros(10 * SR), np.zeros(10 * SR)))
        assert report.windows == 94

    def test_signal_too_short_rejected(self):
        short = noise_pair(28, n=1000)
        with pytest.raises(ValueError, match="shorter"):
            evaluate(short, short)

    def test_report_json_schema(self):
        gt = noise_pair(29)
        report = evaluate(gt, binaural(gt.left.copy(), gt.right.copy()))
        payload = json.loads(report.to_json())
        assert set(payload) == {"stft", "env", "mag", "snr_db", "d_phase", "windows", "config"}
        assert payload["config"] == {
            "window_s": 0.63, "hop_s": 0.1, "stft": {"n_fft": 512, "win": 400, "hop": 160}
        }

    def test_report_records_the_settings_it_was_computed_with(self):
        rng = np.random.default_rng(32)
        gt, pred = (BinauralSignal(*rng.normal(size=(2, 4000)), 8000) for _ in range(2))
        report = evaluate(gt, pred, 0.2, 0.05)
        assert (report.window_s, report.hop_s) == (0.2, 0.05)
        assert report.stft_config == StftConfig(8000)
        assert report.to_dict()["config"] == {
            "window_s": 0.2, "hop_s": 0.05, "stft": {"n_fft": 256, "win": 200, "hop": 80}
        }
        # one whole-signal window ignores the hop, so none is recorded
        whole = evaluate(gt, pred, window_s=None, hop_s=0.05)
        assert whole.to_dict()["config"]["window_s"] is None
        assert whole.to_dict()["config"]["hop_s"] is None

    def test_window_order_independence(self):
        # metric accumulations are plain means; spot-check hop alignment
        gt = noise_pair(30, n=2 * SR)
        pred = noise_pair(31, n=2 * SR)
        a = evaluate(gt, pred)
        b = evaluate(gt, pred)
        assert a.stft_dist == b.stft_dist
        assert a.d_phase == b.d_phase
