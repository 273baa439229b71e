import numpy as np
import pytest
from scipy.signal import get_window

from binauralkit.ambisonic import MonoSignal
from binauralkit.spectral import (
    DEFAULT_STFT,
    ComplexMask,
    Spectrogram,
    StftConfig,
    _padded_window,
    apply_mask,
    istft,
    loss_separation,
    loss_stereo,
    loss_total,
    mono_and_diff,
    oracle_mask,
    read_spectrogram,
    reconstruct_lr,
    stft,
    write_spectrogram,
)

SR = 16000


def mono(samples):
    return MonoSignal(samples, SR)


def rand_spec(rng, cfg=DEFAULT_STFT, frames=16):
    bins = rng.normal(size=(cfg.n_bins, frames)) + 1j * rng.normal(size=(cfg.n_bins, frames))
    return Spectrogram(bins, cfg)


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_STFT.n_fft == 512
        assert DEFAULT_STFT.win_length == 400
        assert DEFAULT_STFT.hop == 160
        assert DEFAULT_STFT.n_bins == 257

    def test_rejects_win_longer_than_fft(self):
        with pytest.raises(ValueError):
            StftConfig(n_fft=256, win_length=400)

    def test_rejects_hop_longer_than_win(self):
        with pytest.raises(ValueError):
            StftConfig(n_fft=512, win_length=256, hop=400)

    def test_window_is_periodic_hann(self):
        # bit-exact against the periodic Hann of scipy, 1-sample window included
        for n in range(1, 1025):
            cfg = StftConfig(n_fft=n, win_length=n, hop=1)
            expected = get_window("hann", n, fftbins=True)
            np.testing.assert_array_equal(_padded_window(cfg), expected, err_msg=f"n={n}")

    def test_window_is_centered_in_the_frame(self):
        padded = _padded_window(DEFAULT_STFT)
        np.testing.assert_array_equal(padded[56:456], get_window("hann", 400, fftbins=True))
        assert not padded[:56].any() and not padded[456:].any()

    def test_rejects_overlap_add_violation(self):
        # hann at hop == win leaves zero-coverage sample offsets
        with pytest.raises(ValueError, match="overlap-add"):
            StftConfig(n_fft=512, win_length=400, hop=400)


class TestStft:
    def test_supplement_geometry(self):
        clip = mono(np.random.default_rng(0).normal(size=10080))  # 0.63 s at 16 kHz
        assert stft(clip).shape == (257, 64)

    def test_dc_concentrates_in_bin_zero(self):
        spec = stft(mono(np.ones(4000)))
        mags = np.abs(spec.bins)
        assert np.all(np.argmax(mags, axis=0) == 0)
        # main lobe of the analysis window holds nearly all the energy
        energy = mags**2
        assert np.all(energy[:3].sum(axis=0) / energy.sum(axis=0) > 0.99)

    def test_sine_peaks_at_its_bin(self):
        # bin-center frequency: k * sr / n_fft
        k = 32
        t = np.arange(4000) / SR
        spec = stft(mono(np.sin(2 * np.pi * (k * SR / 512) * t)))
        interior = np.abs(spec.bins[:, 8:-8])
        assert np.all(np.argmax(interior, axis=0) == k)
        # windowed-DFT closed form: peak magnitude ~ sum(window)/2
        expected = get_window("hann", 400, fftbins=True).sum() / 2
        np.testing.assert_allclose(interior[k], expected, rtol=1e-2)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            stft(mono(np.ones(399)))

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stft(MonoSignal(np.ones(4000), 44100))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=4000), rng.normal(size=4000)
        combined = stft(mono(2.5 * x - 1.5 * y)).bins
        separate = 2.5 * stft(mono(x)).bins - 1.5 * stft(mono(y)).bins
        np.testing.assert_allclose(combined, separate, atol=1e-9)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1000, 10080, 16000, 48000])
    def test_istft_inverts_stft(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        back = istft(stft(mono(x)))
        assert back.n_samples == n
        assert np.linalg.norm(back.samples - x) / np.linalg.norm(x) < 1e-6

    def test_zero_spectrogram_gives_silence(self):
        spec = stft(mono(np.random.default_rng(2).normal(size=4000)))
        silent = Spectrogram(np.zeros_like(spec.bins), spec.config, spec.n_samples)
        np.testing.assert_array_equal(istft(silent).samples, 0.0)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4000)
        spec = stft(mono(x))
        scaled = Spectrogram(3.0 * spec.bins, spec.config, spec.n_samples)
        np.testing.assert_allclose(istft(scaled).samples, 3.0 * x, atol=1e-9)

    def test_length_fallback_without_source_length(self):
        spec = stft(mono(np.random.default_rng(4).normal(size=4000)))
        anon = Spectrogram(spec.bins, spec.config)
        assert istft(anon).n_samples == (spec.bins.shape[1] - 1) * spec.config.hop


class TestMask:
    def test_identity_mask(self):
        rng = np.random.default_rng(5)
        spec = rand_spec(rng)
        out = apply_mask(ComplexMask(np.ones(spec.shape)), spec)
        np.testing.assert_array_equal(out.bins, spec.bins)

    def test_zero_mask(self):
        rng = np.random.default_rng(6)
        spec = rand_spec(rng)
        out = apply_mask(ComplexMask(np.zeros(spec.shape)), spec)
        np.testing.assert_array_equal(out.bins, 0.0)

    def test_elementwise_division_recovery(self):
        rng = np.random.default_rng(7)
        target, source = rand_spec(rng), rand_spec(rng)
        mask = ComplexMask(target.bins / source.bins)  # |bins| > 0 a.s.
        np.testing.assert_allclose(apply_mask(mask, source).bins, target.bins, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            apply_mask(ComplexMask(np.ones((2, 2))), rand_spec(rng))


class TestMonoAndDiff:
    def test_identical_channels_zero_diff(self):
        x = np.random.default_rng(9).normal(size=4000)
        md = mono_and_diff(mono(x), mono(x.copy()))
        np.testing.assert_array_equal(md.spec_d.bins, 0.0)
        np.testing.assert_array_equal(md.s_m.samples, 2 * x)

    def test_anticorrelated_channels_zero_mono(self):
        x = np.random.default_rng(10).normal(size=4000)
        md = mono_and_diff(mono(x), mono(-x))
        np.testing.assert_array_equal(md.spec_m.bins, 0.0)

    def test_diff_matches_two_transform_oracle(self):
        rng = np.random.default_rng(11)
        l, r = rng.normal(size=4000), rng.normal(size=4000)
        md = mono_and_diff(mono(l), mono(r))
        np.testing.assert_allclose(
            md.spec_d.bins, stft(mono(l)).bins - stft(mono(r)).bins, atol=1e-9
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mono_and_diff(mono(np.ones(4000)), mono(np.ones(4001)))


class TestReconstruct:
    def test_zero_diff_splits_mono(self):
        x = np.random.default_rng(12).normal(size=100)
        out = reconstruct_lr(mono(x), mono(np.zeros(100)))
        np.testing.assert_array_equal(out.left, x / 2)
        np.testing.assert_array_equal(out.right, x / 2)

    def test_exact_algebraic_inverse(self):
        rng = np.random.default_rng(13)
        l, r = rng.normal(size=100), rng.normal(size=100)
        out = reconstruct_lr(mono(l + r), mono(l - r))
        np.testing.assert_allclose(out.left, l, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(out.right, r, rtol=1e-14, atol=1e-15)

    def test_full_pipeline_round_trip(self):
        rng = np.random.default_rng(14)
        l, r = rng.normal(size=4000), rng.normal(size=4000)
        md = mono_and_diff(mono(l), mono(r))
        out = reconstruct_lr(md.s_m, istft(md.spec_d))
        assert np.linalg.norm(out.left - l) / np.linalg.norm(l) < 1e-6
        assert np.linalg.norm(out.right - r) / np.linalg.norm(r) < 1e-6


class TestOracleMask:
    def test_identical_spectra_give_near_unit_mask(self):
        rng = np.random.default_rng(15)
        spec = rand_spec(rng)
        mask = oracle_mask(spec, spec, eps=1e-12)
        np.testing.assert_allclose(mask.bins, 1.0, atol=1e-6)

    def test_zero_target_gives_zero_mask(self):
        rng = np.random.default_rng(16)
        spec = rand_spec(rng)
        zero = Spectrogram(np.zeros(spec.shape), spec.config)
        np.testing.assert_array_equal(oracle_mask(zero, spec).bins, 0.0)

    def test_local_optimality_spot_check(self):
        rng = np.random.default_rng(17)
        target, source = rand_spec(rng, frames=8), rand_spec(rng, frames=8)
        mask = oracle_mask(target, source, eps=1e-8)
        best = loss_stereo(target, mask, source)
        for _ in range(20):
            delta = 1e-3 * (
                rng.normal(size=mask.bins.shape) + 1j * rng.normal(size=mask.bins.shape)
            )
            perturbed = ComplexMask(mask.bins + delta)
            assert loss_stereo(target, perturbed, source) >= best

    def test_eps_validation(self):
        rng = np.random.default_rng(18)
        spec = rand_spec(rng)
        with pytest.raises(ValueError):
            oracle_mask(spec, spec, eps=0.0)


class TestLosses:
    def test_perfect_mask_loss_vanishes(self):
        rng = np.random.default_rng(19)
        source = rand_spec(rng)
        mask = oracle_mask(source, source, eps=1e-14)
        assert loss_stereo(source, mask, source) < 1e-6

    def test_zero_mask_gives_target_norm(self):
        rng = np.random.default_rng(20)
        target, source = rand_spec(rng), rand_spec(rng)
        zero = ComplexMask(np.zeros(target.shape))
        expected = np.sqrt(np.sum(np.abs(target.bins) ** 2))
        assert loss_stereo(target, zero, source) == pytest.approx(expected)

    def test_stereo_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        target, source = rand_spec(rng, frames=6), rand_spec(rng, frames=6)
        mask = ComplexMask(rng.normal(size=target.shape) + 1j * rng.normal(size=target.shape))
        acc = 0.0
        for i in range(target.shape[0]):
            for j in range(target.shape[1]):
                acc += abs(target.bins[i, j] - mask.bins[i, j] * source.bins[i, j]) ** 2
        assert loss_stereo(target, mask, source) == pytest.approx(np.sqrt(acc), abs=1e-9)

    def test_separation_zero_masks(self):
        rng = np.random.default_rng(22)
        a, b, mix_spec = rand_spec(rng), rand_spec(rng), rand_spec(rng)
        zero = ComplexMask(np.zeros(a.shape))
        expected = np.sum(np.abs(a.bins) ** 2) + np.sum(np.abs(b.bins) ** 2)
        assert loss_separation(a, b, zero, zero, mix_spec) == pytest.approx(expected)

    def test_separation_perfect_masks(self):
        rng = np.random.default_rng(23)
        a, b, mix_spec = rand_spec(rng), rand_spec(rng), rand_spec(rng)
        ma = oracle_mask(a, mix_spec, eps=1e-14)
        mb = oracle_mask(b, mix_spec, eps=1e-14)
        assert loss_separation(a, b, ma, mb, mix_spec) < 1e-10

    def test_separation_swap_symmetry(self):
        rng = np.random.default_rng(24)
        a, b, mix_spec = rand_spec(rng), rand_spec(rng), rand_spec(rng)
        ma = ComplexMask(rng.normal(size=a.shape) + 0j)
        mb = ComplexMask(rng.normal(size=a.shape) + 0j)
        assert loss_separation(a, b, ma, mb, mix_spec) == pytest.approx(
            loss_separation(b, a, mb, ma, mix_spec)
        )

    def test_separation_matches_loop_oracle(self):
        rng = np.random.default_rng(25)
        a, b, mix_spec = (rand_spec(rng, frames=4) for _ in range(3))
        ma = ComplexMask(rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
        mb = ComplexMask(rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
        acc = 0.0
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                acc += abs(a.bins[i, j] - ma.bins[i, j] * mix_spec.bins[i, j]) ** 2
                acc += abs(b.bins[i, j] - mb.bins[i, j] * mix_spec.bins[i, j]) ** 2
        assert loss_separation(a, b, ma, mb, mix_spec) == pytest.approx(acc, abs=1e-9)

    def test_total_combination(self):
        assert loss_total(2.0, 3.0, 1.0) == 5.0
        assert loss_total(7.0, 100.0, 0.0) == 7.0
        assert loss_total(1.0, 2.0, 1.5) - loss_total(1.0, 2.0, 0.5) == pytest.approx(2.0)


class TestBinaryExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        spec = stft(mono(rng.normal(size=10080)))
        path = tmp_path / "s.spec"
        write_spectrogram(path, spec)
        assert path.read_bytes()[:4] == b"SPEC"
        assert path.stat().st_size == 16 + 257 * 64 * 8
        bins, sample_rate = read_spectrogram(path)
        assert sample_rate == SR
        np.testing.assert_array_equal(bins.real, spec.bins.real.astype(np.float32))
        np.testing.assert_array_equal(bins.imag, spec.bins.imag.astype(np.float32))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.spec"
        path.write_bytes(b"JUNK" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_spectrogram(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.spec"
        path.write_bytes(b"SPEC")
        with pytest.raises(ValueError):
            read_spectrogram(path)
