import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit.ambisonic import MonoSignal
from binauralkit.spectral import (
    DEFAULT_STFT,
    NOLA_TOL,
    ComplexMask,
    Spectrogram,
    StftConfig,
    _frames,
    _padded_window,
    _stft_bins,
    apply_mask,
    istft,
    loss_separation,
    loss_stereo,
    loss_total,
    mono_and_diff,
    oracle_mask,
    reconstruct_lr,
    stft,
)

SR = 16000


def mono(samples):
    return MonoSignal(samples, SR)


def rand_spec(rng, cfg=DEFAULT_STFT, frames=16):
    bins = rng.normal(size=(cfg.n_bins, frames)) + 1j * rng.normal(size=(cfg.n_bins, frames))
    return Spectrogram(bins, cfg)


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_STFT == StftConfig(SR)
        assert (DEFAULT_STFT.n_fft, DEFAULT_STFT.win_length, DEFAULT_STFT.hop) == (512, 400, 160)
        assert DEFAULT_STFT.n_bins == 257

    def test_window_is_periodic_hann(self):
        # bit-exact against the periodic Hann of scipy, 1-sample window included;
        # a rate of 40n - 20 Hz (50 Hz for n = 1) has an n-sample window
        get_window = pytest.importorskip("scipy.signal").get_window
        for n in range(1, 1025):
            cfg = StftConfig(max(50, 40 * n - 20))
            assert cfg.win_length == n
            off = (cfg.n_fft - n) // 2
            padded = _padded_window(cfg)
            expected = get_window("hann", n, fftbins=True)
            np.testing.assert_array_equal(padded[off : off + n], expected, err_msg=f"n={n}")
            assert not padded[:off].any() and not padded[off + n :].any()

    def test_window_is_centered_in_the_frame(self):
        get_window = pytest.importorskip("scipy.signal").get_window
        padded = _padded_window(DEFAULT_STFT)
        np.testing.assert_array_equal(padded[56:456], get_window("hann", 400, fftbins=True))
        assert not padded[:56].any() and not padded[456:].any()

    @pytest.mark.parametrize("rate", [True, 16000.5, float("nan")])
    def test_rejects_a_rate_that_is_not_a_whole_number(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be positive and whole"):
            StftConfig(rate)


class TestRule:
    @pytest.mark.parametrize("sr, n_fft, win, hop", [
        (8000, 256, 200, 80),
        (16000, 512, 400, 160),
        (22050, 1024, 551, 221),
        (44100, 2048, 1103, 441),  # 1102.5 rounds up
        (48000, 2048, 1200, 480),
        (192000, 8192, 4800, 1920),
        (1300, 64, 33, 13),
        (50, 1, 1, 1),
    ])
    def test_geometry_at_standard_rates(self, sr, n_fft, win, hop):
        cfg = StftConfig(sr)
        assert (cfg.sample_rate, cfg.n_fft, cfg.win_length, cfg.hop) == (sr, n_fft, win, hop)

    @pytest.mark.parametrize("sr", [np.int64(SR), np.int32(SR), float(SR)])
    def test_rate_of_another_numeric_type_gets_the_same_geometry(self, sr):
        # signals accept numpy and float rates; the geometry stays in Python ints
        cfg = StftConfig(sr)
        assert cfg == DEFAULT_STFT and hash(cfg) == hash(DEFAULT_STFT)
        assert type(cfg.sample_rate) is int
        assert all(type(v) is int for v in cfg.to_dict().values())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(50, 192000))
    def test_every_rate_passes_the_config_checks(self, sr):
        cfg = StftConfig(sr)
        assert abs(cfg.win_length - sr / 40) <= 0.5 and abs(cfg.hop - sr / 100) <= 0.5
        assert cfg.n_fft & (cfg.n_fft - 1) == 0  # a power of two
        assert cfg.n_fft // 2 < cfg.win_length <= cfg.n_fft  # the smallest that holds it
        assert cfg.hop <= cfg.win_length
        # overlap-add invertibility, which istft relies on: the squared window
        # summed at hop offsets stays bounded away from zero for every alignment
        w2 = _padded_window(cfg) ** 2
        cover = np.array([w2[r :: cfg.hop].sum() for r in range(cfg.hop)])
        assert cover.min() >= NOLA_TOL

    @pytest.mark.parametrize("sr, message", [
        pytest.param(49, "sample rate 49 Hz is too low for a 10 ms hop", id="49"),
        pytest.param(40, "sample rate 40 Hz is too low for a 10 ms hop", id="40"),
        pytest.param(1, "sample rate 1 Hz is too low for a 10 ms hop", id="1"),
        # the whole-number check runs first, and 0 Hz is no rate at all
        pytest.param(0, "sample_rate must be positive and whole, got 0", id="0"),
    ])
    def test_rate_below_50_hz_rejected_by_name(self, sr, message):
        with pytest.raises(ValueError, match=message):
            StftConfig(sr)


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
        get_window = pytest.importorskip("scipy.signal").get_window
        expected = get_window("hann", 400, fftbins=True).sum() / 2
        np.testing.assert_allclose(interior[k], expected, rtol=1e-2)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="399 samples is too short for the 400-sample "
                           "STFT window at 16000 Hz"):
            stft(mono(np.ones(399)))

    def test_8k_signal_gets_the_8k_geometry(self):
        spec = stft(MonoSignal(np.ones(4000), 8000))
        assert spec.config == StftConfig(8000)
        assert spec.shape == (129, 51)

    @pytest.mark.parametrize("sr", [50, 59, 60, 100, SR])
    @pytest.mark.parametrize("n", [150, 151, 400])
    def test_frame_count_is_the_transformed_count(self, sr, n):
        # below 60 Hz the FFT is 1 point long and the padding is empty
        cfg = StftConfig(sr)
        if n >= cfg.win_length:
            assert stft(MonoSignal(np.ones(n), sr)).shape[1] == cfg.frame_count(n)

    # the geometries of 16 kHz, 8 kHz and 1.3 kHz (64/33/13, an odd window)
    @pytest.mark.parametrize("cfg", [StftConfig(sr) for sr in (SR, 8000, 1300)])
    @pytest.mark.parametrize("shape", [(4, 10080), (2, 3, 4001), (1, 400)])
    def test_batched_core_equals_stft_per_row(self, cfg, shape):
        x = np.random.default_rng(shape[-1]).normal(size=shape)
        bins = _stft_bins(x, cfg.sample_rate)
        assert bins.shape == (*shape[:-1], cfg.n_bins, cfg.frame_count(shape[-1]))
        for idx in np.ndindex(*shape[:-1]):
            spec = stft(MonoSignal(x[idx], cfg.sample_rate))
            assert spec.config == cfg
            np.testing.assert_array_equal(bins[idx], spec.bins)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=4000), rng.normal(size=4000)
        combined = stft(mono(2.5 * x - 1.5 * y)).bins
        separate = 2.5 * stft(mono(x)).bins - 1.5 * stft(mono(y)).bins
        np.testing.assert_allclose(combined, separate, atol=1e-9)


def reflect_map(cfg, n):
    """The (frames, n_fft) sample indices that the centred STFT frames of an
    n-sample signal read, by arithmetic rather than through `np.pad`, which
    `stft` and `evaluate` share: frame t reads samples t*hop - n_fft//2 + j,
    reflected once at the signal's ends, which suffices because
    n_fft//2 < win_length <= n."""
    taps = np.arange(cfg.frame_count(n))[:, None] * cfg.hop - cfg.n_fft // 2 + np.arange(cfg.n_fft)
    return (n - 1) - np.abs(n - 1 - np.abs(taps))


class TestFrames:
    # 1.3 kHz has an odd 33-sample window; below 60 Hz the FFT is 1 point long
    @pytest.mark.parametrize("sr", [8000, SR, 22050, 44100, 1300, 50, 59])
    @pytest.mark.parametrize("length", ["win_length", "n_fft", "odd", "0.63 s"])
    def test_frames_read_the_reflect_map(self, sr, length):
        cfg = StftConfig(sr)
        n = {"win_length": cfg.win_length, "n_fft": cfg.n_fft,
             "odd": cfg.win_length + 2 * cfg.hop + 1 - cfg.win_length % 2,
             "0.63 s": int(round(0.63 * sr))}[length]
        taps = reflect_map(cfg, n)
        assert taps.shape == (cfg.frame_count(n), cfg.n_fft)
        np.testing.assert_array_equal(_frames(np.arange(n), cfg), taps)
        x = np.random.default_rng(n).normal(size=(2, 3, n))
        frames = _frames(x, cfg)
        assert not frames.flags.writeable
        np.testing.assert_array_equal(frames, x[..., taps])


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1000, 10080, 16000, 48000])
    def test_istft_inverts_stft(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        back = istft(stft(mono(x)))
        assert back.n_samples == n
        assert np.linalg.norm(back.samples - x) / np.linalg.norm(x) < 1e-6

    @pytest.mark.parametrize("sr", [8000, 22050, 44100, 48000])
    def test_istft_inverts_stft_at_any_rate(self, sr):
        x = np.random.default_rng(sr).normal(size=sr // 2)
        back = istft(stft(MonoSignal(x, sr)))
        assert back.sample_rate == sr and back.n_samples == x.size
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

    @pytest.mark.parametrize("n", [50000, 10, -5, 959, 1120])
    def test_source_length_must_give_its_frame_count(self, n):
        bins = rand_spec(np.random.default_rng(6), frames=7).bins
        with pytest.raises(ValueError) as info:
            Spectrogram(bins, DEFAULT_STFT, n_samples=n)
        assert str(info.value) == (
            f"n_samples {n} is not a length whose STFT has the spectrogram's 7 frames")
        for n in (960, 1119):  # 1 + n // 160 = 7
            assert istft(Spectrogram(bins, DEFAULT_STFT, n_samples=n)).n_samples == n


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

    def test_diff_at_another_rate_rejected(self):
        s_m, diff = MonoSignal(np.zeros(100), 16000), MonoSignal(np.zeros(100), 8000)
        with pytest.raises(ValueError, match="^sample rates differ: 16000 vs 8000$"):
            reconstruct_lr(s_m, diff)

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


class TestMixedRates:
    """44.1 and 48 kHz spectrograms of one shape: only their configs differ."""

    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(26)
        a, b = rand_spec(rng, StftConfig(44100), 4), rand_spec(rng, StftConfig(48000), 4)
        assert a.shape == b.shape == (1025, 4)
        return a, b

    def test_oracle_mask_rejects(self, pair):
        with pytest.raises(ValueError, match="44100 Hz .* vs 48000 Hz"):
            oracle_mask(*pair)

    def test_loss_stereo_rejects(self, pair):
        a, b = pair
        with pytest.raises(ValueError, match="44100 Hz .* vs 48000 Hz"):
            loss_stereo(a, ComplexMask(np.ones(a.shape)), b)

    def test_loss_separation_rejects(self, pair):
        a, b = pair
        ones = ComplexMask(np.ones(a.shape))
        with pytest.raises(ValueError, match="44100 Hz .* vs 48000 Hz"):
            loss_separation(a, a, ones, ones, b)


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
