"""The windowed-metrics engine against the per-metric window loops it replaced.

The oracle below is the earlier `evaluate`, `stft_distance`, `env_distance`
and `mag_distance`, each with its own window loop and one `stft` or
`hilbert` call per channel. The standalone STFT and magnitude distances
transform each window's channel rows as one batch, so they must equal the
loops bit for bit; the envelope comes from one real inverse FFT rather
than from `hilbert`, so the envelope distance must equal its loop to within
1e-12 relative. `evaluate` reads every frame of every window from one table of
distinct frames (an edge frame's reflect padding is an index map), so it
transforms each frame that reads no padding once for every window that
holds it, and adds up per-frame sums: every bin is the same, but the sums
run in another order, so its fields must equal the loops' to within 1e-12
relative, and its windows, config and error messages exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binauralkit import metrics
from binauralkit._kernels import phase_mean_abs
from binauralkit.ambisonic import MonoSignal
from binauralkit.binaural import BinauralSignal
from binauralkit.metrics import (
    MetricsReport,
    _check_pair,
    _snr_db,
    env_distance,
    evaluate,
    hilbert,
    mag_distance,
    snr,
    stft_distance,
)
from binauralkit.spectral import DEFAULT_STFT, StftConfig, _stft_bins, stft

SR = 16000
REL = 1e-12  # evaluate against the loops: the same bins, summed in another order
METRIC_FIELDS = ("stft_dist", "env", "mag", "snr_db", "d_phase")


# --- oracle: the loops as they were before the engine ---------------------

def _window_starts(n, sample_rate, window_s, hop_s):
    if window_s is None:
        return n, [0]
    win = int(round(window_s * sample_rate))
    hop = max(1, int(round(hop_s * sample_rate)))
    if win <= 0 or n < win:
        raise ValueError(f"signal of {n} samples is shorter than the {window_s} s window")
    return win, list(range(0, n - win + 1, hop))


def _spec(x, sample_rate, cfg):
    spec = stft(MonoSignal(x, sample_rate))
    assert spec.config == cfg
    return spec.bins


def _l2(bins):
    return float(np.sqrt(np.sum(np.abs(bins) ** 2)))


def _envelope(x):
    return np.abs(hilbert(x))


def oracle_stft_distance(gt, pred, cfg=DEFAULT_STFT, window_s=0.63, hop_s=0.1):
    _check_pair(gt, pred)
    win, starts = _window_starts(gt.n_samples, gt.sample_rate, window_s, hop_s)
    sr = gt.sample_rate
    vals = [
        _l2(_spec(gt.left[s : s + win], sr, cfg) - _spec(pred.left[s : s + win], sr, cfg))
        + _l2(_spec(gt.right[s : s + win], sr, cfg) - _spec(pred.right[s : s + win], sr, cfg))
        for s in starts
    ]
    return float(np.mean(vals))


def oracle_env_distance(gt, pred, window_s=0.63, hop_s=0.1):
    _check_pair(gt, pred)
    win, starts = _window_starts(gt.n_samples, gt.sample_rate, window_s, hop_s)
    vals = []
    for s in starts:
        d_l = _envelope(gt.left[s : s + win]) - _envelope(pred.left[s : s + win])
        d_r = _envelope(gt.right[s : s + win]) - _envelope(pred.right[s : s + win])
        vals.append(np.sqrt(np.sum(d_l**2)) + np.sqrt(np.sum(d_r**2)))
    return float(np.mean(vals))


def oracle_mag_distance(gt, pred, cfg=DEFAULT_STFT, window_s=0.63, hop_s=0.1):
    _check_pair(gt, pred)
    win, starts = _window_starts(gt.n_samples, gt.sample_rate, window_s, hop_s)
    sr = gt.sample_rate
    vals = []
    for s in starts:
        d_l = np.abs(_spec(gt.left[s : s + win], sr, cfg)) - np.abs(
            _spec(pred.left[s : s + win], sr, cfg)
        )
        d_r = np.abs(_spec(gt.right[s : s + win], sr, cfg)) - np.abs(
            _spec(pred.right[s : s + win], sr, cfg)
        )
        vals.append(_l2(d_l) + _l2(d_r))
    return float(np.mean(vals))


def oracle_evaluate(gt, pred, window_s=0.63, hop_s=0.1, cfg=DEFAULT_STFT):
    _check_pair(gt, pred)
    win, starts = _window_starts(gt.n_samples, gt.sample_rate, window_s, hop_s)
    sr = gt.sample_rate
    stft_vals, env_vals, mag_vals, snr_vals, phase_vals = [], [], [], [], []
    for s in starts:
        gl, gr = gt.left[s : s + win], gt.right[s : s + win]
        pl, pr = pred.left[s : s + win], pred.right[s : s + win]
        sgl, sgr = _spec(gl, sr, cfg), _spec(gr, sr, cfg)
        spl, spr = _spec(pl, sr, cfg), _spec(pr, sr, cfg)
        stft_vals.append(_l2(sgl - spl) + _l2(sgr - spr))
        mag_vals.append(_l2(np.abs(sgl) - np.abs(spl)) + _l2(np.abs(sgr) - np.abs(spr)))
        env_vals.append(
            np.sqrt(np.sum((_envelope(gl) - _envelope(pl)) ** 2))
            + np.sqrt(np.sum((_envelope(gr) - _envelope(pr)) ** 2))
        )
        value = _snr_db(gl, gr, pl, pr)
        if value is not None:
            snr_vals.append(value)
        phase_vals.append(phase_mean_abs(_spec(gl - gr, sr, cfg), _spec(pl - pr, sr, cfg)))
    if not snr_vals:
        raise ValueError("ground truth is silent in every window; SNR is undefined")
    return MetricsReport(
        stft_dist=float(np.mean(stft_vals)),
        env=float(np.mean(env_vals)),
        mag=float(np.mean(mag_vals)),
        snr_db=float(np.mean(snr_vals)),
        d_phase=float(np.mean(phase_vals)),
        windows=len(starts),
        window_s=window_s,
        hop_s=None if window_s is None else hop_s,
        stft_config=cfg,
    )


# --- equivalence -----------------------------------------------------------

def outcome(fn, *args, **kwargs):
    """The value, or the ValueError message, so that both sides can raise."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_report(got, want):
    """Equal error messages, or reports whose metrics agree to REL relative
    and whose windows and config are equal."""
    if not isinstance(want, MetricsReport):
        assert got == want
        return
    assert isinstance(got, MetricsReport), got
    for name in METRIC_FIELDS:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=REL, abs=0), name
    assert got.to_dict()["config"] == want.to_dict()["config"]
    assert (got.windows, got.stft_config) == (want.windows, want.stft_config)


@st.composite
def pairs(draw):
    """A (gt, pred, cfg, window_s, hop_s) case at 8, 16, 22.05 or 44.1 kHz,
    cfg being the STFT geometry of the rate: lengths at least one window,
    window hops on and off the STFT's hop grid, windows shorter than n_fft
    (no frame of theirs is free of the reflect padding), channels that may be
    equal (zero l-r spectra) and a ground truth whose first window may be
    silent."""
    sr = draw(st.sampled_from([SR, 8000, 22050, 44100]))
    cfg = StftConfig(sr)
    shortest = max(cfg.win_length, cfg.n_fft // 2 + 1)
    kind = draw(st.sampled_from(["whole signal", "windows", "windows shorter than n_fft"]))
    if kind == "whole signal":
        window_s, hop_s = None, 0.1
        n = draw(st.integers(shortest, 12000))
    else:
        longest = 10080 if kind == "windows" else cfg.n_fft - 1
        win = draw(st.integers(shortest, longest))
        off_grid = st.integers(1, 4000).filter(lambda h: h % cfg.hop != 0)
        on_grid = st.integers(1, 4000 // cfg.hop).map(lambda k: k * cfg.hop)
        hop = draw(off_grid | on_grid)
        window_s, hop_s = win / sr, hop / sr
        n = win + draw(st.integers(0, 4 * hop))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    gt = rng.normal(size=(2, n)) * scale
    kind = draw(st.sampled_from(["independent", "perturbed", "identical"]))
    if kind == "independent":
        pred = rng.normal(size=(2, n)) * scale
    elif kind == "perturbed":
        pred = gt + 0.1 * scale * rng.normal(size=(2, n))
    else:
        pred = gt.copy()
    equal_lr = draw(st.sampled_from(["none", "gt", "pred", "both"]))
    if equal_lr in ("gt", "both"):
        gt[1] = gt[0]
    if equal_lr in ("pred", "both"):
        pred[1] = pred[0]
    if draw(st.booleans()):
        silent = n if window_s is None else int(round(window_s * sr))
        gt[:, :silent] = 0.0
    return (
        BinauralSignal(gt[0], gt[1], sr),
        BinauralSignal(pred[0], pred[1], sr),
        cfg,
        window_s,
        hop_s,
    )


def noise_case(seed, n, window_s, hop_s, sr=SR):
    rng = np.random.default_rng(seed)
    gt = BinauralSignal(rng.normal(size=n), rng.normal(size=n), sr)
    pred = BinauralSignal(rng.normal(size=n), rng.normal(size=n), sr)
    return gt, pred, StftConfig(sr), window_s, hop_s


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(pairs())
    @example(noise_case(1, 2 * SR, 0.63, 0.1))
    @example(noise_case(2, 2 * SR, 0.63, 0.0371))
    @example(noise_case(3, 2 * SR, 0.63, 0.25))
    @example(noise_case(4, SR, None, 0.1))
    # a 0.1 s window hop is 2205 samples, off the 221-sample STFT hop grid
    @example(noise_case(9, 22050, 0.63, 0.1, sr=22050))
    @example(noise_case(10, 44100, 0.63, 0.1, sr=44100))
    # 0.03 s is 480 samples, shorter than the 512-sample frame: no shared frame
    @example(noise_case(11, SR, 0.03, 0.01))
    @example(noise_case(12, 150, 0.63, 0.1, sr=50))  # a 1-point FFT, every frame shared
    def test_bitwise_equal_to_the_loops(self, case):
        gt, pred, cfg, window_s, hop_s = case
        windows = dict(window_s=window_s, hop_s=hop_s)
        report = outcome(evaluate, gt, pred, **windows)
        standalone = (
            stft_distance(gt, pred, **windows),
            env_distance(gt, pred, **windows),
            mag_distance(gt, pred, **windows),
        )
        assert (standalone[0], standalone[2]) == (
            oracle_stft_distance(gt, pred, cfg, **windows),
            oracle_mag_distance(gt, pred, cfg, **windows),
        )
        # the envelope comes from one real inverse FFT, the oracle's from `hilbert`
        assert standalone[1] == pytest.approx(
            oracle_env_distance(gt, pred, **windows), rel=REL, abs=0)
        assert_same_report(report, outcome(oracle_evaluate, gt, pred, cfg=cfg, **windows))
        if isinstance(report, MetricsReport):
            # the standalone functions are the report's own terms
            assert standalone == pytest.approx(
                (report.stft_dist, report.env, report.mag), rel=REL, abs=0)


ENVELOPE_ULPS = 32  # of the row peak; up to 15 measured, at 27783 samples


class TestEnvelope:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 512, 777, 4096, 10080, 10081, 27783])
        | st.integers(1, 30000),
        scales=st.lists(st.sampled_from([1e-300, 1e-200, 1e-150, 1e-140, 1e-3, 1.0, 1e3, 1e150]),
                        min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    # rows on both sides of the 2**-480 (3.2e-145) peak, and rows whose squares overflow
    @example(n=10080, scales=[1e-300, 1.0, 1e200, 0.0], seed=1)
    @example(n=27783, scales=[1e-146, 1e-144, 1e154, 1e300], seed=2)
    def test_equals_the_analytic_signal_magnitude(self, n, scales, seed):
        x = np.random.default_rng(seed).normal(size=(4, n)) * np.array(scales)[:, None]
        got, want = metrics._envelope(x), np.abs(hilbert(x))
        assert got.shape == want.shape
        peak = np.max(want, axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= ENVELOPE_ULPS * np.spacing(peak))


# --- behaviour the engine keeps or adds ----------------------------------

class TestChecks:
    @pytest.mark.parametrize("metric", [evaluate, stft_distance, mag_distance])
    def test_overflowing_spectra_rejected(self, metric):
        # finite samples whose spectra overflow to inf
        x = np.full(SR, 1e308)
        x[::2] = -1e308
        gt = BinauralSignal(x, x, SR)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite bins"):
            metric(gt, gt)

    def test_overflowing_envelope_rejected(self):
        # finite samples whose analytic signal overflows; there is no STFT to catch it
        x = np.full(SR, 1e308)
        x[::2] = -1e308
        gt = BinauralSignal(x, x, SR)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="envelope contains non-finite"):
            env_distance(gt, gt)

    @pytest.mark.parametrize("metric, raises_at", [
        (evaluate, {1e152: "stft", 1e154: "stft"}),
        (stft_distance, {1e152: "stft", 1e154: "stft"}),
        (env_distance, {1e154: "env"}),  # its squares overflow later than the spectra's
        (mag_distance, {1e152: "mag", 1e154: "mag"}),
        (snr, {1e154: "snr_db"}),
    ], ids=["evaluate", "stft_distance", "env_distance", "mag_distance", "snr"])
    def test_a_distance_that_overflows_is_named(self, metric, raises_at):
        # finite samples whose metric overflows to inf or nan, which a JSON
        # report could not hold
        rng = np.random.default_rng(16)
        gt, pred = rng.normal(size=(2, 2, SR))
        unit = np.max(np.abs((gt, pred)))
        for peak in (1e150, 1e152, 1e154):
            pair = (BinauralSignal(*(gt * (peak / unit)), SR),
                    BinauralSignal(*(pred * (peak / unit)), SR))
            with np.errstate(all="ignore"):
                if peak in raises_at:
                    with pytest.raises(ValueError, match=f"^{raises_at[peak]} is (inf|nan): "):
                        metric(*pair)
                else:
                    got = metric(*pair)
                    values = got.to_dict() if isinstance(got, MetricsReport) else {"v": got}
                    assert all(math.isfinite(v) for v in values.values() if isinstance(v, float))

    def test_a_large_identical_pair_scores_zero(self):
        # the squares overflow, but the distances are exact zeros
        gt, *_ = noise_case(17, SR, 0.63, 0.1)
        big = BinauralSignal(*(gt.data * 1e200), SR)
        with np.errstate(all="ignore"):
            report = evaluate(big, big)
        assert (report.stft_dist, report.env, report.mag, report.d_phase) == (0.0, 0.0, 0.0, 0.0)

    def test_env_distance_at_any_sample_rate(self):
        rng = np.random.default_rng(5)
        sr = 8000
        gt = BinauralSignal(rng.normal(size=sr), rng.normal(size=sr), sr)
        pred = BinauralSignal(rng.normal(size=sr), rng.normal(size=sr), sr)
        assert env_distance(gt, gt) == 0.0
        assert env_distance(gt, pred) == oracle_env_distance(gt, pred)

    def test_stft_metrics_at_8k_equal_the_loops(self):
        # the loops at the 8 kHz geometry (256/200/80), which the engine reads
        # from the pair's rate
        rng = np.random.default_rng(6)
        sr, cfg = 8000, StftConfig(8000)
        gt = BinauralSignal(rng.normal(size=sr), rng.normal(size=sr), sr)
        pred = BinauralSignal(rng.normal(size=sr), rng.normal(size=sr), sr)
        assert stft_distance(gt, pred) == oracle_stft_distance(gt, pred, cfg)
        assert mag_distance(gt, pred) == oracle_mag_distance(gt, pred, cfg)
        assert_same_report(evaluate(gt, pred), oracle_evaluate(gt, pred, cfg=cfg))
        assert (cfg.n_fft, cfg.win_length, cfg.hop) == (256, 200, 80)

    @pytest.mark.parametrize("burst, seen_by", [
        (slice(800, 864), range(2, 62)),  # inside the first window's shared frames 4-6
        (slice(0, 64), range(0, 2)),  # only the first window's leading edge frames
    ], ids=["shared frame", "edge frame"])
    def test_a_non_finite_bin_in_one_frame_is_rejected(self, burst, seen_by):
        # finite samples whose spectra overflow in a few frames of the first
        # window; every later window starts past the burst, at 1600 or beyond
        rng = np.random.default_rng(13)
        gt = rng.normal(size=(2, 2 * SR))
        gt[0, burst] = 1e308
        gt[0, burst][1::2] = -1e308
        pair = BinauralSignal(*gt, SR), BinauralSignal(*rng.normal(size=(2, 2 * SR)), SR)
        with np.errstate(all="ignore"):
            first = _stft_bins(gt[:, : int(0.63 * SR)], SR)
            bad = np.flatnonzero(~np.isfinite(first).all(axis=(0, 1)))
            assert len(bad) and set(bad) <= set(seen_by)
            assert (outcome(evaluate, *pair) == outcome(oracle_evaluate, *pair)
                    == ("ValueError", "spectrogram contains non-finite bins"))

    @pytest.mark.parametrize(
        "window_s, hop_s, name, value",
        [
            (0.63, -0.1, "hop_s", "-0.1"),
            (0.63, 0.0, "hop_s", "0.0"),
            (0.63, 1e-5, "hop_s", "1e-05"),
            (0.63, math.inf, "hop_s", "inf"),
            (0.0, 0.1, "window_s", "0.0"),
            (-0.63, 0.1, "window_s", "-0.63"),
            (1e-5, 0.1, "window_s", "1e-05"),
            (math.nan, 0.1, "window_s", "nan"),
            (1e308, 0.1, "window_s", r"1e\+308"),  # an infinite sample count
            (0.63, 1e308, "hop_s", r"1e\+308"),
        ],
    )
    @pytest.mark.parametrize("metric", [evaluate, stft_distance, env_distance, mag_distance])
    def test_window_parameters_rejected(self, metric, window_s, hop_s, name, value):
        rng = np.random.default_rng(7)
        gt = BinauralSignal(rng.normal(size=SR), rng.normal(size=SR), SR)
        with pytest.raises(ValueError, match=f"{name} must be positive.*got {value}$"):
            metric(gt, gt, window_s=window_s, hop_s=hop_s)

    @pytest.mark.parametrize("metric", [evaluate, stft_distance, mag_distance])
    def test_a_window_shorter_than_the_stft_window_is_named(self, metric):
        rng = np.random.default_rng(18)
        gt = BinauralSignal(*rng.normal(size=(2, SR)), SR)
        with pytest.raises(ValueError, match="^window_s 0.005 spans 80 samples, fewer than "
                           "the 400-sample STFT window at 16000 Hz$"):
            metric(gt, gt, window_s=0.005)

    def test_env_distance_takes_a_window_shorter_than_the_stft_window(self):
        gt, pred, *_ = noise_case(19, SR, 0.005, 0.1)
        assert env_distance(gt, pred, window_s=0.005) == oracle_env_distance(
            gt, pred, window_s=0.005) > 0

    @pytest.mark.parametrize("metric", [evaluate, stft_distance, mag_distance])
    def test_a_whole_signal_shorter_than_the_stft_window_is_named(self, metric):
        gt = BinauralSignal(*np.ones((2, 399)), SR)
        with pytest.raises(ValueError, match="^signal of 399 samples is too short for the "
                           "400-sample STFT window at 16000 Hz$"):
            metric(gt, gt, window_s=None)

    def test_ground_truth_silent_in_every_window(self):
        # it sounds only after the last window's end, sample 4800 + 10080
        gt = np.zeros((2, SR))
        gt[:, 15000:] = np.random.default_rng(20).normal(size=(2, SR - 15000))
        pair = BinauralSignal(*gt, SR), BinauralSignal(*np.ones((2, SR)), SR)
        with pytest.raises(metrics.SilentGroundTruthError,
                           match="^ground truth is silent in every window; SNR is undefined$"):
            evaluate(*pair)
        assert snr(*pair) < 0  # the whole signal is not silent
        with pytest.raises(metrics.SilentGroundTruthError, match="^ground truth is identically zero"):
            snr(BinauralSignal(*np.zeros((2, SR)), SR), pair[1])

    def test_whole_signal_ignores_hop(self):
        gt, pred, *_ = noise_case(8, 4000, None, 0.1)
        assert evaluate(gt, pred, window_s=None, hop_s=-1.0).windows == 1


def distinct_tap_rows(n, sample_rate, window_s, hop_s):
    """How many distinct rows of n_fft pair indices the windows' STFT frames
    read, found by reflect-padding each window's own indices."""
    cfg = StftConfig(sample_rate)
    win, starts = _window_starts(n, sample_rate, window_s, hop_s)
    rows = set()
    for s in starts:
        padded = np.pad(np.arange(s, s + win), cfg.n_fft // 2, mode="reflect")
        for t in range(cfg.frame_count(win)):
            rows.add(tuple(padded[t * cfg.hop : t * cfg.hop + cfg.n_fft]))
    return len(rows)


class TestFrameTable:
    @pytest.mark.parametrize("sr, n, window_s, hop_s", [
        (SR, 2 * SR, 0.63, 0.1),  # a window hop on the STFT hop grid
        (SR, 2 * SR, 0.63, 0.0371),  # 594 samples, off the 160-sample grid
        (22050, 2 * 22050, 0.63, 0.1),  # 2205 samples, off the 221-sample grid
        (SR, SR, 0.03, 0.01),  # 480 samples, under the 512-sample frame: all edge frames
        (SR, SR, None, 0.1),
        (50, 150, 0.63, 0.1),  # a 1-point FFT: no edge frame
    ])
    def test_each_distinct_frame_is_transformed_once(self, monkeypatch, sr, n, window_s, hop_s):
        gt, pred, *_ = noise_case(15, n, window_s, hop_s, sr=sr)
        expected = evaluate(gt, pred, window_s=window_s, hop_s=hop_s)
        frame_sums, transformed = metrics._frame_sums, []

        def counting(gt, pred, cfg, at):
            transformed.append(math.prod(at.shape[:-1]))
            return frame_sums(gt, pred, cfg, at)

        monkeypatch.setattr(metrics, "_frame_sums", counting)
        assert evaluate(gt, pred, window_s=window_s, hop_s=hop_s) == expected
        assert sum(transformed) == distinct_tap_rows(n, sr, window_s, hop_s)


class TestMemory:
    def test_peak_does_not_grow_with_the_pair(self):
        # the shared frames go through in fixed-size chunks: a 60 s pair
        # needs no more working memory than a 10 s one
        rng = np.random.default_rng(14)
        peaks = {}
        for seconds in (1, 10, 60):  # the 1 s pair fills the caches a first call fills
            gt, pred = (BinauralSignal(*rng.normal(size=(2, seconds * SR)), SR) for _ in range(2))
            tracemalloc.start()
            try:
                evaluate(gt, pred)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[60] - peaks[10] < 2**20, peaks
        assert peaks[60] < 16 * 2**20, peaks
