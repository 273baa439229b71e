"""Binaural evaluation metrics: STFT, ENV, Mag, SNR, and difference-phase distance.

All distances follow the sliding-window protocol (0.63 s window, 0.1 s
hop) by default; pass ``window_s=None`` for whole-signal variants.
Channel contributions are summed, window results averaged. The phase
distance is the mean absolute principal-value phase difference between
the left-right difference spectrograms, so its range is [0, pi] and the
phase of an exactly zero bin counts as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._kernels import phase_mean_abs
from .ambisonic import MonoSignal
from .binaural import BinauralSignal
from .spectral import DEFAULT_STFT, Spectrogram, StftConfig, stft

DEFAULT_WINDOW_S = 0.63
DEFAULT_HOP_S = 0.1
SNR_CAP_DB = 120.0


@dataclass
class MetricsReport:
    stft_dist: float
    env: float
    mag: float
    snr_db: float
    d_phase: float
    windows: int

    def to_dict(self, window_s: float | None = None, hop_s: float | None = None,
                cfg: StftConfig = DEFAULT_STFT) -> dict:
        return {
            "stft": self.stft_dist,
            "env": self.env,
            "mag": self.mag,
            "snr_db": self.snr_db,
            "d_phase": self.d_phase,
            "windows": self.windows,
            "config": {"window_s": window_s, "hop_s": hop_s, "stft": cfg.to_dict()},
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(**kwargs), indent=2, sort_keys=True)


def _check_pair(gt: BinauralSignal, pred: BinauralSignal) -> None:
    if gt.n_samples != pred.n_samples:
        raise ValueError(f"signal lengths differ: {gt.n_samples} vs {pred.n_samples}")
    if gt.sample_rate != pred.sample_rate:
        raise ValueError(f"sample rates differ: {gt.sample_rate} vs {pred.sample_rate}")


def _window_starts(n: int, sample_rate: int, window_s: float | None, hop_s: float):
    if window_s is None:
        return n, [0]
    win = int(round(window_s * sample_rate))
    hop = max(1, int(round(hop_s * sample_rate)))
    if win <= 0 or n < win:
        raise ValueError(
            f"signal of {n} samples is shorter than the {window_s} s window"
        )
    return win, list(range(0, n - win + 1, hop))


def _spec(x: np.ndarray, sample_rate: int, cfg: StftConfig) -> np.ndarray:
    return stft(MonoSignal(x, sample_rate), cfg).bins


def _l2(bins: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(bins) ** 2)))


def hilbert(x: np.ndarray) -> np.ndarray:
    """Analytic signal of a real 1-D array: x + i H{x}.

    Keeps the one-sided spectrum, doubling bins 1 .. ceil(n/2) - 1 (DC
    and, for even n, Nyquist stay single), and inverts at length n.
    """
    n = len(x)
    spec = np.fft.rfft(x)
    spec[1 : (n + 1) // 2] *= 2.0
    return np.fft.ifft(spec, n)


def _envelope(x: np.ndarray) -> np.ndarray:
    # magnitude of the analytic signal
    return np.abs(hilbert(x))


def _snr_db(gt_l, gt_r, pd_l, pd_r, cap_db: float) -> float | None:
    signal = np.sum(gt_l**2) + np.sum(gt_r**2)
    if signal == 0.0:
        return None
    noise = np.sum((gt_l - pd_l) ** 2) + np.sum((gt_r - pd_r) ** 2)
    if noise == 0.0:
        return cap_db
    return 10.0 * np.log10(signal / noise)


def stft_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    cfg: StftConfig = DEFAULT_STFT,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """Complex L2 spectrogram distance, both channels, averaged over windows."""
    _check_pair(gt, pred)
    win, starts = _window_starts(gt.n_samples, gt.sample_rate, window_s, hop_s)
    sr = gt.sample_rate
    vals = [
        _l2(_spec(gt.left[s : s + win], sr, cfg) - _spec(pred.left[s : s + win], sr, cfg))
        + _l2(_spec(gt.right[s : s + win], sr, cfg) - _spec(pred.right[s : s + win], sr, cfg))
        for s in starts
    ]
    return float(np.mean(vals))


def env_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """L2 distance between Hilbert envelopes, both channels, averaged over windows."""
    _check_pair(gt, pred)
    win, starts = _window_starts(gt.n_samples, gt.sample_rate, window_s, hop_s)
    vals = []
    for s in starts:
        d_l = _envelope(gt.left[s : s + win]) - _envelope(pred.left[s : s + win])
        d_r = _envelope(gt.right[s : s + win]) - _envelope(pred.right[s : s + win])
        vals.append(np.sqrt(np.sum(d_l**2)) + np.sqrt(np.sum(d_r**2)))
    return float(np.mean(vals))


def mag_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    cfg: StftConfig = DEFAULT_STFT,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """L2 distance between magnitude spectrograms, both channels, averaged."""
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


def snr(gt: BinauralSignal, pred: BinauralSignal, cap_db: float = SNR_CAP_DB) -> float:
    """Whole-signal 10 log10(signal/residual) over both channels, in dB."""
    _check_pair(gt, pred)
    value = _snr_db(gt.left, gt.right, pred.left, pred.right, cap_db)
    if value is None:
        raise ValueError("ground truth is identically zero; SNR is undefined")
    return float(value)


def d_phase(
    gt: BinauralSignal, pred_diff_spec: Spectrogram, cfg: StftConfig = DEFAULT_STFT
) -> float:
    """Mean |principal-value phase difference| between the ground-truth l-r
    spectrogram and a predicted difference spectrogram."""
    gt_diff = _spec(gt.left - gt.right, gt.sample_rate, cfg)
    if gt_diff.shape != pred_diff_spec.shape:
        raise ValueError(
            f"shape mismatch: gt diff {gt_diff.shape} vs prediction {pred_diff_spec.shape}"
        )
    return phase_mean_abs(gt_diff, pred_diff_spec.bins)


def evaluate(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
    cfg: StftConfig = DEFAULT_STFT,
    snr_cap_db: float = SNR_CAP_DB,
) -> MetricsReport:
    """Slide a window over the pair and average all five metrics.

    The phase distance compares each window's ground-truth l-r spectrogram
    with the prediction's own l-r spectrogram. Windows whose ground truth
    is completely silent are excluded from the SNR average only.
    """
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
        value = _snr_db(gl, gr, pl, pr, snr_cap_db)
        if value is not None:
            snr_vals.append(value)
        phase_vals.append(phase_mean_abs(_spec(gl - gr, sr, cfg), _spec(pl - pr, sr, cfg)))
    if not snr_vals:
        raise ValueError("ground truth is identically zero; SNR is undefined")
    return MetricsReport(
        stft_dist=float(np.mean(stft_vals)),
        env=float(np.mean(env_vals)),
        mag=float(np.mean(mag_vals)),
        snr_db=float(np.mean(snr_vals)),
        d_phase=float(np.mean(phase_vals)),
        windows=len(starts),
    )
