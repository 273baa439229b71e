"""Binaural evaluation metrics: STFT, ENV, Mag, SNR, and difference-phase distance.

All distances follow the sliding-window protocol (0.63 s window, 0.1 s
hop) by default; pass ``window_s=None`` for whole-signal variants.
Channel contributions are summed, window results averaged. The STFT
follows the pair's rate (`spectral.StftConfig(rate)`); only 16 kHz figures
match the paper's protocol. The phase distance is the mean absolute
principal-value phase difference between the l-r spectrograms, so its
range is [0, pi] and the phase of an exactly zero bin counts as 0.

`evaluate` transforms each STFT frame once. A window frame that reads no
reflect padding (an inner frame) is the raw samples at its centre, so
windows whose starts agree modulo the STFT hop share it: its FFT, and its
partial sums over the bins, serve every window that holds it. Each window
transforms only its few edge frames itself, and keeps its own Hilbert
envelopes and SNR. Only the order of the sums differs from the standalone
distances, which stay the per-window definition: each agrees with its
`evaluate` field to within 1e-12 relative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._kernels import abs_phase_diff, phase_mean_abs
from .ambisonic import seconds_to_samples
from .binaural import BinauralSignal
from .spectral import (
    Spectrogram,
    StftConfig,
    _check_same_config,
    _padded_window,
    _stft_bins,
)

DEFAULT_WINDOW_S = 0.63
DEFAULT_HOP_S = 0.1
SNR_CAP_DB = 120.0
_CHUNK_FRAMES = 64  # inner frames transformed per batch; bounds the temporaries


@dataclass
class MetricsReport:
    """The five window-averaged metrics and the window, hop and STFT behind them."""

    stft_dist: float
    env: float
    mag: float
    snr_db: float
    d_phase: float
    windows: int
    window_s: float | None
    hop_s: float | None
    stft_config: StftConfig

    def to_dict(self) -> dict:
        return {
            "stft": self.stft_dist,
            "env": self.env,
            "mag": self.mag,
            "snr_db": self.snr_db,
            "d_phase": self.d_phase,
            "windows": self.windows,
            "config": {
                "window_s": self.window_s, "hop_s": self.hop_s, "stft": self.stft_config.to_dict()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _check_pair(gt: BinauralSignal, pred: BinauralSignal) -> None:
    if gt.n_samples != pred.n_samples:
        raise ValueError(f"signal lengths differ: {gt.n_samples} vs {pred.n_samples}")
    if gt.sample_rate != pred.sample_rate:
        raise ValueError(f"sample rates differ: {gt.sample_rate} vs {pred.sample_rate}")


def _window_starts(gt: BinauralSignal, pred: BinauralSignal, window_s: float | None,
                   hop_s: float) -> tuple[int, range]:
    """Check the pair and the window parameters, then return the window
    length in samples and the window starts."""
    _check_pair(gt, pred)
    n = gt.n_samples
    if window_s is None:
        win, hop = n, 1  # one window
    else:
        win = seconds_to_samples(window_s, gt.sample_rate, "window_s")
        hop = seconds_to_samples(hop_s, gt.sample_rate, "hop_s")
        if n < win:
            raise ValueError(f"signal of {n} samples is shorter than the {window_s} s window")
    return win, range(0, n - win + 1, hop)


def _block(gt: BinauralSignal, pred: BinauralSignal, start: int, win: int) -> np.ndarray:
    """The (4, win) block of gt l, gt r, pred l and pred r at `start`."""
    return np.concatenate((gt.data[:, start : start + win], pred.data[:, start : start + win]))


def _windows(gt: BinauralSignal, pred: BinauralSignal, window_s: float | None, hop_s: float):
    """Check the pair and the window parameters, then return an iterator over
    the windows' `_block`s."""
    win, starts = _window_starts(gt, pred, window_s, hop_s)
    return (_block(gt, pred, s, win) for s in starts)


def _spectra(rows: np.ndarray, sample_rate: int) -> np.ndarray:
    """`stft` bins of each row, with the finiteness check of `Spectrogram`."""
    bins = _stft_bins(rows, sample_rate)
    if not np.all(np.isfinite(bins)):
        raise ValueError("spectrogram contains non-finite bins")
    return bins


def _l2(bins: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(bins) ** 2)))


def _stft_term(x: np.ndarray) -> float:
    """L2 distance of gt rows 0, 1 (l, r) from prediction rows 2, 3, summed
    over the channels; the mag and env terms apply it to other features."""
    return _l2(x[0] - x[2]) + _l2(x[1] - x[3])


def _mag_term(spec: np.ndarray) -> float:
    return _stft_term(np.abs(spec))


def _env_term(block: np.ndarray) -> float:
    envelope = np.abs(hilbert(block))  # magnitude of the analytic signal
    if not np.all(np.isfinite(envelope)):
        raise ValueError("envelope contains non-finite values")
    return _stft_term(envelope)


def hilbert(x: np.ndarray) -> np.ndarray:
    """Analytic signal x + i H{x} of a real array, along its last axis.

    Keeps the one-sided spectrum, doubling bins 1 .. ceil(n/2) - 1 (DC
    and, for even n, Nyquist stay single), and inverts at length n.
    """
    n = np.shape(x)[-1]
    spec = np.fft.rfft(x, axis=-1)
    spec[..., 1 : (n + 1) // 2] *= 2.0
    return np.fft.ifft(spec, n, axis=-1)


def _snr_db(gt_l, gt_r, pd_l, pd_r) -> float | None:
    signal = np.sum(gt_l**2) + np.sum(gt_r**2)
    if signal == 0.0:
        return None
    noise = np.sum((gt_l - pd_l) ** 2) + np.sum((gt_r - pd_r) ** 2)
    if noise == 0.0:
        return SNR_CAP_DB
    return 10.0 * np.log10(signal / noise)


def stft_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """Complex L2 spectrogram distance, both channels, averaged over windows."""
    blocks = _windows(gt, pred, window_s, hop_s)
    return float(np.mean([_stft_term(_spectra(b, gt.sample_rate)) for b in blocks]))


def env_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """L2 distance between Hilbert envelopes, both channels, averaged over windows."""
    blocks = _windows(gt, pred, window_s, hop_s)
    return float(np.mean([_env_term(b) for b in blocks]))


def mag_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """L2 distance between magnitude spectrograms, both channels, averaged."""
    blocks = _windows(gt, pred, window_s, hop_s)
    return float(np.mean([_mag_term(_spectra(b, gt.sample_rate)) for b in blocks]))


def snr(gt: BinauralSignal, pred: BinauralSignal) -> float:
    """Whole-signal 10 log10(signal/residual) over both channels, in dB,
    SNR_CAP_DB on a zero residual."""
    _check_pair(gt, pred)
    value = _snr_db(gt.left, gt.right, pred.left, pred.right)
    if value is None:
        raise ValueError("ground truth is identically zero; SNR is undefined")
    return float(value)


def d_phase(gt: BinauralSignal, pred_diff_spec: Spectrogram) -> float:
    """Mean |principal-value phase difference| between a predicted l-r
    spectrogram and the ground truth's, which must share its sample rate."""
    _check_same_config(StftConfig(gt.sample_rate), pred_diff_spec.config)
    gt_diff = _spectra(gt.left - gt.right, gt.sample_rate)
    if gt_diff.shape != pred_diff_spec.shape:
        raise ValueError(
            f"shape mismatch: gt diff {gt_diff.shape} vs prediction {pred_diff_spec.shape}"
        )
    return phase_mean_abs(gt_diff, pred_diff_spec.bins)


def _inner_frames(cfg: StftConfig, win: int) -> range:
    """The frames of a `win`-sample window that read no reflect padding:
    frame t reads samples t*hop - n_fft//2 onwards, n_fft of them."""
    pad = cfg.n_fft // 2
    first = -(-pad // cfg.hop)
    end = (win - cfg.n_fft + pad) // cfg.hop + 1
    return range(first, max(first, end))


def _frame_sums(bins: np.ndarray) -> np.ndarray:
    """Reduce a (6, frames, n_bins) block of gt l, gt r, pred l, pred r,
    gt l-r and pred l-r bins to five sums per frame, shaped (frames, 5):
    |G - P|^2 of l and of r, (|G| - |P|)^2 of l and of r, and the
    |wrapped phase difference| of the l-r bins."""
    mag = np.abs(bins[:4])
    return np.column_stack((
        *np.sum(np.abs(bins[:2] - bins[2:4]) ** 2, axis=-1),
        *np.sum((mag[:2] - mag[2:]) ** 2, axis=-1),
        np.sum(abs_phase_diff(bins[4], bins[5]), axis=-1),
    ))


def _shared_sums(gt: BinauralSignal, pred: BinauralSignal, cfg: StftConfig,
                 starts: range, inner: range) -> tuple[np.ndarray, np.ndarray]:
    """The `_frame_sums` of each window's inner frames, added up per window,
    and whether all those frames' bins are finite; shaped (windows, 5) and
    (windows,).

    Windows whose starts agree modulo the STFT hop read their inner frames
    off one frame grid, so each grid frame is transformed once for all of
    them, `_CHUNK_FRAMES` frames at a time, straight from the signals. Its
    l-r frames are the difference of its l and r frames, which are the
    very values a window's own l-r transform reads.
    """
    starts = np.asarray(starts)
    sums = np.zeros((len(starts), 5))
    finite = np.ones(len(starts), dtype=bool)
    if not inner:
        return sums, finite
    pad, window = cfg.n_fft // 2, _padded_window(cfg)
    views = [np.lib.stride_tricks.sliding_window_view(s.data, cfg.n_fft, axis=-1)
             for s in (gt, pred)]
    offsets = starts % cfg.hop
    for offset in np.unique(offsets):
        group = np.flatnonzero(offsets == offset)
        # frame t of the window at s is grid frame k = s // hop + t, which
        # reads n_fft samples from offset - pad + k * hop
        first = starts[group] // cfg.hop + inner.start
        grid = np.unique(first[:, None] + np.arange(len(inner)))
        grid_sums = np.empty((len(grid), 5))
        grid_finite = np.empty(len(grid), dtype=bool)
        for a in range(0, len(grid), _CHUNK_FRAMES):
            at = offset - pad + grid[a : a + _CHUNK_FRAMES] * cfg.hop
            raw = np.empty((6, len(at), cfg.n_fft))
            raw[:2] = views[0][:, at]
            raw[2:4] = views[1][:, at]
            np.subtract(raw[0:4:2], raw[1:4:2], out=raw[4:])
            raw *= window
            bins = np.fft.rfft(raw, axis=-1)
            grid_finite[a : a + len(at)] = np.isfinite(bins).all(axis=(0, 2))
            grid_sums[a : a + len(at)] = _frame_sums(bins)
        for w, i in zip(group, np.searchsorted(grid, first)):
            sums[w] = grid_sums[i : i + len(inner)].sum(axis=0)
            finite[w] = grid_finite[i : i + len(inner)].all()
    return sums, finite


def evaluate(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> MetricsReport:
    """Slide a window over the pair and average all five metrics.

    The phase distance compares each window's ground-truth l-r spectrogram
    with the prediction's own l-r spectrogram. Windows whose ground truth
    is completely silent are excluded from the SNR average only. Inner
    frames come from `_shared_sums`; each window transforms its edge
    frames, and checks them and its envelopes, in window order.
    """
    win, starts = _window_starts(gt, pred, window_s, hop_s)
    sr = gt.sample_rate
    cfg = StftConfig(sr)
    frames = cfg.frame_count(win)
    inner = _inner_frames(cfg, win)
    edge = np.r_[0 : inner.start, inner.stop : frames]
    shared, shared_finite = _shared_sums(gt, pred, cfg, starts, inner)
    terms = []
    for start, inner_sums, inner_finite in zip(starts, shared, shared_finite):
        block = _block(gt, pred, start, win)
        # the l-r rows get their own transform: STFT(l) - STFT(r) rounds
        # differently, and the phase of near-zero bins is discontinuous
        rows = np.concatenate((block, block[0::2] - block[1::2]))
        edge_bins = np.swapaxes(_stft_bins(rows, sr, edge), -1, -2)
        if not (inner_finite and np.all(np.isfinite(edge_bins))):
            raise ValueError("spectrogram contains non-finite bins")
        sums = inner_sums + _frame_sums(edge_bins).sum(axis=0)
        terms.append((
            np.sqrt(sums[0]) + np.sqrt(sums[1]), _env_term(block),
            np.sqrt(sums[2]) + np.sqrt(sums[3]), _snr_db(*block),
            sums[4] / (cfg.n_bins * frames),
        ))
    stft_vals, env_vals, mag_vals, snr_vals, phase_vals = zip(*terms)
    snr_vals = [v for v in snr_vals if v is not None]  # silent ground truth
    if not snr_vals:
        raise ValueError("ground truth is identically zero; SNR is undefined")
    return MetricsReport(
        stft_dist=float(np.mean(stft_vals)),
        env=float(np.mean(env_vals)),
        mag=float(np.mean(mag_vals)),
        snr_db=float(np.mean(snr_vals)),
        d_phase=float(np.mean(phase_vals)),
        windows=len(terms),
        window_s=window_s,
        hop_s=None if window_s is None else hop_s,  # one window: the hop is unused
        stft_config=StftConfig(sr),
    )
