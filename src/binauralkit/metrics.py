"""Binaural evaluation metrics: STFT, ENV, Mag, SNR, and difference-phase distance.

All distances follow the sliding-window protocol (0.63 s window, 0.1 s
hop) by default; pass ``window_s=None`` for whole-signal variants.
Channel contributions are summed, window results averaged. The STFT
follows the pair's rate (`spectral.StftConfig(rate)`); only 16 kHz figures
match the paper's protocol. The phase distance is the mean absolute
principal-value phase difference between the l-r spectrograms, so its
range is [0, pi] and the phase of an exactly zero bin counts as 0.

The envelope of a row x of n samples is |hilbert(x)|, the magnitude of
the analytic signal; `hilbert` stays its definition. ENV computes it as
sqrt(x*x + h*h), where h = H{x} = irfft(-1j * rfft(x), n) with the DC bin
(and, for even n, the Nyquist bin) of rfft(x) zeroed: one real inverse FFT
in place of a complex one and no complex magnitude. It agrees with
|hilbert(x)| to within a few ulps of the row's peak; a row whose squares
would underflow or overflow takes |hilbert(x)| itself. A distance that
overflows raises a ValueError that names its metric.

`evaluate` reads every STFT frame from one table. The taps of a window's
frames are `spectral`'s framing of the window's sample indices: n_fft
indices into the pair per frame, its reflect padding resolved to the
samples it mirrors. A frame that reads no padding (an inner frame) is
keyed by its first sample in the pair, so windows that hold it share one
table row; a frame that reads padding (an edge frame, whose taps are not
consecutive) has a row of its own. Each row is transformed once, and each window adds
up its rows' sums and keeps its own Hilbert envelopes and SNR. Only the
order of the sums differs from the standalone distances, which stay the
per-window definition: each agrees with its `evaluate` field to within
1e-12 relative.
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
    _frames,
    _padded_window,
    _stft_bins,
)

DEFAULT_WINDOW_S = 0.63
DEFAULT_HOP_S = 0.1
SNR_CAP_DB = 120.0
_CHUNK_FRAMES = 64  # frames transformed per batch; bounds the temporaries
# x*x + h*h in the subnormal range costs an envelope up to 2**-537 absolute,
# which is under an ulp of a row peak of at least this
_SMALLEST_PEAK = 2.0**-480


class SilentGroundTruthError(ValueError):
    """The ground truth is silent wherever it is scored, so its SNR is undefined."""


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
                   hop_s: float, stft: bool = True) -> tuple[int, np.ndarray]:
    """Check the pair and the window parameters, then return the window
    length in samples and the window starts. A window of the STFT metrics
    (`stft`) must hold the STFT window."""
    _check_pair(gt, pred)
    n = gt.n_samples
    if window_s is None:
        win, hop = n, 1  # one window
    else:
        win = seconds_to_samples(window_s, gt.sample_rate, "window_s")
        hop = seconds_to_samples(hop_s, gt.sample_rate, "hop_s")
        if n < win:
            raise ValueError(f"signal of {n} samples is shorter than the {window_s} s window")
        if stft:  # env needs no STFT, at any rate
            cfg = StftConfig(gt.sample_rate)
            if win < cfg.win_length:
                raise ValueError(f"window_s {window_s} spans {win} samples, fewer than the "
                                 f"{cfg.win_length}-sample STFT window at {cfg.sample_rate} Hz")
    return win, np.arange(0, n - win + 1, hop)


def _block(gt: BinauralSignal, pred: BinauralSignal, start: int, win: int) -> np.ndarray:
    """The (4, win) block of gt l, gt r, pred l and pred r at `start`."""
    return np.concatenate((gt.data[:, start : start + win], pred.data[:, start : start + win]))


def _windows(gt: BinauralSignal, pred: BinauralSignal, window_s: float | None, hop_s: float,
             stft: bool = True):
    """Check the pair and the window parameters, then return an iterator over
    the windows' `_block`s."""
    win, starts = _window_starts(gt, pred, window_s, hop_s, stft)
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


def _envelope(x: np.ndarray) -> np.ndarray:
    """|x + i H{x}|, the magnitude of `hilbert(x)`, along the last axis.

    H{x} is one real inverse FFT of -1j times the one-sided spectrum with
    its DC bin (and, for even n, its Nyquist bin) zeroed. A row whose
    squares leave the normal float range (an envelope peak under
    `_SMALLEST_PEAK`, or one that overflows) takes `np.abs(hilbert(...))`,
    which squares nothing, instead.
    """
    n = x.shape[-1]
    spec = np.fft.rfft(x, axis=-1)
    spec[..., 0] = 0.0
    if n % 2 == 0:
        spec[..., -1] = 0.0
    spec *= -1j
    env = np.fft.irfft(spec, n, axis=-1)  # H{x}
    with np.errstate(over="ignore"):  # such rows are redone below
        env *= env
        env += x * x
    np.sqrt(env, out=env)
    peak = np.max(env, axis=-1)
    redo = ~((peak >= _SMALLEST_PEAK) & (peak < np.inf))
    if redo.any():
        env[redo] = np.abs(hilbert(x[redo]))
    return env


def _env_term(block: np.ndarray) -> float:
    envelope = _envelope(block)
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


def _finite(name: str, value) -> float:
    """`value` as a float, or a ValueError naming the metric when it is not
    finite: finite samples whose squares or spectra overflow."""
    if not np.isfinite(value):
        raise ValueError(f"{name} is {value}: the pair's samples are too large to score")
    return float(value)


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
    return _finite("stft", np.mean([_stft_term(_spectra(b, gt.sample_rate)) for b in blocks]))


def env_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """L2 distance between Hilbert envelopes, both channels, averaged over windows."""
    blocks = _windows(gt, pred, window_s, hop_s, stft=False)
    return _finite("env", np.mean([_env_term(b) for b in blocks]))


def mag_distance(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> float:
    """L2 distance between magnitude spectrograms, both channels, averaged."""
    blocks = _windows(gt, pred, window_s, hop_s)
    return _finite("mag", np.mean([_mag_term(_spectra(b, gt.sample_rate)) for b in blocks]))


def snr(gt: BinauralSignal, pred: BinauralSignal) -> float:
    """Whole-signal 10 log10(signal/residual) over both channels, in dB,
    SNR_CAP_DB on a zero residual."""
    _check_pair(gt, pred)
    value = _snr_db(gt.left, gt.right, pred.left, pred.right)
    if value is None:
        raise SilentGroundTruthError("ground truth is identically zero; SNR is undefined")
    return _finite("snr_db", value)


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


def _frame_sums(gt: BinauralSignal, pred: BinauralSignal, cfg: StftConfig,
                at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform the frames whose taps read samples `at` (..., n_fft) of the
    pair and reduce their gt l, gt r, pred l, pred r, gt l-r and pred l-r
    bins to five sums per frame, shaped (..., 5): |G - P|^2 of l and of r,
    (|G| - |P|)^2 of l and of r, and the |wrapped phase difference| of the
    l-r bins; and whether each frame's bins are all finite, shaped (...).

    The l-r frames are the difference of the l and r frames, which are the
    very values a window's own l-r transform reads.
    """
    raw = np.empty((6, *at.shape))
    np.take(gt.data, at, axis=1, out=raw[:2])
    np.take(pred.data, at, axis=1, out=raw[2:4])
    # the l-r rows get their own transform: STFT(l) - STFT(r) rounds
    # differently, and the phase of near-zero bins is discontinuous
    np.subtract(raw[0:4:2], raw[1:4:2], out=raw[4:])
    raw *= _padded_window(cfg)
    bins = np.fft.rfft(raw, axis=-1)
    mag = np.abs(bins[:4])
    sums = np.stack((
        *np.sum(np.abs(bins[:2] - bins[2:4]) ** 2, axis=-1),
        *np.sum((mag[:2] - mag[2:]) ** 2, axis=-1),
        np.sum(abs_phase_diff(bins[4], bins[5]), axis=-1),
    ), axis=-1)
    return sums, np.isfinite(bins).all(axis=(0, -1))


def evaluate(
    gt: BinauralSignal,
    pred: BinauralSignal,
    window_s: float | None = DEFAULT_WINDOW_S,
    hop_s: float = DEFAULT_HOP_S,
) -> MetricsReport:
    """Slide a window over the pair and average all five metrics.

    The phase distance compares each window's ground-truth l-r spectrogram
    with the prediction's own l-r spectrogram. Windows whose ground truth
    is completely silent are excluded from the SNR average only; when every
    window's is, `SilentGroundTruthError` is raised. Every
    distinct frame, inner or edge, is one row of a table that `_frame_sums`
    fills in chunks; each window then checks its rows' bins, adds up their
    sums and checks its envelopes, in window order.
    """
    win, starts = _window_starts(gt, pred, window_s, hop_s)
    cfg = StftConfig(gt.sample_rate)
    taps = _frames(np.arange(win), cfg)  # each frame's samples, counted from the window start
    edge = (np.diff(taps, axis=-1) != 1).any(axis=-1)  # taps not consecutive: reads padding
    frames = len(taps)
    # a key per frame of each window: an inner frame's first sample in the
    # pair, which every window that holds it shares, or an edge frame's own
    # negative id; the keys are dropped once they give the table's rows
    _, first, rows = np.unique(
        np.where(edge, -1 - np.arange(len(starts) * frames).reshape(-1, frames),
                 starts[:, None] + taps[:, 0]),
        return_index=True, return_inverse=True)
    sums, finite = np.empty((len(first), 5)), np.empty(len(first), dtype=bool)
    for a in range(0, len(first), _CHUNK_FRAMES):
        w, t = np.divmod(first[a : a + _CHUNK_FRAMES], frames)
        sums[a : a + _CHUNK_FRAMES], finite[a : a + _CHUNK_FRAMES] = _frame_sums(
            gt, pred, cfg, starts[w, None] + taps[t])
    terms = []
    for start, own in zip(starts, rows.reshape(len(starts), frames)):
        if not finite[own].all():
            raise ValueError("spectrogram contains non-finite bins")
        total = sums[own[~edge]].sum(axis=0) + sums[own[edge]].sum(axis=0)
        block = _block(gt, pred, start, win)
        terms.append((
            np.sqrt(total[0]) + np.sqrt(total[1]), _env_term(block),
            np.sqrt(total[2]) + np.sqrt(total[3]), _snr_db(*block),
            total[4] / (cfg.n_bins * frames),
        ))
    stft_vals, env_vals, mag_vals, snr_vals, phase_vals = zip(*terms)
    snr_vals = [v for v in snr_vals if v is not None]  # silent ground truth
    if not snr_vals:
        raise SilentGroundTruthError("ground truth is silent in every window; SNR is undefined")
    return MetricsReport(
        stft_dist=_finite("stft", np.mean(stft_vals)),
        env=_finite("env", np.mean(env_vals)),
        mag=_finite("mag", np.mean(mag_vals)),
        snr_db=_finite("snr_db", np.mean(snr_vals)),
        d_phase=float(np.mean(phase_vals)),
        windows=len(terms),
        window_s=window_s,
        hop_s=None if window_s is None else hop_s,  # one window: the hop is unused
        stft_config=cfg,
    )
