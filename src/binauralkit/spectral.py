"""STFT/ISTFT engine, complex masking, and the stereo/separation losses.

The geometry is the signal's sample rate (`StftConfig(rate)`, whose only
argument is the rate): a 25 ms periodic Hann window, centered in the
smallest power-of-two frame, at a 10 ms hop. At 16 kHz that is
512/400/160: a 0.63 s clip gives 257 x 64 bins. Frames are centered with
reflection padding, and they are cut in one place, `_frames`: `stft`
frames a signal with it, and `metrics.evaluate` frames a window's sample
indices with it. The inverse uses overlap-add with squared-window
normalization, which every rate from 50 Hz up keeps invertible (the
squared window covers each sample by at least NOLA_TOL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import overlap_add
from .ambisonic import MonoSignal
from .binaural import BinauralSignal
from .wavio import as_sample_rate

NOLA_TOL = 1e-10


@dataclass(frozen=True)
class StftConfig:
    """The STFT geometry at `sample_rate`: 25 ms and 10 ms rounded half up
    (1102.5 samples give 1103), in the smallest power-of-two frame."""

    sample_rate: int
    n_fft: int = field(init=False)
    win_length: int = field(init=False)
    hop: int = field(init=False)

    def __post_init__(self):
        rate = as_sample_rate(self.sample_rate)
        if rate < 50:
            raise ValueError(f"sample rate {rate} Hz is too low for a 10 ms hop")
        win = (rate + 20) // 40
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "n_fft", 1 << (win - 1).bit_length())
        object.__setattr__(self, "win_length", win)
        object.__setattr__(self, "hop", (rate + 50) // 100)

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        """Frames of n_fft samples, one per hop, over the n_samples + 2 * (n_fft // 2)
        padded samples: 1 + n_samples // hop for an even n_fft, one frame per
        sample for the unpadded 1-point FFT below 60 Hz."""
        return 1 + (n_samples + 2 * (self.n_fft // 2) - self.n_fft) // self.hop

    def to_dict(self) -> dict:
        return {"n_fft": self.n_fft, "win": self.win_length, "hop": self.hop}


@lru_cache(maxsize=8)
def _padded_window(cfg: StftConfig) -> np.ndarray:
    # periodic (DFT-even) Hann: n + 1 symmetric points with the last dropped;
    # a 1-sample window is [1.0]
    n = cfg.win_length
    if n > 1:
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])
    else:
        win = np.ones(1)
    padded = np.zeros(cfg.n_fft)
    off = (cfg.n_fft - cfg.win_length) // 2
    padded[off : off + cfg.win_length] = win
    return padded


DEFAULT_STFT = StftConfig(16000)


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Complex time-frequency matrix, n_fft/2+1 rows by T columns; a given
    `n_samples` must be a length whose STFT has T frames."""

    bins: np.ndarray
    config: StftConfig = DEFAULT_STFT
    n_samples: int | None = None  # source length, kept for exact inversion

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D, got shape {arr.shape}")
        if arr.shape[0] != self.config.n_bins:
            raise ValueError(
                f"expected {self.config.n_bins} frequency rows, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("spectrogram contains non-finite bins")
        n = self.n_samples
        if n is not None and (n < 0 or self.config.frame_count(n) != arr.shape[1]):
            raise ValueError(f"n_samples {n} is not a length whose STFT has the "
                             f"spectrogram's {arr.shape[1]} frames")
        object.__setattr__(self, "bins", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.bins.shape


@dataclass(frozen=True, eq=False)
class ComplexMask:
    """Complex time-frequency multiplier, same shape as its target spectrogram."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mask contains non-finite bins")
        object.__setattr__(self, "bins", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.bins.shape


def stft(signal: MonoSignal) -> Spectrogram:
    """Centered, reflect-padded, Hann-windowed real FFT per frame."""
    bins = _stft_bins(signal.samples, signal.sample_rate)
    return Spectrogram(bins, StftConfig(signal.sample_rate), n_samples=signal.n_samples)


def _frames(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """The `frame_count(n)` STFT frames of each row of an (..., n) array, shaped
    (..., frames, n_fft): a read-only view of the rows reflect-padded by
    n_fft // 2, one frame of n_fft samples per hop."""
    n = x.shape[-1]
    if n < cfg.win_length:  # which also covers the reflection pad: n_fft // 2 < win_length
        raise ValueError(f"signal of {n} samples is too short for the "
                         f"{cfg.win_length}-sample STFT window at {cfg.sample_rate} Hz")
    pad = cfg.n_fft // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft, axis=-1)[..., :: cfg.hop, :]


def _stft_bins(x: np.ndarray, sample_rate: int) -> np.ndarray:
    """`stft` bins of each row of an (..., n) array, shaped (..., n_bins, frames)."""
    cfg = StftConfig(sample_rate)
    return np.swapaxes(np.fft.rfft(_frames(x, cfg) * _padded_window(cfg), axis=-1), -1, -2)


def istft(spec: Spectrogram) -> MonoSignal:
    """Overlap-add inverse with squared-window normalization."""
    cfg = spec.config
    n_frames = spec.bins.shape[1]
    frames = np.fft.irfft(spec.bins.T, cfg.n_fft, axis=1)
    total = cfg.n_fft + (n_frames - 1) * cfg.hop
    acc, wsq = overlap_add(frames, _padded_window(cfg), cfg.hop, total)
    good = wsq > NOLA_TOL
    acc[good] /= wsq[good]
    pad = cfg.n_fft // 2
    n = spec.n_samples if spec.n_samples is not None else max(total - 2 * pad, 0)
    return MonoSignal(acc[pad : pad + n], cfg.sample_rate)


def apply_mask(mask: ComplexMask, spec: Spectrogram) -> Spectrogram:
    """Element-wise complex product mask * spectrogram."""
    if mask.shape != spec.shape:
        raise ValueError(f"mask shape {mask.shape} != spectrogram shape {spec.shape}")
    return Spectrogram(mask.bins * spec.bins, spec.config, n_samples=spec.n_samples)


def _check_same_config(*configs: StftConfig) -> None:
    """Reject spectrograms of different STFT configs, whose shapes may still
    agree: 44.1 and 48 kHz both give 1025 bins and, for 1 s, 101 frames."""
    if len(set(configs)) > 1:
        raise ValueError("spectrograms of different STFT configs: " + " vs ".join(
            f"{c.sample_rate} Hz {c.to_dict()}" for c in dict.fromkeys(configs)))


class MonoDiff(NamedTuple):
    s_m: MonoSignal
    spec_m: Spectrogram
    spec_d: Spectrogram


def mono_and_diff(left: MonoSignal, right: MonoSignal) -> MonoDiff:
    """Mono sum l+r with its spectrogram, plus the spectrogram of l-r."""
    if left.n_samples != right.n_samples:
        raise ValueError(
            f"channel lengths differ: {left.n_samples} vs {right.n_samples}"
        )
    if left.sample_rate != right.sample_rate:
        raise ValueError("channel sample rates differ")
    s_m = MonoSignal(left.samples + right.samples, left.sample_rate)
    s_d = MonoSignal(left.samples - right.samples, left.sample_rate)
    return MonoDiff(s_m, stft(s_m), stft(s_d))


def reconstruct_lr(s_m: MonoSignal, diff: MonoSignal) -> BinauralSignal:
    """left = (s_m + diff)/2, right = (s_m - diff)/2."""
    if s_m.n_samples != diff.n_samples:
        raise ValueError(f"lengths differ: {s_m.n_samples} vs {diff.n_samples}")
    if s_m.sample_rate != diff.sample_rate:
        raise ValueError(f"sample rates differ: {s_m.sample_rate} vs {diff.sample_rate}")
    lr = (s_m.samples + [[1.0], [-1.0]] * diff.samples) / 2.0
    return BinauralSignal._adopt(lr, s_m.sample_rate)


def oracle_mask(spec_d: Spectrogram, spec_m: Spectrogram, eps: float = 1e-8) -> ComplexMask:
    """Tikhonov-regularized analytic mask: S_D conj(S_m) / (|S_m|^2 + eps).

    The learning-free minimizer of the stereo loss; eps keeps near-silent
    mono bins from blowing the division up.
    """
    _check_same_config(spec_d.config, spec_m.config)
    if spec_d.shape != spec_m.shape:
        raise ValueError(f"shapes differ: {spec_d.shape} vs {spec_m.shape}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    denom = np.abs(spec_m.bins) ** 2 + eps
    return ComplexMask(spec_d.bins * np.conj(spec_m.bins) / denom)


def loss_stereo(spec_d: Spectrogram, mask: ComplexMask, spec_m: Spectrogram) -> float:
    """L2 norm of the masking residual S_D - M * S_m (sum over bins, then sqrt)."""
    _check_same_config(spec_d.config, spec_m.config)
    if mask.shape != spec_m.shape or spec_d.shape != spec_m.shape:
        raise ValueError("spectrogram/mask shapes differ")
    residual = spec_d.bins - mask.bins * spec_m.bins
    return float(np.sqrt(np.sum(np.abs(residual) ** 2)))


def loss_separation(
    spec_a: Spectrogram,
    spec_b: Spectrogram,
    mask_a: ComplexMask,
    mask_b: ComplexMask,
    spec_mix: Spectrogram,
) -> float:
    """Sum of the two squared residual norms of the mix-and-separate task."""
    _check_same_config(spec_a.config, spec_b.config, spec_mix.config)
    shapes = {spec_a.shape, spec_b.shape, mask_a.shape, mask_b.shape, spec_mix.shape}
    if len(shapes) != 1:
        raise ValueError(f"shapes differ: {shapes}")
    res_a = spec_a.bins - mask_a.bins * spec_mix.bins
    res_b = spec_b.bins - mask_b.bins * spec_mix.bins
    return float(np.sum(np.abs(res_a) ** 2) + np.sum(np.abs(res_b) ** 2))


def loss_total(stereo: float, sep: float, lambda_sep: float = 1.0) -> float:
    """Combined objective: stereo + lambda_sep * sep."""
    return stereo + lambda_sep * sep
