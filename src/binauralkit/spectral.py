"""STFT/ISTFT engine, complex masking, and the stereo/separation losses.

The defaults (n_fft 512, Hann window of 400, hop 160 at 16 kHz) are laid
out so a 0.63 s clip transforms to exactly 257 x 64 complex bins. The
window is always a periodic Hann of ``win_length`` samples, centered in
the ``n_fft`` frame. Frames are centered with reflection padding; the
inverse uses overlap-add with squared-window normalization, which the
config validates at construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._kernels import overlap_add
from .ambisonic import MonoSignal
from .binaural import BinauralSignal

NOLA_TOL = 1e-10


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 512
    win_length: int = 400
    hop: int = 160
    sample_rate: int = 16000

    def __post_init__(self):
        if self.n_fft <= 0 or self.win_length <= 0 or self.hop <= 0:
            raise ValueError("n_fft, win_length and hop must be positive")
        if self.win_length > self.n_fft:
            raise ValueError(f"win_length {self.win_length} exceeds n_fft {self.n_fft}")
        if self.hop > self.win_length:
            raise ValueError(f"hop {self.hop} exceeds win_length {self.win_length}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        # overlap-add invertibility: the squared window summed at hop offsets
        # must stay bounded away from zero for every alignment
        w2 = _padded_window(self) ** 2
        cover = np.array([w2[r :: self.hop].sum() for r in range(self.hop)])
        if cover.min() < NOLA_TOL:
            raise ValueError(
                f"Hann window of {self.win_length} with hop {self.hop} violates the "
                "overlap-add condition; inverse reconstruction would be undefined"
            )

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        return 1 + n_samples // self.hop

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


DEFAULT_STFT = StftConfig()


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Complex time-frequency matrix, n_fft/2+1 rows by T columns."""

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


def stft(signal: MonoSignal, cfg: StftConfig = DEFAULT_STFT) -> Spectrogram:
    """Centered, reflect-padded, Hann-windowed real FFT per frame."""
    if signal.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"signal rate {signal.sample_rate} != config rate {cfg.sample_rate}"
        )
    n = signal.n_samples
    pad = cfg.n_fft // 2
    if n < cfg.win_length or n < pad + 1:
        raise ValueError(f"signal of {n} samples is too short for this configuration")
    padded = np.pad(signal.samples, pad, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[:: cfg.hop]
    frames = frames[: cfg.frame_count(n)]
    bins = np.fft.rfft(frames * _padded_window(cfg), axis=1).T
    return Spectrogram(bins, cfg, n_samples=n)


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


class MonoDiff(NamedTuple):
    s_m: MonoSignal
    spec_m: Spectrogram
    spec_d: Spectrogram


def mono_and_diff(left: MonoSignal, right: MonoSignal, cfg: StftConfig = DEFAULT_STFT) -> MonoDiff:
    """Mono sum l+r with its spectrogram, plus the spectrogram of l-r."""
    if left.n_samples != right.n_samples:
        raise ValueError(
            f"channel lengths differ: {left.n_samples} vs {right.n_samples}"
        )
    if left.sample_rate != right.sample_rate:
        raise ValueError("channel sample rates differ")
    s_m = MonoSignal(left.samples + right.samples, left.sample_rate)
    s_d = MonoSignal(left.samples - right.samples, left.sample_rate)
    return MonoDiff(s_m, stft(s_m, cfg), stft(s_d, cfg))


def reconstruct_lr(s_m: MonoSignal, diff: MonoSignal) -> BinauralSignal:
    """left = (s_m + diff)/2, right = (s_m - diff)/2."""
    if s_m.n_samples != diff.n_samples:
        raise ValueError(f"lengths differ: {s_m.n_samples} vs {diff.n_samples}")
    return BinauralSignal(
        (s_m.samples + diff.samples) / 2.0,
        (s_m.samples - diff.samples) / 2.0,
        s_m.sample_rate,
    )


def oracle_mask(spec_d: Spectrogram, spec_m: Spectrogram, eps: float = 1e-8) -> ComplexMask:
    """Tikhonov-regularized analytic mask: S_D conj(S_m) / (|S_m|^2 + eps).

    The learning-free minimizer of the stereo loss; eps keeps near-silent
    mono bins from blowing the division up.
    """
    if spec_d.shape != spec_m.shape:
        raise ValueError(f"shapes differ: {spec_d.shape} vs {spec_m.shape}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    denom = np.abs(spec_m.bins) ** 2 + eps
    return ComplexMask(spec_d.bins * np.conj(spec_m.bins) / denom)


def loss_stereo(spec_d: Spectrogram, mask: ComplexMask, spec_m: Spectrogram) -> float:
    """L2 norm of the masking residual S_D - M * S_m (sum over bins, then sqrt)."""
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
    shapes = {spec_a.shape, spec_b.shape, mask_a.shape, mask_b.shape, spec_mix.shape}
    if len(shapes) != 1:
        raise ValueError(f"shapes differ: {shapes}")
    res_a = spec_a.bins - mask_a.bins * spec_mix.bins
    res_b = spec_b.bins - mask_b.bins * spec_mix.bins
    return float(np.sum(np.abs(res_a) ** 2) + np.sum(np.abs(res_b) ** 2))


def loss_total(stereo: float, sep: float, lambda_sep: float = 1.0) -> float:
    """Combined objective: stereo + lambda_sep * sep."""
    return stereo + lambda_sep * sep


SPEC_MAGIC = b"SPEC"


def write_spectrogram(path, spec: Spectrogram) -> None:
    """Flat binary export: 16-byte header (magic, F, T, sample_rate as
    little-endian u32) then float32 (re, im) pairs, row-major."""
    rows, cols = spec.shape
    header = struct.pack("<4sIII", SPEC_MAGIC, rows, cols, spec.config.sample_rate)
    interleaved = np.empty((rows, cols, 2), dtype="<f4")
    interleaved[:, :, 0] = spec.bins.real
    interleaved[:, :, 1] = spec.bins.imag
    Path(path).write_bytes(header + interleaved.tobytes())


def read_spectrogram(path) -> tuple[np.ndarray, int]:
    """Read the flat binary format back as (complex bins, sample_rate)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError(f"{path} is too short to hold a spectrogram header")
    magic, rows, cols, sample_rate = struct.unpack("<4sIII", raw[:16])
    if magic != SPEC_MAGIC:
        raise ValueError(f"{path} does not start with the SPEC magic")
    expected = 16 + rows * cols * 2 * 4
    if len(raw) != expected:
        raise ValueError(f"{path} has {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, cols, 2)
    return flat[:, :, 0].astype(np.float64) + 1j * flat[:, :, 1].astype(np.float64), int(
        sample_rate
    )
