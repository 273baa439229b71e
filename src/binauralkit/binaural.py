"""Binaural decoders: W+/-Y, direct HRIR, and virtual-speaker ambisonic rendering.

The virtual-speaker renderer projects the B-format field onto a fixed
speaker array by the minimum-norm least-squares solution (Moore-Penrose
pseudoinverse of the 4 x M harmonic matrix), then convolves each virtual
feed with the HRIR pair nearest its speaker direction and sums per ear.
All three stages are linear and time-invariant, so they run as one
precomputed 4-in/2-out FIR per (array, pack), cached by object identity;
arrays and packs are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import wavio
from .ambisonic import BFormat, MonoSignal
from .hrir import HrirPack, nearest
from .spherical import Direction, harmonic_vector

PINV_IDENTITY_TOL = 1e-9
# Largest accepted 2-norm condition number of the harmonic matrix. Past it
# the pseudoinverse's gains run to hundreds and cancel each other, and the
# float64 rounding of a render grows with them (about eps * cond relative
# to the signal).
MAX_CONDITION = 1e3

# Default virtual array: 8 speakers uniformly spanning the frontal 180 degree
# arc. Elevations alternate +/-22.5 degrees in a left-right mirror-symmetric
# pattern; a flat (all zero elevation) ring would zero the Z row of the
# harmonic matrix and leave it rank 3.
_DEFAULT_AZIMUTHS = tuple(-math.pi / 2 + (m - 0.5) * math.pi / 8 for m in range(1, 9))
_DEFAULT_ELEVATIONS = tuple(s * math.pi / 8 for s in (1, -1, 1, -1, -1, 1, -1, 1))


@dataclass(frozen=True, eq=False)
class BinauralSignal:
    """Two-channel signal; channel 0 is the left ear."""

    left: np.ndarray
    right: np.ndarray
    sample_rate: int

    def __post_init__(self):
        for name in ("left", "right"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} channel must be 1-D")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} channel contains non-finite samples")
            object.__setattr__(self, name, arr)
        if len(self.left) != len(self.right):
            raise ValueError(
                f"channel lengths differ: {len(self.left)} vs {len(self.right)}"
            )
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return len(self.left)


@dataclass(frozen=True, eq=False)
class SpeakerArray:
    """Virtual speaker directions with the harmonic matrix and its pseudoinverse."""

    directions: tuple[Direction, ...]
    d_matrix: np.ndarray  # (4, M)
    d_pinv: np.ndarray  # (M, 4)


def make_speaker_array(directions: Sequence[Direction]) -> SpeakerArray:
    """Build the 4 x M harmonic matrix and its Moore-Penrose pseudoinverse.

    Raises if fewer than four speakers are given, the matrix is not of
    full row rank (the SVD-based pseudoinverse is rank-revealing), or its
    condition number exceeds MAX_CONDITION.
    """
    directions = tuple(directions)
    if len(directions) < 4:
        raise ValueError(f"need at least 4 speakers, got {len(directions)}")
    d_matrix = np.stack([harmonic_vector(d) for d in directions], axis=1)
    if np.linalg.matrix_rank(d_matrix) < 4:
        raise ValueError("speaker layout is rank-deficient; spread the directions out")
    cond = np.linalg.cond(d_matrix)
    if cond > MAX_CONDITION:
        raise ValueError(
            f"speaker layout is ill-conditioned (condition number {cond:.3g} > "
            f"{MAX_CONDITION:g}); spread the directions out"
        )
    d_pinv = np.linalg.pinv(d_matrix)
    err = np.abs(d_matrix @ d_pinv - np.eye(4)).max()
    if err > PINV_IDENTITY_TOL:
        raise ValueError(f"pseudoinverse residual {err:.2e} exceeds {PINV_IDENTITY_TOL}")
    return SpeakerArray(directions, d_matrix, d_pinv)


def default_speaker_array() -> SpeakerArray:
    return make_speaker_array(
        [Direction(az, el) for az, el in zip(_DEFAULT_AZIMUTHS, _DEFAULT_ELEVATIONS)]
    )


def decode_wy(b: BFormat) -> BinauralSignal:
    """left = W + Y, right = W - Y."""
    return BinauralSignal(b.w + b.y, b.w - b.y, b.sample_rate)


def _smooth_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fft_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Linear convolution via real FFT, trimmed to the first len(x) samples."""
    n_fft = _smooth_length(len(x) + len(taps) - 1)
    y = np.fft.irfft(np.fft.rfft(x, n_fft) * np.fft.rfft(taps, n_fft), n_fft)
    return y[: len(x)]


def render_direct_hrir(source: MonoSignal, direction: Direction, pack: HrirPack) -> BinauralSignal:
    """Convolve the source with the HRIR pair nearest the given direction."""
    if source.sample_rate != pack.sample_rate:
        raise ValueError(
            f"source rate {source.sample_rate} != pack rate {pack.sample_rate}"
        )
    entry = nearest(pack, direction)
    return BinauralSignal(
        fft_convolve(source.samples, entry.left_fir),
        fft_convolve(source.samples, entry.right_fir),
        source.sample_rate,
    )


def project_to_speakers(b: BFormat, arr: SpeakerArray) -> list[MonoSignal]:
    """Virtual speaker feeds: the minimum-norm solution of D s' = Psi per sample."""
    feeds = arr.d_pinv @ b.channels()
    return [MonoSignal(feeds[m], b.sample_rate) for m in range(feeds.shape[0])]


@lru_cache(maxsize=8)
def _ear_filters(arr: SpeakerArray, pack: HrirPack) -> np.ndarray:
    """G[ear, c, t] = sum_m D+[m, c] h_ear,m[t], shaped (2, 4, taps).

    h_ear,m is the HRIR nearest speaker m; shorter FIRs are zero-padded to
    the longest. Both arguments are eq=False dataclasses, so the cache is
    keyed by identity; the result is read-only because every caller
    shares it.
    """
    entries = [nearest(pack, d) for d in arr.directions]
    n_taps = max(max(len(e.left_fir), len(e.right_fir)) for e in entries)
    h = np.zeros((2, len(entries), n_taps))
    for m, e in enumerate(entries):
        h[0, m, : len(e.left_fir)] = e.left_fir
        h[1, m, : len(e.right_fir)] = e.right_fir
    g = np.einsum("mc,emt->ect", arr.d_pinv, h)
    g.flags.writeable = False
    return g


def render_ambisonic_hrir(b: BFormat, arr: SpeakerArray, pack: HrirPack) -> BinauralSignal:
    """Project onto the virtual array, convolve each feed with its nearest
    HRIR pair, and sum per ear, as one 4-in/2-out FIR over the B-format
    channels."""
    if b.sample_rate != pack.sample_rate:
        raise ValueError(f"b-format rate {b.sample_rate} != pack rate {pack.sample_rate}")
    g = _ear_filters(arr, pack)
    n = b.n_samples
    n_fft = _smooth_length(n + g.shape[-1] - 1)
    spectrum = np.einsum(
        "ecf,cf->ef", np.fft.rfft(g, n_fft), np.fft.rfft(b.channels(), n_fft)
    )
    left, right = np.fft.irfft(spectrum, n_fft)[:, :n]
    return BinauralSignal(left, right, b.sample_rate)


def write_binaural_wav(path, sig: BinauralSignal, fmt: str = "float32") -> None:
    """Export as a stereo WAV, left ear in channel 0."""
    wavio.write_wav(path, sig.sample_rate, np.stack([sig.left, sig.right], axis=1), fmt=fmt)


def read_binaural_wav(path) -> BinauralSignal:
    sample_rate, data = wavio.read_wav(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"expected a stereo WAV, got shape {data.shape}")
    return BinauralSignal(data[:, 0], data[:, 1], sample_rate)
