"""Binaural decoders: W+/-Y, direct HRIR, and virtual-speaker ambisonic rendering.

The virtual-speaker renderer projects the B-format field onto a fixed
speaker array by the minimum-norm least-squares solution (Moore-Penrose
pseudoinverse of the 4 x M harmonic matrix), then convolves each virtual
feed with the HRIR pair nearest its speaker direction and sums per ear.
All three stages are linear and time-invariant, so they fold into one
precomputed 4-in/2-out plan G per (array, pack), cached by object identity;
the FIRs of packs and the matrices of arrays are read-only. Encoding is
linear too: a render folds G through the signal's harmonic gains and
convolves the K mono rows it was built from (one per source, K <= 3; such
a signal builds no (4, n) block unless something reads it), or the four
channels of a signal built from them. The direct HRIR decoder is
the same FIR call, overlap-save in blocks sized by the filter
(`fft_convolve`), with the nearest pair as a 1-in/2-out filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import wavio
from .ambisonic import BFormat, MonoSignal, _Signal
from .hrir import HrirPack, nearest
from .spherical import Direction, harmonic_vector

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

_CHUNK = 8192  # input samples per pass of `fft_convolve`, in whole blocks (at least one)


@dataclass(frozen=True, eq=False)
class BinauralSignal(_Signal):
    """Two-channel signal; channel 0 is the left ear."""

    left: np.ndarray
    right: np.ndarray
    sample_rate: int


@dataclass(frozen=True, eq=False)
class SpeakerArray:
    """Virtual speaker directions; derives the 4 x M harmonic matrix and its
    Moore-Penrose pseudoinverse, both read-only. Raises if fewer than four
    speakers are given, the matrix is not of full row rank (the SVD-based
    pseudoinverse is rank-revealing), or its condition number exceeds MAX_CONDITION."""

    directions: tuple[Direction, ...]
    d_matrix: np.ndarray = field(init=False)  # (4, M)
    d_pinv: np.ndarray = field(init=False)  # (M, 4)

    def __post_init__(self):
        directions = tuple(self.directions)
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
        d_matrix.flags.writeable = d_pinv.flags.writeable = False
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "d_matrix", d_matrix)
        object.__setattr__(self, "d_pinv", d_pinv)


@cache
def default_speaker_array() -> SpeakerArray:
    """The default 8-speaker frontal arc, one shared instance."""
    return SpeakerArray(
        [Direction(az, el) for az, el in zip(_DEFAULT_AZIMUTHS, _DEFAULT_ELEVATIONS)]
    )


def decode_wy(b: BFormat) -> BinauralSignal:
    """left = W + Y, right = W - Y."""
    return BinauralSignal._adopt(b.w + [[1.0], [-1.0]] * b.y, b.sample_rate)


def fft_convolve(x: np.ndarray, firs: np.ndarray) -> np.ndarray:
    """y[e] = sum_c x[c] * firs[e, c] (linear convolution) trimmed to the first
    n samples: a (C, n) block and (E, C, taps) filters give (E, n); a ValueError
    if their channel counts differ. Overlap-save at the smallest power of two
    >= 16 * taps and >= 512, each block after the taps - 1 samples before it
    (zeros before x), so whole-block prefixes render bitwise alike. `_CHUNK`
    input samples per pass keep the temporaries flat in n. A pass frames its
    blocks as a read-only strided view, of x itself unless they reach before
    or past it, sums the channels of each bin by a broadcast product, and
    writes whole blocks straight into a view of the output."""
    x = np.asarray(x, dtype=np.float64)  # blocks viewed in x transform as the padded ones do
    if len(x) != firs.shape[1]:
        raise ValueError(f"a {len(x)}-channel block needs filters over {len(x)} channels, "
                         f"got filters over {firs.shape[1]}")
    n, hist = x.shape[-1], firs.shape[-1] - 1
    n_fft = max(512, 1 << (16 * firs.shape[-1] - 1).bit_length())
    step = n_fft - hist  # new samples per block
    chunk = max(1, _CHUNK // step) * step
    spectrum, out = np.fft.rfft(firs, n_fft)[:, :, None], np.empty((len(firs), n))
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        count = -(-m // step)  # blocks in this pass
        if hist <= start and start + count * step <= n:
            src = x[:, start - hist :]
        else:  # x from start - hist, zero-padded
            src = np.zeros((len(x), hist + count * step))
            src[:, max(hist - start, 0) : hist + m] = x[:, max(start - hist, 0) : start + m]
        s0, s1 = src.strides
        blocks = as_strided(src, (len(x), count, n_fft), (s0, step * s1, s1), writeable=False)
        y = np.fft.irfft((spectrum * np.fft.rfft(blocks)).sum(axis=1), n_fft)[..., hist:]
        if m == count * step:  # a view: the rows of out are contiguous
            out[:, start : start + m].reshape(len(out), count, step)[...] = y
        else:
            out[:, start : start + m] = y.reshape(len(out), -1)[:, :m]
    return out


def _render(x: np.ndarray, sample_rate: int, firs: np.ndarray, pack: HrirPack) -> BinauralSignal:
    """`fft_convolve` of the (C, n) block `x` with `firs`, built from `pack`."""
    if sample_rate != pack.sample_rate:
        raise ValueError(f"signal rate {sample_rate} != pack rate {pack.sample_rate}")
    return BinauralSignal._adopt(fft_convolve(x, firs), sample_rate)


def _ear_pairs(entries) -> np.ndarray:
    """The entries' FIRs as h[ear, m, t], shaped (2, M, taps); shorter FIRs
    are zero-padded to the longest."""
    n_taps = max(max(len(e.left_fir), len(e.right_fir)) for e in entries)
    h = np.zeros((2, len(entries), n_taps))
    for m, e in enumerate(entries):
        h[0, m, : len(e.left_fir)] = e.left_fir
        h[1, m, : len(e.right_fir)] = e.right_fir
    return h


def render_direct_hrir(source: MonoSignal, direction: Direction, pack: HrirPack) -> BinauralSignal:
    """Convolve the source with the HRIR pair nearest the given direction."""
    return _render(source.data, source.sample_rate, _ear_pairs([nearest(pack, direction)]), pack)


def project_to_speakers(b: BFormat, arr: SpeakerArray) -> list[MonoSignal]:
    """Virtual speaker feeds: the minimum-norm solution of D s' = Psi per sample."""
    return [MonoSignal(feed, b.sample_rate) for feed in arr.d_pinv @ b.data]


@lru_cache(maxsize=8)
def _ear_filters(arr: SpeakerArray, pack: HrirPack) -> np.ndarray:
    """G[ear, c, t] = sum_m D+[m, c] h_ear,m[t], shaped (2, 4, taps).

    h_ear,m is the HRIR nearest speaker m, zero-padded by `_ear_pairs`.
    Both arguments are eq=False dataclasses, so the cache is keyed by
    identity; the result is read-only because every caller shares it.
    """
    entries = [nearest(pack, d) for d in arr.directions]
    g = np.einsum("mc,emt->ect", arr.d_pinv, _ear_pairs(entries))
    g.flags.writeable = False
    return g


def render_ambisonic_hrir(b: BFormat, arr: SpeakerArray, pack: HrirPack) -> BinauralSignal:
    """Project onto the virtual array, convolve each feed with its nearest
    HRIR pair, and sum per ear, as one K-in/2-out FIR over the rows of the
    signal's factors (gains, rows): row k meets the stereo FIR
    sum_c G[:, c] gains[c, k]. A signal built from its channels factors as
    (I4, data), so its four channels meet G itself."""
    gains, rows = b._factors
    firs = np.einsum("ect,ck->ekt", _ear_filters(arr, pack), gains)
    return _render(rows, b.sample_rate, firs, pack)


def write_binaural_wav(path, sig: BinauralSignal, fmt: str = "float32") -> None:
    """Export as a stereo WAV, left ear in channel 0."""
    wavio.write_wav(path, sig.sample_rate, sig.data.T, fmt=fmt)


def read_binaural_wav(path) -> BinauralSignal:
    sample_rate, data = wavio.read_wav(path, channels=2)
    return BinauralSignal(*data.T, sample_rate)
