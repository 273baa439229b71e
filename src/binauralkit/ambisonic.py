"""First-order ambisonic encoding and mixing.

Channels are ACN-ordered (W, X, Y, Z) with SN3D weights, so all four
first-order encoding gains reduce to plain direction cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spherical import Direction, harmonic_vector

DEFAULT_SAMPLE_RATE = 16000


def seconds_to_samples(seconds: float, sample_rate: int, name: str) -> int:
    """`seconds` in whole samples; a ValueError naming `name` if that is under 1."""
    n = round(seconds * sample_rate) if 0 < seconds < math.inf else 0
    if n < 1:
        raise ValueError(f"{name} must be positive and span at least one sample, got {seconds}")
    return int(n)


def _as_channel(samples, name: str) -> np.ndarray:
    """`samples` as a 1-D finite float64 array; a ValueError naming channel `name` if not."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} channel must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} channel contains non-finite samples")
    return arr


@dataclass(frozen=True, eq=False)
class MonoSignal:
    """A single-channel signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_channel(self.samples, "samples"))
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True, eq=False)
class BFormat:
    """First-order ambisonic signal: channels W, X, Y, Z."""

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _as_channel(getattr(self, name), name))
        lengths = {len(self.w), len(self.x), len(self.y), len(self.z)}
        if len(lengths) != 1:
            raise ValueError(f"channel lengths differ: {sorted(lengths)}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return len(self.w)

    def channels(self) -> np.ndarray:
        """Stack the four channels as a (4, n) matrix in W,X,Y,Z order."""
        return np.stack([self.w, self.x, self.y, self.z])


def encode(source: MonoSignal, direction: Direction) -> BFormat:
    """Encode a mono source at a direction into first-order B-format."""
    if source.n_samples == 0:
        raise ValueError("cannot encode an empty signal")
    w, x, y, z = (gain * source.samples for gain in harmonic_vector(direction))
    return BFormat(w, x, y, z, sample_rate=source.sample_rate)


def mix(parts: Sequence[BFormat]) -> BFormat:
    """Channel-wise sum of B-format signals; shorter parts are zero-padded."""
    if len(parts) == 0:
        raise ValueError("cannot mix an empty list of B-format signals")
    rates = {p.sample_rate for p in parts}
    if len(rates) != 1:
        raise ValueError(f"sample rates differ: {sorted(rates)}")
    n = max(p.n_samples for p in parts)
    out = np.zeros((4, n))
    for p in parts:
        out[:, : p.n_samples] += p.channels()
    return BFormat(out[0], out[1], out[2], out[3], sample_rate=parts[0].sample_rate)
