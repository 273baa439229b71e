"""First-order ambisonic encoding and mixing.

Channels are ACN-ordered (W, X, Y, Z) with SN3D weights, so all four
first-order encoding gains reduce to plain direction cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Sequence

import numpy as np

from .spherical import Direction, harmonic_vector
from .wavio import as_sample_rate

DEFAULT_SAMPLE_RATE = 16000


def seconds_to_samples(seconds: float, sample_rate: int, name: str) -> int:
    """`seconds` in whole samples; a ValueError naming `name` if that is under 1
    or is 2**63 or more, as a huge finite `seconds` can make it."""
    n = seconds * sample_rate if 0 < seconds < math.inf else 0
    if not n < 2**63:  # an infinite product too
        raise ValueError(f"{name} must be positive and count fewer than 2**63 samples "
                         f"at {sample_rate} Hz, got {seconds}")
    if round(n) < 1:
        raise ValueError(f"{name} must be positive and span at least one sample, got {seconds}")
    return int(round(n))


@dataclass(frozen=True, eq=False)
class _Signal:
    """Samples stored once as `data`, a read-only float64 (channels, n) block.

    Each subclass declares its channels as fields before `sample_rate`; after
    the check each channel field is a row view of `data`. Built from its
    channels, one channel views float64 input without copying (the caller's
    array stays writeable) and several are stacked into a block of their own.
    A block the library has just computed enters through `_adopt`, which
    stores that block itself; both ways share one check-and-store step.
    """

    data: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = self._channels()
        rows = [np.asarray(getattr(self, name), dtype=np.float64) for name in names]
        for name, row in zip(names, rows):
            if row.ndim != 1:
                raise ValueError(f"{name} channel must be 1-D, got shape {row.shape}")
        lengths = {len(row) for row in rows}
        if len(lengths) != 1:
            raise ValueError(f"channel lengths differ: {sorted(lengths)}")
        self._store(rows[0][np.newaxis] if len(rows) == 1 else np.stack(rows))

    @classmethod
    def _adopt(cls, data: np.ndarray, sample_rate: int):
        """A signal that stores `data`, a float64 (channels, n) block the caller
        has just built and owns, as its own `data` without copying it."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "sample_rate", sample_rate)
        sig._store(data)
        return sig

    @classmethod
    @cache
    def _channels(cls) -> tuple[str, ...]:
        """The channel field names, worked out once per class."""
        return tuple(f.name for f in fields(cls) if f.init and f.name != "sample_rate")

    def _store(self, data: np.ndarray) -> None:
        """Check `data` and the rate, then keep `data` read-only with a row view per channel."""
        names = self._channels()
        for name, finite in zip(names, np.isfinite(data).all(axis=1)):
            if not finite:
                raise ValueError(f"{name} channel contains non-finite samples")
        object.__setattr__(self, "sample_rate", as_sample_rate(self.sample_rate))
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        for name, row in zip(names, data):
            object.__setattr__(self, name, row)

    def __reduce__(self):
        # the block alone, adopted again on load: read-only, rows still its views
        return type(self)._adopt, (self.data, self.sample_rate)

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class MonoSignal(_Signal):
    """A single-channel signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True, eq=False)
class BFormat(_Signal):
    """First-order ambisonic signal: channels W, X, Y, Z."""

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE


def encode(source: MonoSignal, direction: Direction) -> BFormat:
    """Encode a mono source at a direction into first-order B-format."""
    if source.n_samples == 0:
        raise ValueError("cannot encode an empty signal")
    return BFormat._adopt(harmonic_vector(direction)[:, None] * source.samples, source.sample_rate)


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
        out[:, : p.n_samples] += p.data
    return BFormat._adopt(out, parts[0].sample_rate)
