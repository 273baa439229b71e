"""First-order ambisonic encoding and mixing.

Channels are ACN-ordered (W, X, Y, Z) with SN3D weights, so all four
first-order encoding gains reduce to plain direction cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .wavio import DEFAULT_SAMPLE_RATE, as_sample_rate

if TYPE_CHECKING:  # spherical loads on the first encode, so reading and scoring never load it
    from .spherical import Direction


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


class _NonFinite(ValueError):
    """A signal's block holds a non-finite sample; the message names its channel."""


@dataclass(frozen=True, eq=False)
class _Signal:
    """Samples stored once as `data`, a read-only float64 (channels, n) block.

    Each subclass declares its channels as fields before `sample_rate`; after
    the check each channel field is a row view of `data`. Built from its
    channels, one channel views float64 input without copying (the caller's
    array stays writeable) and several are stacked into a block of their own.
    A block the library has just computed enters through `_adopt`, which
    stores that block itself; both ways share one check-and-store step. A
    `BFormat` built from sources runs that step on the first read of its
    block, which it builds from its factors then.
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
        _check_finite(names, data)
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


def _check_finite(names: Sequence[str], data: np.ndarray) -> None:
    """Raise `_NonFinite` naming the first row of `data` (one per name) that
    holds a non-finite sample."""
    for name, finite in zip(names, np.isfinite(data).all(axis=1)):
        if not finite:
            raise _NonFinite(f"{name} channel contains non-finite samples")


def _check_pair(a: _Signal, b: _Signal) -> None:
    """Reject two signals whose lengths or sample rates differ."""
    if a.n_samples != b.n_samples:
        raise ValueError(f"signal lengths differ: {a.n_samples} vs {b.n_samples}")
    if a.sample_rate != b.sample_rate:
        raise ValueError(f"sample rates differ: {a.sample_rate} vs {b.sample_rate}")


@dataclass(frozen=True, eq=False)
class MonoSignal(_Signal):
    """A single-channel signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BFormat(_Signal):
    """First-order ambisonic signal: channels W, X, Y, Z.

    It also keeps the factors `_factors` = (gains (4, K), rows (K, n)) of its
    block, both read-only. What `encode`, `mix` (while K stays below 4) and
    pseudo scenes build is only its factors, a column of harmonic gains and a
    mono row per source: its block `data`, and the channels viewing it, are
    built from them, finite-checked and kept on their first read. A signal
    built from its channels keeps its block and factors as (I4, data). A
    render convolves the rows, so K sources cost K channels, not four.
    """

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def _store(self, data: np.ndarray) -> None:
        super()._store(data)
        object.__setattr__(self, "_factors", (_IDENTITY, data))

    @classmethod
    def _of_sources(cls, gains: np.ndarray, rows: np.ndarray, sample_rate: int):
        """A signal of the factors (gains (4, K), rows (K, n)) alone, read-only;
        its rate is checked now and its block on its first read."""
        b = object.__new__(cls)
        object.__setattr__(b, "sample_rate", as_sample_rate(sample_rate))
        gains.flags.writeable = rows.flags.writeable = False
        object.__setattr__(b, "_factors", (gains, rows))
        return b

    def __getattr__(self, name: str):
        # reached only for an attribute not set yet: a source-built signal's block and channels
        if (name != "data" and name not in self._channels()) or "_factors" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # the finite check names the channel; the factors stay
        _Signal._store(self, _product(*self._factors))
        return vars(self)[name]

    def _rows(self, *names: str):
        """The named channels: row views of the block once it is built, else
        just those rows, built from the factors by the block's own rule and
        checked by name, with no block built or stored."""
        if "data" in vars(self):
            return [vars(self)[name] for name in names]
        gains, rows = self._factors
        out = _product(gains[[self._channels().index(name) for name in names]], rows)
        _check_finite(names, out)
        return out

    def __reduce__(self):
        # the factors of a source-built signal, about a quarter of its block for one source
        gains, rows = self._factors
        if gains is _IDENTITY:
            return type(self)._adopt, (self.data, self.sample_rate)
        return type(self)._of_sources, (gains, rows, self.sample_rate)

    @property
    def n_samples(self) -> int:
        return self._factors[1].shape[1]


def _product(gains: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """gains @ rows by the one rule every built channel follows:
    gains[:, :1] * rows[0], then += gains[:, k:k+1] * rows[k] for each later k."""
    out = gains[:, :1] * rows[0]
    for k in range(1, len(rows)):
        out += gains[:, k : k + 1] * rows[k]
    return out


def encode(source: MonoSignal, direction: Direction) -> BFormat:
    """Encode a mono source at a direction into first-order B-format: the
    factors (harmonic gains, the source's own read-only block), no product."""
    from .spherical import harmonic_vector

    if source.n_samples == 0:
        raise ValueError("cannot encode an empty signal")
    # a finite row times gains of at most 1 in size is finite, so nothing is checked here
    return BFormat._of_sources(harmonic_vector(direction)[:, None], source.data, source.sample_rate)


def mix(parts: Sequence[BFormat]) -> BFormat:
    """Channel-wise sum of B-format signals; shorter parts are zero-padded.

    Below four rows in all, the mix is the parts' factors side by side, their
    rows written into one zero block of the mix's length; from four on, it
    sums the parts' blocks and factors as (I4, data) like any channel-built
    signal.
    """
    if len(parts) == 0:
        raise ValueError("cannot mix an empty list of B-format signals")
    rates = {p.sample_rate for p in parts}
    if len(rates) != 1:
        raise ValueError(f"sample rates differ: {sorted(rates)}")
    n = max(p.n_samples for p in parts)
    gains = np.hstack([p._factors[0] for p in parts])
    if gains.shape[1] < 4:
        rows, k = np.zeros((gains.shape[1], n)), 0
        for p in parts:
            part = p._factors[1]
            rows[k : k + len(part), : part.shape[1]] = part
            k += len(part)
        return BFormat._of_sources(gains, rows, parts[0].sample_rate)
    out = np.zeros((4, n))
    for p in parts:
        out[:, : p.n_samples] += p.data
    return BFormat._adopt(out, parts[0].sample_rate)
