"""HRIR packs: on-disk format, synthetic generation, nearest-direction lookup.

A pack is a directory holding ``index.json`` plus one mono WAV per ear
per direction::

    {"name": ..., "sample_rate": ...,
     "entries": [{"azimuth_deg": ..., "elevation_deg": ...,
                  "left": "d000_L.wav", "right": "d000_R.wav"}, ...]}

Synthetic packs model a spherical head: Woodworth arrival-time offsets,
a configurable broadside level difference, and a one-pole low-pass that
shadows the far ear.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import wavio
from .spherical import Direction

SPEED_OF_SOUND = 343.0  # m/s
CONTRA_LOWPASS_HZ = 6000.0  # far-ear low-pass corner of the synthetic pack


@dataclass(frozen=True, eq=False)
class HrirEntry:
    """Left/right impulse-response pair at one direction, as read-only float64 copies."""

    direction: Direction
    left_fir: np.ndarray
    right_fir: np.ndarray
    sample_rate: int

    def __post_init__(self):
        for name in ("left_fir", "right_fir"):
            taps = np.array(getattr(self, name), dtype=np.float64)
            if taps.ndim != 1 or len(taps) == 0:
                raise ValueError(f"{name} must be a non-empty 1-D filter")
            if not np.all(np.isfinite(taps)):
                raise ValueError(f"{name} contains non-finite taps")
            taps.flags.writeable = False
            object.__setattr__(self, name, taps)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


@dataclass(frozen=True, eq=False)
class HrirPack:
    entries: tuple[HrirEntry, ...]
    sample_rate: int
    name: str = "unnamed"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise ValueError("an HRIR pack needs at least one entry")
        rates = {e.sample_rate for e in self.entries} | {self.sample_rate}
        if len(rates) != 1:
            raise ValueError(f"sample rates differ within the pack: {sorted(rates)}")
        seen = set()
        for e in self.entries:
            key = (e.direction.azimuth, e.direction.elevation)
            if key in seen:
                raise ValueError(f"duplicate direction in pack: {key}")
            seen.add(key)


def great_circle(a: Direction, b: Direction) -> float:
    """Great-circle angle between two directions, in radians."""
    c = math.sin(a.elevation) * math.sin(b.elevation) + math.cos(a.elevation) * math.cos(
        b.elevation
    ) * math.cos(a.azimuth - b.azimuth)
    return math.acos(min(1.0, max(-1.0, c)))


def nearest(pack: HrirPack, direction: Direction) -> HrirEntry:
    """Entry with smallest great-circle distance; ties go to the smaller
    azimuth, then the smaller elevation."""
    return min(
        pack.entries,
        key=lambda e: (
            great_circle(e.direction, direction),
            e.direction.azimuth,
            e.direction.elevation,
        ),
    )


def synth_pack(
    n_azimuths: int = 24,
    head_radius: float = 0.0875,
    ild_db: float = 6.0,
    sample_rate: int = 16000,
    contra_lowpass_hz: float | None = CONTRA_LOWPASS_HZ,
    name: str = "synthetic",
) -> HrirPack:
    """Generate a deterministic horizontal-ring pack of simplified HRIRs.

    Each filter is a delayed, scaled impulse. Arrival-time offsets follow
    the Woodworth spherical-head model; the level split reaches ild_db at
    full broadside and the far ear is optionally smoothed by a one-pole
    low-pass (unit DC gain, so filter-tap sums read back the level split
    exactly).
    """
    if n_azimuths < 2:
        raise ValueError(f"n_azimuths must be at least 2, got {n_azimuths}")
    if head_radius <= 0:
        raise ValueError(f"head_radius must be positive, got {head_radius}")
    if ild_db < 0:
        raise ValueError(f"ild_db must be non-negative, got {ild_db}")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    if contra_lowpass_hz is not None and not 0 < contra_lowpass_hz < sample_rate / 2:
        raise ValueError("contra_lowpass_hz must lie inside (0, Nyquist)")

    itd_max = head_radius / SPEED_OF_SOUND * (math.pi / 2 + 1.0)
    base = int(math.ceil(itd_max * sample_rate / 2)) + 1
    if contra_lowpass_hz is not None:
        pole = math.exp(-2 * math.pi * contra_lowpass_hz / sample_rate)
        n_tail = max(1, int(math.ceil(math.log(1e-12) / math.log(pole))))
        lowpass = (1 - pole) * pole ** np.arange(n_tail)
        lowpass /= lowpass.sum()
    else:
        n_tail = 1
        lowpass = np.ones(1)
    n_taps = 2 * base + n_tail + 2

    entries = []
    for k in range(n_azimuths):
        az = 2 * math.pi * k / n_azimuths
        direction = Direction(az, 0.0)
        # lateral angle toward the left ear; symmetric front/back
        lam = math.asin(math.sin(direction.azimuth))
        itd = head_radius / SPEED_OF_SOUND * (abs(lam) + math.sin(abs(lam)))
        half = int(round(itd * sample_rate / 2))
        gain_near = 10.0 ** (ild_db * abs(math.sin(lam)) / 40.0)
        gain_far = 10.0 ** (-ild_db * abs(math.sin(lam)) / 40.0)
        left = np.zeros(n_taps)
        right = np.zeros(n_taps)
        if lam > 0:
            left[base - half] = gain_near
            right[base + half : base + half + n_tail] = gain_far * lowpass
        elif lam < 0:
            right[base - half] = gain_near
            left[base + half : base + half + n_tail] = gain_far * lowpass
        else:
            left[base] = 1.0
            right[base] = 1.0
        entries.append(HrirEntry(direction, left, right, sample_rate))
    return HrirPack(tuple(entries), sample_rate, name=name)


def save_pack(pack: HrirPack, path) -> None:
    """Write a pack directory: index.json plus float32 mono WAVs per ear."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index_entries = []
    for i, e in enumerate(pack.entries):
        left_name = f"d{i:03d}_L.wav"
        right_name = f"d{i:03d}_R.wav"
        wavio.write_wav(root / left_name, pack.sample_rate, e.left_fir)
        wavio.write_wav(root / right_name, pack.sample_rate, e.right_fir)
        index_entries.append(
            {
                "azimuth_deg": math.degrees(e.direction.azimuth),
                "elevation_deg": math.degrees(e.direction.elevation),
                "left": left_name,
                "right": right_name,
            }
        )
    index = {"name": pack.name, "sample_rate": pack.sample_rate, "entries": index_entries}
    (root / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True))


_ENTRY_KEYS = ("left", "right", "azimuth_deg", "elevation_deg")


def require_keys(obj, keys, where) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where} is missing required key {key!r}")


def load_pack(path) -> HrirPack:
    """Load and validate a pack directory written in the index.json format."""
    root = Path(path)
    index_path = root / "index.json"
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed index.json under {root}: {exc}") from exc
    require_keys(index, ("name", "sample_rate", "entries"), index_path)
    name, raw_entries = index["name"], index["entries"]
    if not isinstance(raw_entries, list):
        raise ValueError(f"{index_path}: entries must be a list, got {raw_entries!r}")
    try:
        sample_rate = int(index["sample_rate"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{index_path}: sample_rate is not an integer") from exc

    entries = []
    for i, raw in enumerate(raw_entries):
        require_keys(raw, _ENTRY_KEYS, f"{index_path} entry {i}")
        direction = Direction.from_degrees(raw["azimuth_deg"], raw["elevation_deg"])
        firs = []
        for ear in ("left", "right"):
            rate, taps = wavio.read_wav(root / raw[ear], channels=1)
            if rate != sample_rate:
                raise ValueError(
                    f"{raw[ear]} has sample rate {rate}, pack declares {sample_rate}"
                )
            firs.append(taps)
        entries.append(HrirEntry(direction, firs[0], firs[1], sample_rate))
    return HrirPack(tuple(entries), sample_rate, name=name)


def load_or_default_pack(path, sample_rate: int) -> HrirPack:
    """The pack saved at `path`, or if it is None the synthetic pack at `sample_rate`."""
    if path is None and sample_rate <= 2 * CONTRA_LOWPASS_HZ:  # its low-pass must be < Nyquist
        raise ValueError(f"the synthetic HRIR pack needs a sample rate above "
                         f"{2 * CONTRA_LOWPASS_HZ:g} Hz, got {sample_rate}: give an HRIR pack, "
                         f"e.g. one made by `binauralkit hrir-synth --sample-rate {sample_rate}`")
    return synth_pack(sample_rate=sample_rate) if path is None else load_pack(path)
