"""HRIR packs: on-disk format, synthetic generation, nearest-direction lookup.

A pack is a directory holding one mono WAV per ear per direction and an
``index.json`` of exactly these keys, each type-checked by `_from_json`::

    {"name": ..., "sample_rate": ...,
     "entries": [{"azimuth_deg": ..., "elevation_deg": ...,
                  "left": "d000_L.wav", "right": "d000_R.wav"}, ...]}

The index's ``sample_rate`` is checked before any WAV is read, and a WAV
that is missing, unreadable or at another rate, or an entry's bad
direction or filter, is reported under the entry's position.

Synthetic packs model a spherical head: Woodworth arrival-time offsets,
a configurable broadside level difference, and a one-pole low-pass at
``CONTRA_LOWPASS_HZ`` that shadows the far ear when that corner lies below
Nyquist (a rate above 12 kHz); at lower rates the far ear is one tap.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import wavio
from .spherical import Direction

SPEED_OF_SOUND = 343.0  # m/s
CONTRA_LOWPASS_HZ = 6000.0  # far-ear low-pass corner of the synthetic pack
# bounds of a synthetic pack, checked before it is built: a 1-degree ring,
# tap gains within 10**(+-MAX_ILD_DB / 40), and 85 ms filters at 48 kHz
MAX_AZIMUTHS = 360
MAX_ILD_DB = 120.0
MAX_FIR_TAPS = 4096
MAX_SAMPLE_RATE = 0xFFFFFFFF  # the 32-bit rate field of the pack's WAV headers


@dataclass(frozen=True, eq=False)
class HrirEntry:
    """Left/right impulse-response pair at one direction, as read-only float64 copies."""

    direction: Direction
    left_fir: np.ndarray
    right_fir: np.ndarray

    def __post_init__(self):
        for name in ("left_fir", "right_fir"):
            taps = np.array(getattr(self, name), dtype=np.float64)
            if taps.ndim != 1 or len(taps) == 0:
                raise ValueError(f"{name} must be a non-empty 1-D filter")
            if not np.all(np.isfinite(taps)):
                raise ValueError(f"{name} contains non-finite taps")
            taps.flags.writeable = False
            object.__setattr__(self, name, taps)


@dataclass(frozen=True, eq=False)
class HrirPack:
    entries: tuple[HrirEntry, ...]
    sample_rate: int
    name: str = "unnamed"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise ValueError("an HRIR pack needs at least one entry")
        object.__setattr__(self, "sample_rate", wavio.as_sample_rate(self.sample_rate))
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
) -> HrirPack:
    """Generate a deterministic horizontal-ring pack of simplified HRIRs.

    Each filter is a delayed, scaled impulse. Arrival-time offsets follow
    the Woodworth spherical-head model; the level split reaches ild_db at
    full broadside. The far ear is smoothed by a one-pole low-pass at
    CONTRA_LOWPASS_HZ (unit DC gain, so filter-tap sums read back the level
    split exactly) when that corner is below Nyquist, i.e. at a sample rate
    above 12 kHz; at 12 kHz and below it is left out.
    """
    if not 2 <= n_azimuths <= MAX_AZIMUTHS:
        raise ValueError(f"n_azimuths must be 2 to {MAX_AZIMUTHS}, got {n_azimuths}")
    if n_azimuths != int(n_azimuths):
        raise ValueError(f"n_azimuths must be whole, got {n_azimuths}")
    if not 0 < head_radius < math.inf:
        raise ValueError(f"head_radius must be positive and finite, got {head_radius}")
    if not 0 <= ild_db <= MAX_ILD_DB:
        raise ValueError(f"ild_db must be 0 to {MAX_ILD_DB:g}, got {ild_db}")
    sample_rate = wavio.as_sample_rate(sample_rate)
    if sample_rate > MAX_SAMPLE_RATE:
        raise ValueError(f"sample_rate must be at most {MAX_SAMPLE_RATE} Hz, the largest "
                         f"a WAV header holds, got {sample_rate}")

    shadowed = CONTRA_LOWPASS_HZ < sample_rate / 2
    if shadowed:
        pole = math.exp(-2 * math.pi * CONTRA_LOWPASS_HZ / sample_rate)
        n_tail = max(1, int(math.ceil(math.log(1e-12) / math.log(pole))))
    else:
        n_tail = 1
    if n_tail + 4 > MAX_FIR_TAPS:  # the length at the shortest delay, base = 1
        raise ValueError(
            f"the {n_tail}-tap far-ear low-pass tail at sample_rate {sample_rate} Hz needs "
            f"filters longer than the {MAX_FIR_TAPS}-tap maximum at any head_radius"
        )
    itd_max = head_radius / SPEED_OF_SOUND * (math.pi / 2 + 1.0)
    # clamped, so that a delay past any float still fails the length check
    base = int(math.ceil(min(itd_max * sample_rate / 2, MAX_FIR_TAPS))) + 1
    n_taps = 2 * base + n_tail + 2
    if n_taps > MAX_FIR_TAPS:
        raise ValueError(
            f"head_radius {head_radius} m at sample_rate {sample_rate} Hz needs filters "
            f"longer than the {MAX_FIR_TAPS}-tap maximum"
        )
    lowpass = np.ones(1)
    if shadowed:
        lowpass = (1 - pole) * pole ** np.arange(n_tail)
        lowpass /= lowpass.sum()

    entries = []
    for k in range(int(n_azimuths)):
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
        entries.append(HrirEntry(direction, left, right))
    return HrirPack(tuple(entries), sample_rate, name="synthetic")


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


@contextmanager
def _naming(where):
    """Re-raise an input error as a ValueError whose message starts with `where`."""
    try:
        yield
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


_type_hints = cache(get_type_hints)  # resolved once per class


def _from_json(value, hint, where):
    """The JSON `value` read as a `hint`, each error naming `where`. A dataclass takes an
    object of exactly its init fields, read by annotation as `<key> in <where>`; an absent
    or null one with a default takes it. An int serves for a float; a `tuple[T, ...]`
    takes a list of any length, a `tuple[A, B]` one value per type."""
    if is_dataclass(hint):
        if type(value) is not dict:
            raise ValueError(f"{where} is not a JSON object")
        spec = {f.name: f for f in fields(hint) if f.init}
        if unknown := sorted(set(value) - set(spec)):
            raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
        kwargs = {}
        for key, f in spec.items():
            required = f.default is MISSING and f.default_factory is MISSING
            if key in value and (required or value[key] is not None):
                kwargs[key] = _from_json(value[key], _type_hints(hint)[key], f"{key} in {where}")
            elif required:
                raise ValueError(f"{where} is missing required key {key!r}")
        with _naming(where):
            return hint(**kwargs)
    is_list = get_origin(hint) is tuple
    if is_list and type(value) is list:
        args = get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise ValueError(f"{where}: expected {len(args)} values, got {len(value)}")
        return tuple(_from_json(v, a, where) for v, a in zip(value, args))
    if type(value) is hint or type(value) is int and hint is float:
        with _naming(where):  # an int too large for a float
            return hint(value)
    raise ValueError(f"{where}: expected {'a list' if is_list else hint.__name__}, got {value!r}")


@dataclass(frozen=True)
class _IndexEntry:
    azimuth_deg: float
    elevation_deg: float
    left: str
    right: str


@dataclass(frozen=True)
class _Index:
    name: str
    sample_rate: int
    entries: list  # each read as an `_IndexEntry` that names its position


def load_pack(path) -> HrirPack:
    """Load and validate a pack directory written in the index.json format."""
    root = Path(path)
    index_path = root / "index.json"
    try:
        raw = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed index.json under {root}: {exc}") from exc
    index = _from_json(raw, _Index, index_path)
    with _naming(f"sample_rate in {index_path}"):  # before any WAV is compared with it
        wavio.as_sample_rate(index.sample_rate)
    entries = []
    for i, raw_entry in enumerate(index.entries):
        where = f"{index_path} entry {i}"
        e = _from_json(raw_entry, _IndexEntry, where)
        firs = []
        with _naming(where):
            for ref in (e.left, e.right):
                rate, taps = wavio.read_wav(root / ref, channels=1)
                if rate != index.sample_rate:
                    raise ValueError(f"{ref} has sample rate {rate}, "
                                     f"pack declares {index.sample_rate}")
                firs.append(taps)
            direction = Direction.from_degrees(e.azimuth_deg, e.elevation_deg)
            entries.append(HrirEntry(direction, *firs))
    with _naming(index_path):
        return HrirPack(tuple(entries), index.sample_rate, name=index.name)


def load_or_default_pack(path, sample_rate: int) -> HrirPack:
    """The pack saved at `path`, which must be recorded at `sample_rate`, or if
    `path` is None the synthetic pack at `sample_rate`."""
    pack = synth_pack(sample_rate=sample_rate) if path is None else load_pack(path)
    if pack.sample_rate != sample_rate:
        raise ValueError(f"the HRIR pack in {path} is recorded at {pack.sample_rate} Hz, "
                         f"not at the audio's {sample_rate} Hz")
    return pack
