"""Pseudo visual-stereo pairs: placement sampling, multi-source mixing,
and deterministic dataset generation.

Scenes hold up to three mono sources, each peak-normalized, gain-scaled
(gain doubles as the depth proxy and, by default, the visual patch
scale), encoded at its mapped direction and rendered through the virtual
speaker array. Every random draw is keyed off an explicit seed so a
(master_seed, index) pair fully determines each emitted byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import wavio
from .ambisonic import MonoSignal, encode
from .binaural import (
    BinauralSignal,
    SpeakerArray,
    render_ambisonic_hrir,
    write_binaural_wav,
)
from .hrir import HrirPack
from .spherical import Direction
from .visualmap import DEFAULT_FOV, FovConfig, direction_to_pixel, pixel_to_direction

MAX_SOURCES = 3
DEFAULT_RATIOS = (0.4, 0.5, 0.1)
DEFAULT_GAIN_RANGE = (0.5, 1.0)
DEFAULT_DURATION_S = 0.63
PATCH_BASE_HALF = 0.25  # half-extent of a unit-scale patch, normalized units

Placement = Union[tuple, Direction]
ClipStore = Union[Callable[[str], MonoSignal], Mapping[str, MonoSignal]]


@dataclass(frozen=True)
class SceneSource:
    """One source of a pseudo scene: a clip reference, a placement
    (normalized pixel pair or explicit Direction), and a gain that stands
    in for 1/depth."""

    audio_ref: str
    placement: Placement
    gain: float = 1.0
    patch_scale: float | None = None

    def __post_init__(self):
        if self.gain < 0:
            raise ValueError(f"gain must be non-negative, got {self.gain}")
        if self.patch_scale is None:
            object.__setattr__(self, "patch_scale", self.gain)
        elif self.patch_scale <= 0:
            raise ValueError(f"patch_scale must be positive, got {self.patch_scale}")
        if not isinstance(self.placement, Direction):
            u, v = self.placement
            object.__setattr__(self, "placement", (float(u), float(v)))


@dataclass(frozen=True)
class SceneSpec:
    sources: tuple[SceneSource, ...]
    fov: FovConfig = DEFAULT_FOV
    seed: int = 0
    sample_rate: int = 16000
    duration_s: float = DEFAULT_DURATION_S

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if not 1 <= len(self.sources) <= MAX_SOURCES:
            raise ValueError(f"scenes hold 1..{MAX_SOURCES} sources, got {len(self.sources)}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class PseudoPair:
    binaural: BinauralSignal
    mono_mix: MonoSignal
    per_source_mono: tuple[MonoSignal, ...]
    metadata: dict


def normalize_amplitude(s: MonoSignal) -> MonoSignal:
    """Peak-normalize so max |s(t)| is exactly 1."""
    peak = np.max(np.abs(s.samples)) if s.n_samples else 0.0
    if peak == 0.0:
        raise ValueError("cannot normalize an all-zero signal")
    return MonoSignal(s.samples / peak, s.sample_rate)


def resolve_placement(source: SceneSource, fov: FovConfig) -> tuple[float, float, Direction]:
    """(u, v, direction) for a source; raises if it falls outside the FOV."""
    if isinstance(source.placement, Direction):
        u, v = direction_to_pixel(source.placement, fov)
        return u, v, source.placement
    u, v = source.placement
    return u, v, pixel_to_direction(u, v, fov)


def _fetch(store: ClipStore, ref: str) -> MonoSignal:
    if callable(store):
        return store(ref)
    try:
        return store[ref]
    except KeyError as exc:
        raise FileNotFoundError(f"clip {ref!r} not found in store") from exc


class WavStore:
    """Resolves clip references as WAV paths, optionally under a root directory."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else None

    def __call__(self, ref: str) -> MonoSignal:
        path = Path(ref)
        if self.root is not None and not path.is_absolute():
            path = self.root / path
        if not path.is_file():
            raise FileNotFoundError(f"clip not found: {path}")
        sample_rate, data = wavio.read_wav(path)
        if data.ndim != 1:
            raise ValueError(f"clip {path} is not mono")
        return MonoSignal(data, sample_rate)


def _fit_duration(s: MonoSignal, n: int) -> MonoSignal:
    if s.n_samples >= n:
        return MonoSignal(s.samples[:n], s.sample_rate)
    return MonoSignal(np.pad(s.samples, (0, n - s.n_samples)), s.sample_rate)


def _patch_box(u: float, v: float, patch_scale: float) -> list[float]:
    half = PATCH_BASE_HALF * patch_scale
    return [
        max(u - half, -1.0),
        max(v - half, -1.0),
        min(u + half, 1.0),
        min(v + half, 1.0),
    ]


def synth_pseudo_pair(
    spec: SceneSpec, store: ClipStore, pack: HrirPack, arr: SpeakerArray
) -> PseudoPair:
    """Render one pseudo visual-stereo pair from a scene description.

    Each clip is trimmed or zero-padded to the scene duration, peak
    normalized, scaled by its gain, encoded at its mapped direction and
    rendered through the virtual array; per-ear sums run over sources.
    """
    n = int(round(spec.duration_s * spec.sample_rate))
    left = np.zeros(n)
    right = np.zeros(n)
    mono_mix = np.zeros(n)
    per_source = []
    meta_sources = []
    for source in spec.sources:
        clip = _fetch(store, source.audio_ref)
        if clip.sample_rate != spec.sample_rate:
            raise ValueError(
                f"clip {source.audio_ref!r} rate {clip.sample_rate} != scene rate "
                f"{spec.sample_rate}"
            )
        u, v, direction = resolve_placement(source, spec.fov)
        scaled = MonoSignal(
            normalize_amplitude(_fit_duration(clip, n)).samples * source.gain,
            spec.sample_rate,
        )
        rendered = render_ambisonic_hrir(encode(scaled, direction), arr, pack)
        left += rendered.left
        right += rendered.right
        mono_mix += scaled.samples
        per_source.append(scaled)
        meta_sources.append(
            {
                "audio_ref": source.audio_ref,
                "u": u,
                "v": v,
                "azimuth_rad": direction.azimuth,
                "elevation_rad": direction.elevation,
                "gain": source.gain,
                "patch_scale": source.patch_scale,
                "patch_box": _patch_box(u, v, source.patch_scale),
            }
        )
    metadata = {
        "seed": spec.seed,
        "sample_rate": spec.sample_rate,
        "duration_s": spec.duration_s,
        "fov": spec.fov.to_dict(),
        "sources": meta_sources,
    }
    return PseudoPair(
        binaural=BinauralSignal(left, right, spec.sample_rate),
        mono_mix=MonoSignal(mono_mix, spec.sample_rate),
        per_source_mono=tuple(per_source),
        metadata=metadata,
    )


def _check_sampling(
    pool: Sequence[str], ratios: Sequence[float], gain_range: tuple[float, float]
) -> np.ndarray:
    """Validate the scene-sampling parameters; returns ratios as an array."""
    if len(pool) < 3:
        raise ValueError(f"clip pool must hold at least 3 clips, got {len(pool)}")
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != (3,) or np.any(ratios < 0) or abs(ratios.sum() - 1.0) > 1e-9:
        raise ValueError(f"ratios must be 3 non-negative values summing to 1, got {ratios}")
    lo, hi = gain_range
    if not 0 < lo <= hi:
        raise ValueError(f"invalid gain range {gain_range}")
    return ratios


def sample_scene(
    rng_seed: int,
    pool: Sequence[str],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    *,
    fov: FovConfig = DEFAULT_FOV,
    sample_rate: int = 16000,
    duration_s: float = DEFAULT_DURATION_S,
    gain_range: tuple[float, float] = DEFAULT_GAIN_RANGE,
) -> SceneSpec:
    """Draw a random scene: K ~ ratios over {1,2,3}, K distinct clips,
    uniform in-frame placements, uniform gains. Deterministic in the seed."""
    ratios = _check_sampling(pool, ratios, gain_range)
    lo, hi = gain_range
    rng = np.random.default_rng(int(rng_seed))
    k = int(rng.choice(3, p=ratios / ratios.sum())) + 1
    picks = rng.choice(len(pool), size=k, replace=False)
    sources = []
    for idx in picks:
        u = rng.uniform(-1.0, 1.0)
        v = rng.uniform(-1.0, 1.0)
        gain = rng.uniform(lo, hi)
        sources.append(SceneSource(audio_ref=pool[int(idx)], placement=(u, v), gain=gain))
    return SceneSpec(
        sources=tuple(sources),
        fov=fov,
        seed=int(rng_seed),
        sample_rate=sample_rate,
        duration_s=duration_s,
    )


def make_separation_pair(
    clip_a: str,
    clip_b: str,
    fov: FovConfig = DEFAULT_FOV,
    *,
    sample_rate: int = 16000,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> SceneSpec:
    """Two-source scene with the clips pinned to opposite horizontal edges."""
    if clip_a == clip_b:
        raise ValueError("separation pairs need two distinct clips")
    return SceneSpec(
        sources=(
            SceneSource(audio_ref=clip_a, placement=(-1.0, 0.0)),
            SceneSource(audio_ref=clip_b, placement=(1.0, 0.0)),
        ),
        fov=fov,
        seed=seed,
        sample_rate=sample_rate,
        duration_s=duration_s,
    )


def scene_seed(master_seed: int, index: int) -> int:
    """Index-keyed seed split; stable across platforms and schedulings."""
    return int(np.random.SeedSequence((int(master_seed), int(index))).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DatasetConfig:
    master_seed: int
    count: int
    pool: tuple[str, ...]
    output_dir: str
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    sample_rate: int = 16000
    duration_s: float = DEFAULT_DURATION_S
    gain_range: tuple[float, float] = DEFAULT_GAIN_RANGE
    fov: FovConfig = field(default_factory=FovConfig)

    def __post_init__(self):
        object.__setattr__(self, "pool", tuple(self.pool))
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        _check_sampling(self.pool, self.ratios, self.gain_range)


def gen_dataset(
    config: DatasetConfig, store: ClipStore, pack: HrirPack, arr: SpeakerArray
) -> list[dict]:
    """Write `count` pseudo pairs plus a manifest; byte-identical per config.

    Every scene is derived from (master_seed, index) alone, so any
    synthesis scheduling produces the same files. The manifest is written
    only after all scenes complete.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i in range(config.count):
        try:
            spec = sample_scene(
                scene_seed(config.master_seed, i),
                config.pool,
                config.ratios,
                fov=config.fov,
                sample_rate=config.sample_rate,
                duration_s=config.duration_s,
                gain_range=config.gain_range,
            )
            pair = synth_pseudo_pair(spec, store, pack, arr)
        except Exception as exc:
            raise RuntimeError(f"scene {i} failed: {exc}") from exc
        stem = f"scene_{i:05d}"
        scene_json = f"{stem}.json"
        binaural_wav = f"{stem}_binaural.wav"
        mono_wav = f"{stem}_mix.wav"
        (out / scene_json).write_text(json.dumps(pair.metadata, indent=2, sort_keys=True))
        write_binaural_wav(out / binaural_wav, pair.binaural)
        wavio.write_wav(out / mono_wav, config.sample_rate, pair.mono_mix.samples)
        for j, src in enumerate(pair.per_source_mono):
            wavio.write_wav(out / f"{stem}_src{j}.wav", config.sample_rate, src.samples)
        manifest.append(
            {
                "index": i,
                "scene_json": scene_json,
                "binaural_wav": binaural_wav,
                "mono_wav": mono_wav,
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest
