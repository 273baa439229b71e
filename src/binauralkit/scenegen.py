"""Pseudo visual-stereo pairs: placement sampling, multi-source mixing,
and deterministic dataset generation.

Scenes hold up to three mono sources, each fitted to the scene length, peak-normalized,
gain-scaled (gain doubles as the depth proxy and the visual patch scale) and encoded at
its mapped direction: the scene's B-format signal is only its factors, harmonic gains
(4, K) and the K scaled sources, so its one render through the virtual speakers convolves
K source rows, and no (4, n) block is built.
Each random draw is keyed off a seed, so (master_seed, index), two integers, fixes each byte.
A dataset config file is read against `DatasetConfig` (its `fov` against
`FovConfig`) by `hrir._from_json`: exact keys, typed values.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import wavio
from .ambisonic import BFormat, MonoSignal, _NonFinite, seconds_to_samples
from .binaural import (
    BinauralSignal,
    SpeakerArray,
    default_speaker_array,
    render_ambisonic_hrir,
    write_binaural_wav,
)
from .hrir import HrirPack, _from_json, _naming, load_or_default_pack
from .spherical import Direction, harmonic_vector
from .visualmap import DEFAULT_FOV, FovConfig, pixel_to_direction

MAX_SOURCES = 3
DEFAULT_RATIOS = (0.4, 0.5, 0.1)
DEFAULT_GAIN_RANGE = (0.5, 1.0)
DEFAULT_DURATION_S = 0.63
PATCH_BASE_HALF = 0.25  # half-extent of a unit-scale patch, normalized units
_SCENE_FILE = re.compile(
    r"scene_(\d{5}|[1-9]\d{5,})(\.json|_binaural\.wav|_mix\.wav|_src(0|[1-9]\d*)\.wav)"
)

ClipStore = Mapping[str, MonoSignal]


@dataclass(frozen=True)
class SceneSource:
    """One source of a pseudo scene: a clip reference, a placement as a
    normalized pixel pair (u, v), and a gain that stands in for 1/depth."""

    audio_ref: str
    placement: tuple[float, float]
    gain: float = 1.0

    def __post_init__(self):
        if not 0 <= self.gain < np.inf:
            raise ValueError(f"gain must be finite and non-negative, got {self.gain}")
        try:
            u, v = self.placement
            if isinstance(u, str) or isinstance(v, str):  # "12" unpacks to two parsable strs
                raise TypeError
            u, v = float(u), float(v)
        except (TypeError, ValueError):
            raise ValueError(f"placement must be a pair of numbers (u, v), "
                             f"got {self.placement!r}") from None
        object.__setattr__(self, "placement", (u, v))


def _check_seed(seed) -> int:
    """`seed` as an int, or a ValueError naming it unless it is an integer
    (numpy's too, not a bool) that fits a uint64."""
    seed = wavio.as_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    return seed


@dataclass(frozen=True)
class SceneSpec:
    sources: tuple[SceneSource, ...]
    fov: FovConfig = DEFAULT_FOV
    seed: int = 0
    sample_rate: int = wavio.DEFAULT_SAMPLE_RATE
    duration_s: float = DEFAULT_DURATION_S

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "sample_rate", wavio.as_sample_rate(self.sample_rate))
        if not 1 <= len(self.sources) <= MAX_SOURCES:
            raise ValueError(f"scenes hold 1..{MAX_SOURCES} sources, got {len(self.sources)}")
        seconds_to_samples(self.duration_s, self.sample_rate, "duration_s")
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True, eq=False)
class PseudoPair:
    binaural: BinauralSignal
    mono_mix: MonoSignal
    per_source_mono: tuple[MonoSignal, ...]
    metadata: dict


def _unit_peak(samples: np.ndarray, name: str = "signal") -> np.ndarray:
    if (peak := np.max(np.abs(samples), initial=0.0)) == 0.0:
        raise ValueError(f"cannot normalize an all-zero {name}")
    return samples / peak


def normalize_amplitude(s: MonoSignal) -> MonoSignal:
    """Peak-normalize so max |s(t)| is exactly 1."""
    return MonoSignal(_unit_peak(s.samples), s.sample_rate)


def resolve_placement(source: SceneSource, fov: FovConfig) -> tuple[float, float, Direction]:
    """(u, v, direction) for a source; raises if it falls outside the FOV."""
    u, v = source.placement
    return u, v, pixel_to_direction(u, v, fov)


def _fetch(store: ClipStore, ref: str) -> MonoSignal:
    try:
        return store[ref]
    except KeyError as exc:
        raise FileNotFoundError(f"clip {ref!r} not found in store") from exc


class WavStore:
    """Resolves clip references as WAV paths, optionally under a root directory."""

    def __init__(self, root=None):
        self.root = Path(root or "")

    def __getitem__(self, ref: str) -> MonoSignal:
        sample_rate, data = wavio.read_wav(self.root / ref, channels=1)
        return MonoSignal(data, sample_rate)


def _patch_box(u: float, v: float, gain: float) -> list[float]:
    half = PATCH_BASE_HALF * gain
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

    Each clip is trimmed or zero-padded to n samples (all zeros there is an error naming
    it), peak normalized, scaled by its gain and encoded at its direction: the scene is
    the factors (harmonic gains (4, K), scaled clips (K, n)), rendered once from its K
    rows, `render_ambisonic_hrir(mix([encode(...)]))` byte for byte. Gains so large that
    the mono mix or the render overflows are a ValueError naming them.
    """
    n = seconds_to_samples(spec.duration_s, spec.sample_rate, "duration_s")
    gains, rows = np.empty((4, len(spec.sources))), np.empty((len(spec.sources), n))
    per_source = []
    meta_sources = []
    for k, source in enumerate(spec.sources):
        clip = _fetch(store, source.audio_ref)
        if clip.sample_rate != spec.sample_rate:
            raise ValueError(
                f"clip {source.audio_ref!r} rate {clip.sample_rate} != scene rate "
                f"{spec.sample_rate}"
            )
        u, v, direction = resolve_placement(source, spec.fov)
        x = np.pad(clip.samples[:n], (0, n - min(clip.n_samples, n)))
        gains[:, k] = harmonic_vector(direction)
        unit = _unit_peak(x, f"clip {source.audio_ref!r} in its first {n} samples")
        per_source.append(MonoSignal(np.multiply(unit, source.gain, out=rows[k]), spec.sample_rate))
        meta_sources.append(
            {
                "audio_ref": source.audio_ref,
                "u": u,
                "v": v,
                "azimuth_rad": direction.azimuth,
                "elevation_rad": direction.elevation,
                "gain": source.gain,
                "patch_scale": source.gain,
                "patch_box": _patch_box(u, v, source.gain),
            }
        )
    metadata = {
        "seed": spec.seed,
        "sample_rate": spec.sample_rate,
        "duration_s": spec.duration_s,
        "fov": spec.fov.to_dict(),
        "sources": meta_sources,
    }
    mono_mix = np.zeros(n)
    # each scaled clip is finite, but their sum and its render can overflow:
    # that is one error naming the gains, with no numpy warnings before it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for row in rows:
                mono_mix += row
            mono = MonoSignal(mono_mix, spec.sample_rate)
            binaural = render_ambisonic_hrir(
                BFormat._of_sources(gains, rows, spec.sample_rate), arr, pack
            )
        except _NonFinite as exc:
            raise ValueError(f"source gains {[s.gain for s in spec.sources]} overflow the "
                             f"scene: {exc}") from exc
    return PseudoPair(binaural, mono, tuple(per_source), metadata)


def _check_sampling(
    pool: Sequence[str], ratios: Sequence[float], gain_range: tuple[float, float]
) -> np.ndarray:
    """Validate the scene-sampling parameters; returns ratios as an array."""
    if len(pool) < MAX_SOURCES:
        raise ValueError(f"clip pool must hold at least {MAX_SOURCES} clips, got {len(pool)}")
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != (MAX_SOURCES,) or not np.all(ratios >= 0) or abs(ratios.sum() - 1) > 1e-9:
        raise ValueError(f"ratios must be {MAX_SOURCES} non-negative values summing to 1, got {ratios}")
    if len(gain_range) != 2 or not 0 < gain_range[0] <= gain_range[1] < np.inf:
        raise ValueError(f"gain_range must be two finite values 0 < lo <= hi, got {gain_range}")
    return ratios


def sample_scene(
    rng_seed: int,
    pool: Sequence[str],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    *,
    fov: FovConfig = DEFAULT_FOV,
    sample_rate: int = wavio.DEFAULT_SAMPLE_RATE,
    duration_s: float = DEFAULT_DURATION_S,
    gain_range: tuple[float, float] = DEFAULT_GAIN_RANGE,
) -> SceneSpec:
    """Draw a random scene: K ~ ratios over 1..MAX_SOURCES, K distinct clips,
    uniform in-frame placements, uniform gains. Deterministic in the seed."""
    ratios = _check_sampling(pool, ratios, gain_range)
    seed = _check_seed(rng_seed)  # before numpy's own check, which names nothing
    lo, hi = gain_range
    rng = np.random.default_rng(seed)
    k = int(rng.choice(MAX_SOURCES, p=ratios / ratios.sum())) + 1
    picks = rng.choice(len(pool), size=k, replace=False)
    sources = []
    for idx in picks:
        u = rng.uniform(-1.0, 1.0)
        v = rng.uniform(-1.0, 1.0)
        gain = rng.uniform(lo, hi)
        sources.append(SceneSource(audio_ref=pool[int(idx)], placement=(u, v), gain=gain))
    return SceneSpec(tuple(sources), fov, seed, sample_rate, duration_s)


def make_separation_pair(
    clip_a: str,
    clip_b: str,
    fov: FovConfig = DEFAULT_FOV,
    *,
    sample_rate: int = wavio.DEFAULT_SAMPLE_RATE,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> SceneSpec:
    """Two-source scene with the clips pinned to opposite horizontal edges."""
    if clip_a == clip_b:
        raise ValueError("separation pairs need two distinct clips")
    sources = (SceneSource(clip_a, (-1.0, 0.0)), SceneSource(clip_b, (1.0, 0.0)))
    return SceneSpec(sources, fov, seed, sample_rate, duration_s)


def scene_seed(master_seed: int, index: int) -> int:
    """Index-keyed seed split; stable across platforms and schedulings."""
    entropy = (wavio.as_integer(master_seed, "master_seed"), wavio.as_integer(index, "index"))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DatasetConfig:
    master_seed: int
    count: int
    pool: tuple[str, ...]
    output_dir: str
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    sample_rate: int = wavio.DEFAULT_SAMPLE_RATE
    duration_s: float = DEFAULT_DURATION_S
    gain_range: tuple[float, float] = DEFAULT_GAIN_RANGE
    fov: FovConfig = DEFAULT_FOV

    def __post_init__(self):
        for name in ("master_seed", "count"):
            object.__setattr__(self, name, wavio.as_integer(getattr(self, name), name))
        object.__setattr__(self, "pool", tuple(self.pool))
        object.__setattr__(self, "sample_rate", wavio.as_sample_rate(self.sample_rate))
        if min(self.master_seed, self.count) < 0:
            raise ValueError(f"master_seed {self.master_seed} and count {self.count} must be >= 0")
        n = seconds_to_samples(self.duration_s, self.sample_rate, "duration_s")
        if n > (most := wavio.max_frames(2)):  # each scene's binaural WAV must be writable
            raise ValueError(f"duration_s must fit a scene's float32 stereo WAV in 4 GiB, "
                             f"at most {most} samples at {self.sample_rate} Hz, got {self.duration_s}")
        _check_sampling(self.pool, self.ratios, self.gain_range)


def load_dataset_config(path) -> tuple[DatasetConfig, WavStore, HrirPack, SpeakerArray]:
    """Read a dataset config JSON into the arguments of `gen_dataset`: `DatasetConfig`'s
    keys, plus `pack` (an HRIR pack folder) and `array` (speaker [azimuth, elevation]
    pairs in degrees), null for the default. Relative paths resolve against the config's
    folder; each pool clip is checked to be a mono WAV at `sample_rate` that is not all
    zero over the scene length."""
    path = Path(path)
    with _naming(path):
        raw = json.loads(path.read_text())
    pack_ref, speakers = (raw.pop(k, None) if type(raw) is dict else None for k in ("pack", "array"))
    config = _from_json(raw, DatasetConfig, path)
    root = path.parent
    config = replace(config, output_dir=str(root / config.output_dir))
    pack_dir = None if pack_ref is None else root / _from_json(pack_ref, str, f"pack in {path}")
    with _naming(f"pack in {path}"):
        pack = load_or_default_pack(pack_dir, config.sample_rate)
    if speakers is None:
        arr = default_speaker_array()
    else:
        where = f"array in {path}"
        degrees = _from_json(speakers, tuple[tuple[float, float], ...], where)
        with _naming(where):
            arr = SpeakerArray([Direction.from_degrees(az, el) for az, el in degrees])
    store = WavStore(root)
    n = seconds_to_samples(config.duration_s, config.sample_rate, "duration_s")
    for ref in config.pool:  # kept as written; the returned store resolves them
        with _naming(f"pool clip {ref!r} in {path}"):
            clip = store[ref]
            if clip.sample_rate != config.sample_rate:
                raise ValueError(f"sample rate {clip.sample_rate}, but the config's "
                                 f"sample_rate is {config.sample_rate}")
            if not np.any(clip.samples[:n]):
                raise ValueError(f"all zero in its first {n} samples, the scene length")
    return config, store, pack, arr


def gen_dataset(
    config: DatasetConfig, store: ClipStore, pack: HrirPack, arr: SpeakerArray
) -> list[dict]:
    """Write `count` pseudo pairs plus a manifest; byte-identical per config.

    Every scene is derived from (master_seed, index) alone, so any
    synthesis scheduling produces the same files. The manifest is written
    only after all scenes complete; a failing scene writes FAILED instead.
    A run first removes the FAILED, manifest and scene files of an earlier one.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for p in out.iterdir():
        if p.name in ("FAILED", "manifest.json") or _SCENE_FILE.fullmatch(p.name):
            p.unlink()
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
            (out / "FAILED").write_text(f"scene {i} failed: {exc}\n")
            raise RuntimeError(f"scene {i} failed: {exc}") from exc
        stem = f"scene_{i:05d}"
        item = {"index": i, "scene_json": f"{stem}.json",
                "binaural_wav": f"{stem}_binaural.wav", "mono_wav": f"{stem}_mix.wav",
                "source_wavs": [f"{stem}_src{j}.wav" for j in range(len(pair.per_source_mono))]}
        (out / item["scene_json"]).write_text(json.dumps(pair.metadata, indent=2, sort_keys=True))
        write_binaural_wav(out / item["binaural_wav"], pair.binaural)
        wavio.write_wav(out / item["mono_wav"], config.sample_rate, pair.mono_mix.samples)
        for name, src in zip(item["source_wavs"], pair.per_source_mono):
            wavio.write_wav(out / name, config.sample_rate, src.samples)
        manifest.append(item)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest
