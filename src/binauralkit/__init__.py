"""binauralkit: spatial-audio toolkit for mono-to-binaural conversion,
pseudo visual-stereo pair synthesis, and binaural evaluation metrics."""

from .ambisonic import BFormat, MonoSignal, encode, mix
from .binaural import (
    BinauralSignal,
    SpeakerArray,
    decode_wy,
    default_speaker_array,
    project_to_speakers,
    render_ambisonic_hrir,
    render_direct_hrir,
)
from .hrir import HrirEntry, HrirPack, load_pack, nearest, save_pack, synth_pack
from .metrics import MetricsReport, evaluate
from .scenegen import (
    DatasetConfig,
    SceneSource,
    SceneSpec,
    gen_dataset,
    make_separation_pair,
    normalize_amplitude,
    sample_scene,
    synth_pseudo_pair,
)
from .spectral import (
    ComplexMask,
    Spectrogram,
    StftConfig,
    apply_mask,
    istft,
    loss_separation,
    loss_stereo,
    loss_total,
    mono_and_diff,
    oracle_mask,
    reconstruct_lr,
    stft,
)
from .spherical import Direction, assoc_legendre, real_sph_harmonic, sn3d_norm
from .visualmap import FovConfig, direction_to_pixel, pixel_to_direction

__version__ = "0.1.0"

__all__ = [
    "BFormat",
    "BinauralSignal",
    "ComplexMask",
    "DatasetConfig",
    "Direction",
    "FovConfig",
    "HrirEntry",
    "HrirPack",
    "MetricsReport",
    "MonoSignal",
    "SceneSource",
    "SceneSpec",
    "SpeakerArray",
    "Spectrogram",
    "StftConfig",
    "apply_mask",
    "assoc_legendre",
    "decode_wy",
    "default_speaker_array",
    "encode",
    "evaluate",
    "gen_dataset",
    "istft",
    "load_pack",
    "loss_separation",
    "loss_stereo",
    "loss_total",
    "make_separation_pair",
    "mix",
    "mono_and_diff",
    "nearest",
    "normalize_amplitude",
    "oracle_mask",
    "pixel_to_direction",
    "direction_to_pixel",
    "project_to_speakers",
    "real_sph_harmonic",
    "reconstruct_lr",
    "render_ambisonic_hrir",
    "render_direct_hrir",
    "sample_scene",
    "save_pack",
    "sn3d_norm",
    "stft",
    "synth_pack",
    "synth_pseudo_pair",
]
