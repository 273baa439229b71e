"""binauralkit: spatial-audio toolkit for mono-to-binaural conversion,
pseudo visual-stereo pair synthesis, and binaural evaluation metrics.

Each exported name is imported from its submodule on first access, so
`import binauralkit` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ambisonic": ("BFormat", "MonoSignal", "encode", "mix"),
    "binaural": (
        "BinauralSignal",
        "SpeakerArray",
        "decode_wy",
        "default_speaker_array",
        "project_to_speakers",
        "render_ambisonic_hrir",
        "render_direct_hrir",
    ),
    "hrir": ("HrirEntry", "HrirPack", "load_pack", "nearest", "save_pack", "synth_pack"),
    "metrics": ("MetricsReport", "evaluate"),
    "scenegen": (
        "DatasetConfig",
        "SceneSource",
        "SceneSpec",
        "gen_dataset",
        "make_separation_pair",
        "normalize_amplitude",
        "sample_scene",
        "synth_pseudo_pair",
    ),
    "spectral": (
        "ComplexMask",
        "Spectrogram",
        "StftConfig",
        "apply_mask",
        "istft",
        "loss_separation",
        "loss_stereo",
        "loss_total",
        "mono_and_diff",
        "oracle_mask",
        "reconstruct_lr",
        "stft",
    ),
    "spherical": ("Direction", "assoc_legendre", "real_sph_harmonic", "sn3d_norm"),
    "visualmap": ("FovConfig", "direction_to_pixel", "pixel_to_direction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
