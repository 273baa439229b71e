"""WAV helpers shared across the toolkit.

All internal processing is 64-bit float; files default to float32 so
round trips stay exact at the storage precision.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile


def read_wav(path, channels: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file as (sample_rate, float64 data).

    Mono data comes back as shape (n,), multi-channel as (n, channels).
    Integer PCM is rescaled to [-1, 1); float data passes through. Given
    `channels`, a file with another channel count raises a ValueError
    that names the file.
    """
    sample_rate, data = wavfile.read(path)
    got = 1 if data.ndim == 1 else data.shape[1]
    if channels is not None and got != channels:
        kind = {1: "mono", 2: "stereo"}.get(channels, f"{channels}-channel")
        raise ValueError(f"{path} is not a {kind} WAV: it has {got} channel(s)")
    if data.dtype == np.int16:
        data = data / 32768.0
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    return int(sample_rate), np.asarray(data, dtype=np.float64)


def write_wav(path, sample_rate: int, data: np.ndarray, fmt: str = "float32") -> None:
    """Write samples as a float32 (default) or pcm16 WAV."""
    data = np.asarray(data, dtype=np.float64)
    if fmt == "float32":
        wavfile.write(path, int(sample_rate), data.astype(np.float32))
    elif fmt == "pcm16":
        clipped = np.clip(data, -1.0, 1.0)
        wavfile.write(path, int(sample_rate), np.round(clipped * 32767.0).astype(np.int16))
    else:
        raise ValueError(f"unsupported wav sample format: {fmt!r}")
