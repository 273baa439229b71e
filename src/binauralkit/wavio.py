"""WAV helpers shared across the toolkit: a little-endian RIFF/WAVE reader
and writer in numpy and `struct`.

All internal processing is 64-bit float; files default to float32 so round
trips stay exact at the storage precision. The writer refuses NaN and inf
samples, and float32 samples past the float32 range, and otherwise writes
the bytes `scipy.io.wavfile.write` would. The reader refuses float files
that hold NaN or inf samples.
"""

from __future__ import annotations

import numbers
import struct

import numpy as np

PCM, IEEE_FLOAT, EXTENSIBLE = 1, 3, 0xFFFE
# the subformat GUID of WAVE_FORMAT_EXTENSIBLE after its leading format tag
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

# (format tag, bytes per sample) -> (stored dtype, offset, step): a sample
# reads as (stored - offset) * step, step being 1 / full scale. 24-bit PCM
# is widened to left-justified int32 first, as scipy.io.wavfile does. The
# writer uses the float32 and pcm16 rows.
_FORMATS = {
    (PCM, 1): ("u1", 128.0, 2.0**-7),
    (PCM, 2): ("<i2", 0.0, 2.0**-15),
    (PCM, 3): ("<i4", 0.0, 2.0**-31),
    (PCM, 4): ("<i4", 0.0, 2.0**-31),
    (IEEE_FLOAT, 4): ("<f4", 0.0, 1.0),
    (IEEE_FLOAT, 8): ("<f8", 0.0, 1.0),
}
_WRITE_FORMATS = {"float32": (IEEE_FLOAT, 4), "pcm16": (PCM, 2)}


def as_sample_rate(value) -> int:
    """`value`, a positive whole number of Hz but no bool, as a Python int."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < float("inf") or value != int(value)):
        raise ValueError(f"sample_rate must be positive and whole, got {value!r}")
    return int(value)


def _chunks(path, buf: bytes):
    """(chunk id, body offset, declared size) of each chunk after the WAVE header."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a little-endian RIFF/WAVE file: "
                         f"it starts {buf[:4]!r} with form type {buf[8:12]!r}")
    pos = 12
    while pos + 8 <= len(buf):
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        yield chunk_id, pos + 8, size
        pos += 8 + size + size % 2  # odd-size chunks carry a pad byte


def _read_format(path, body: bytes) -> tuple[int, int, int, int]:
    """(format tag, channels, sample rate, bytes per sample) of a `fmt ` chunk."""
    if len(body) < 16:
        raise ValueError(f"{path}: fmt chunk of {len(body)} bytes, expected at least 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == EXTENSIBLE and len(body) >= 40 and body[26:40] == _GUID_TAIL:
        tag = struct.unpack_from("<H", body, 24)[0]
    width = block_align // channels if channels else 0  # the container of one sample
    fits = bits == 8 * width or (tag == PCM and 0 < bits < 8 * width)
    if (tag, width) not in _FORMATS or not fits or block_align != channels * width:
        kind = {PCM: "integer PCM", IEEE_FLOAT: "float"}.get(tag, f"format tag {tag:#06x}")
        raise ValueError(f"{path}: unsupported WAV sample format: {bits}-bit {kind}, "
                         f"{channels} channel(s) in {block_align}-byte frames")
    return tag, channels, rate, width


def read_wav(path, channels: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file as (sample_rate, float64 data).

    Mono data comes back as shape (n,), multi-channel as (n, channels).
    Integer PCM (8, 16, 24 or 32-bit) is rescaled to [-1, 1); finite
    float32 and float64 data pass through. Given `channels`, a file with
    another channel count raises a ValueError that names the file, and so
    does a truncated, malformed or otherwise unsupported file, or a float
    file with a NaN or inf sample (naming its first such frame).
    """
    with open(path, "rb") as f:
        buf = f.read()
    fmt = None
    for chunk_id, start, size in _chunks(path, buf):
        if chunk_id == b"fmt ":
            fmt = _read_format(path, buf[start : start + size])
        elif chunk_id == b"data":
            break
    else:
        raise ValueError(f"{path}: no data chunk")
    if fmt is None:
        raise ValueError(f"{path}: no fmt chunk before the data chunk")
    tag, got, sample_rate, width = fmt
    if channels is not None and got != channels:
        kind = {1: "mono", 2: "stereo"}.get(channels, f"{channels}-channel")
        raise ValueError(f"{path} is not a {kind} WAV: it has {got} channel(s)")
    if start + size > len(buf):
        raise ValueError(
            f"{path}: truncated WAV: the data chunk declares {size} bytes, "
            f"the file holds {len(buf) - start}"
        )
    if size % (got * width):
        raise ValueError(f"{path}: data chunk of {size} bytes is not whole "
                         f"{got * width}-byte frames")
    raw = np.frombuffer(buf, np.uint8, size, start)
    if width == 3:  # a zero low byte makes each sample a left-justified int32
        raw = np.pad(raw.reshape(-1, 3), ((0, 0), (1, 0)))
    dtype, offset, step = _FORMATS[tag, width]
    data = raw.view(dtype).astype(np.float64)
    data -= offset  # in place: a fresh array per pass costs more than the pass
    data *= step  # exact: step is a power of two
    if tag == IEEE_FLOAT and not np.isfinite(data).all():
        frame = np.argmin(np.isfinite(data)) // got
        raise ValueError(f"{path}: frame {frame} contains non-finite samples")
    return int(sample_rate), data.reshape((-1, got) if got > 1 else -1)


def write_wav(path, sample_rate: int, data: np.ndarray, fmt: str = "float32") -> None:
    """Write (n,) or (n, channels) finite samples as a float32 (default) or pcm16 WAV."""
    if fmt not in _WRITE_FORMATS:
        raise ValueError(f"unsupported wav sample format: {fmt!r}")
    tag, width = _WRITE_FORMATS[fmt]
    rate = as_sample_rate(sample_rate)
    data = np.asarray(data)
    if data.ndim not in (1, 2):
        raise ValueError(f"WAV data must be 1-D or 2-D, got shape {data.shape}")
    channels = 1 if data.ndim == 1 else data.shape[1]
    block = channels * width
    for name, value, bits in (("sample rate", rate, 32), ("byte rate", rate * block, 32),
                              ("block align", block, 16)):
        if value >> bits:
            raise ValueError(f"{path}: {name} {value} exceeds the {bits}-bit field of a WAV header")
    nbytes = data.size * width
    # the RIFF size counts "WAVE", the fmt, fact and data chunk headers and the samples
    riff_size = (36 if tag == PCM else 50) + nbytes
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {nbytes} bytes of samples exceed the 4 GiB size "
                         "limit of a RIFF/WAVE file")
    data = np.asarray(data, dtype=np.float64)
    # one pass for NaN, inf and, in float32, finite samples it would store as inf
    largest = np.finfo(np.float32 if tag == IEEE_FLOAT else np.float64).max
    fits = np.abs(data) <= largest
    if not fits.all():
        first = np.argmin(fits)
        if not np.isfinite(data.flat[first]):
            raise ValueError(f"{path}: frame {first // channels} is not finite")
        raise ValueError(f"{path}: frame {first // channels} exceeds the float32 range "
                         f"(+-{largest:.7g})")
    if tag == PCM:
        data = np.round(np.clip(data, -1.0, 1.0) * 32767.0)
    samples = data.astype(_FORMATS[tag, width][0])
    fmt_body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, 8 * width)
    fact = b""
    if tag != PCM:  # a zero cbSize, and a fact chunk with the frame count
        fmt_body += b"\x00\x00"
        fact = b"fact" + struct.pack("<II", 4, len(samples))
    header = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + fact
              + b"data" + struct.pack("<I", nbytes))
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", riff_size) + header)
        f.write(samples.tobytes())
