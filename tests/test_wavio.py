"""`wavio` reads and writes RIFF/WAVE itself; scipy.io.wavfile is the oracle.

The writer must give scipy's bytes for float32 and pcm16. The reader must
give the values the scipy-based reader gave (`scipy_read_wav` below, kept
as the reference) for every format it read, and must reject truncated,
malformed and unsupported files with a ValueError that names the path.
"""

import re
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from binauralkit import wavio
from binauralkit.cli import main

SR = 16000
LENGTHS = [0, 1, 2, 3, 7]
CHANNELS = [1, 2, 3, 4]
# the WAVE_FORMAT_EXTENSIBLE subformat GUID, after its 4-byte format tag
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def scipy_read_wav(path):
    """The scipy-based reader `wavio.read_wav` replaced: scaled float64 data."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        data = data / 32768.0
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    return int(sample_rate), np.asarray(data, dtype=np.float64)


def chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def riff(*chunks: bytes, form: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, bits, width=None, extensible=False):
    width = width or -(-bits // 8)
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, SR,
                       SR * channels * width, channels * width, bits)
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", tag) + GUID_TAIL
    return chunk(b"fmt ", body)


def samples(encoding, n, channels, seed=0):
    """Random stored samples covering each format's extremes."""
    rng = np.random.default_rng(seed)
    if encoding.startswith("f"):
        x = rng.uniform(-1.5, 1.5, size=(n, channels)).astype(encoding)
        x.flat[:2] = [-1.0, 1.0][: x.size]
        return x
    info = np.iinfo(encoding)
    x = rng.integers(info.min, info.max, size=(n, channels), endpoint=True, dtype=encoding)
    x.flat[:2] = [info.min, info.max][: x.size]
    return x


def as_written(x):
    return x[:, 0] if x.shape[1] == 1 else x


class TestWriterMatchesScipy:
    @pytest.mark.parametrize("channels", CHANNELS)
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_bytes(self, tmp_path, fmt, n, channels):
        rng = np.random.default_rng(n * 10 + channels)
        data = as_written(rng.uniform(-1.2, 1.2, (n, channels)))
        if fmt == "float32":
            stored = data.astype(np.float32)
        else:
            stored = np.round(np.clip(data, -1.0, 1.0) * 32767.0).astype(np.int16)
        wavfile.write(tmp_path / "scipy.wav", SR, stored)
        wavio.write_wav(tmp_path / "ours.wav", SR, data, fmt=fmt)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    def test_column_slices_are_written_in_frame_order(self, tmp_path):
        data = np.arange(12.0).reshape(3, 4).T / 16  # a Fortran-ordered (4, 3) view
        wavfile.write(tmp_path / "scipy.wav", SR, data.astype(np.float32))
        wavio.write_wav(tmp_path / "ours.wav", SR, data)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    def test_unknown_format_and_shape_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported wav sample format: 'pcm24'"):
            wavio.write_wav(tmp_path / "x.wav", SR, np.zeros(4), fmt="pcm24")
        with pytest.raises(ValueError, match=r"1-D or 2-D, got shape \(2, 2, 2\)"):
            wavio.write_wav(tmp_path / "x.wav", SR, np.zeros((2, 2, 2)))
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("fmt, shape", [
        ("float32", (2**30,)),
        ("pcm16", (2**30, 2)),
        ("pcm16", (2**31 - 18,)),  # a RIFF size of 2**32, one byte past the limit
    ])
    def test_past_the_riff_size_limit_is_rejected_by_name(self, tmp_path, fmt, shape):
        # a zero-stride view, so none of its 4 GiB of samples is allocated
        data = np.broadcast_to(np.float64(0.0), shape)
        path = tmp_path / "big.wav"
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + r"\d+ bytes of samples "
                           "exceed the 4 GiB size limit"):
            wavio.write_wav(path, SR, data, fmt=fmt)
        assert not path.exists()


class TestReaderMatchesScipy:
    def check(self, path, channels):
        rate, data = wavio.read_wav(path)
        want_rate, want = scipy_read_wav(path)
        assert rate == want_rate == SR
        assert data.dtype == np.float64 and data.shape == want.shape
        assert data.shape[1:] == (() if channels == 1 else (channels,))
        np.testing.assert_array_equal(data, want)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("encoding", ["u1", "i2", "i4", "f4", "f8"])
    def test_scipy_written(self, tmp_path, encoding, n, channels):
        path = tmp_path / "x.wav"
        wavfile.write(path, SR, as_written(samples(encoding, n, channels)))
        self.check(path, channels)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("bits, width", [(24, 3), (20, 3), (12, 2), (24, 4)])
    def test_pcm_in_containers(self, tmp_path, bits, width, extensible, n, channels):
        # left-justified: the valid bits are the top bits of each container
        stored = samples("i4", n, channels) & -(1 << (32 - bits))
        raw = stored.astype("<i4").view(np.uint8).reshape(-1, 4)[:, 4 - width :].tobytes()
        path = tmp_path / "x.wav"
        fmt = fmt_chunk(1, channels, bits, width, extensible)
        path.write_bytes(riff(fmt, chunk(b"data", raw)))
        self.check(path, channels)
        data = wavio.read_wav(path)[1].reshape(n, channels)
        np.testing.assert_array_equal(data, stored / 2.0**31)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("encoding, tag, bits", [
        ("u1", 1, 8), ("i2", 1, 16), ("i4", 1, 32), ("f4", 3, 32), ("f8", 3, 64),
    ])
    def test_extensible_header(self, tmp_path, encoding, tag, bits, channels):
        raw = samples(encoding, 5, channels).astype(np.dtype(encoding).newbyteorder("<"))
        raw = raw.tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(tag, channels, bits, extensible=True), chunk(b"data", raw)))
        self.check(path, channels)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_odd_list_fact_and_junk_chunks_are_skipped(self, tmp_path, channels):
        raw = samples("i2", 3, channels).astype("<i2").tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(riff(
            chunk(b"JUNK", b"\x00" * 3), fmt_chunk(1, channels, 16),
            chunk(b"LIST", b"INFOx"),  # 5 bytes, so a pad byte follows
            chunk(b"fact", struct.pack("<I", 3)), chunk(b"data", raw), chunk(b"LIST", b"INFOabc"),
        ))
        self.check(path, channels)


class TestSampleRate:
    @pytest.mark.parametrize("rate", [8000, np.int64(8000), np.uint32(8000), 8000.0, np.float32(8000)])
    def test_whole_positive_rate_is_a_python_int(self, rate):
        assert type(wavio.as_sample_rate(rate)) is int and wavio.as_sample_rate(rate) == 8000

    @pytest.mark.parametrize("rate", [True, np.bool_(True), 0, -16000, 16000.7, float("nan"),
                                      float("inf"), "16000", None])
    def test_anything_else_is_named(self, rate):
        with pytest.raises(ValueError) as info:
            wavio.as_sample_rate(rate)
        assert str(info.value) == f"sample_rate must be positive and whole, got {rate!r}"

    @pytest.mark.parametrize("rate", [16000.7, True])
    def test_writer_rejects_the_rate_before_it_writes(self, tmp_path, rate):
        with pytest.raises(ValueError, match="sample_rate must be positive and whole"):
            wavio.write_wav(tmp_path / "x.wav", rate, np.zeros(8))
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("rate, data, fmt, message", [
        (5_000_000_000, np.zeros(4), "float32", "sample rate 5000000000"),
        (2**31, np.zeros((4, 2)), "pcm16", "byte rate 8589934592"),
        (2**30, np.zeros(4), "float32", "byte rate 4294967296"),
    ], ids=["rate", "stereo-pcm16-byte-rate", "mono-float32-byte-rate"])
    def test_header_values_past_32_bits_are_named(self, tmp_path, rate, data, fmt, message):
        path = tmp_path / "big.wav"
        with pytest.raises(ValueError) as info:
            wavio.write_wav(path, rate, data, fmt=fmt)
        assert str(info.value) == f"{path}: {message} exceeds the 32-bit field of a WAV header"
        assert not path.exists()

    @pytest.mark.parametrize("data, fmt, message", [
        (np.zeros((1, 40000)), "pcm16", "block align 80000"),
        (np.zeros((1, 16384)), "float32", "block align 65536"),
    ], ids=["pcm16", "float32"])
    def test_header_values_past_16_bits_are_named(self, tmp_path, data, fmt, message):
        path = tmp_path / "wide.wav"
        with pytest.raises(ValueError) as info:
            wavio.write_wav(path, SR, data, fmt=fmt)
        assert str(info.value) == f"{path}: {message} exceeds the 16-bit field of a WAV header"
        assert not path.exists()

    def test_largest_block_align_that_fits_is_written(self, tmp_path):
        # 32767 pcm16 channels: a block align of 2^16 - 2
        wavio.write_wav(tmp_path / "x.wav", SR, np.zeros((2, 32767)), fmt="pcm16")
        assert wavio.read_wav(tmp_path / "x.wav")[1].shape == (2, 32767)

    def test_largest_byte_rate_that_fits_is_written(self, tmp_path):
        # mono pcm16 at 2^31 - 1 Hz: a byte rate of 2^32 - 2
        wavio.write_wav(tmp_path / "x.wav", 2**31 - 1, np.zeros(4), fmt="pcm16")
        assert wavio.read_wav(tmp_path / "x.wav")[0] == 2**31 - 1


class TestNonFiniteSamples:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    @pytest.mark.parametrize("data, frame", [
        ([0.1, np.nan, np.inf], 1),
        ([[0.0, 0.0], [0.5, 0.5], [0.0, -np.inf]], 2),
        (np.array([[0.0, 0.0, 0.0, np.nan], [0.0, 0.0, np.inf, 0.0]]).T, 2),  # frames in columns
    ], ids=["mono", "stereo", "transposed"])
    def test_writer_names_the_first_bad_frame_before_it_writes(self, tmp_path, fmt, data, frame):
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError) as info:
            wavio.write_wav(path, SR, data, fmt=fmt)
        assert str(info.value) == f"{path}: frame {frame} is not finite"
        assert not path.exists()

    @pytest.mark.parametrize("data, frame", [
        ([0.1, 1e300, 0.2], 1),
        ([[0.0, 0.0], [0.5, 0.5], [0.0, -3.5e38]], 2),
    ], ids=["mono", "stereo"])
    def test_writer_refuses_float32_overflow_before_it_writes(self, tmp_path, data, frame):
        # finite float64 samples that float32 would store as inf
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError) as info:
            wavio.write_wav(path, SR, data)
        assert str(info.value).startswith(f"{path}: frame {frame} exceeds the float32 range")
        assert not path.exists()

    def test_largest_float32_is_written(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        wavio.write_wav(tmp_path / "x.wav", SR, [0.1, -top, top])
        assert wavio.read_wav(tmp_path / "x.wav")[1][1:].tolist() == [-top, top]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("data, frame", [
        ([0.1, np.nan, 0.2], 1),
        ([[0.0, 0.0], [0.5, 0.5], [0.0, -np.inf]], 2),
    ], ids=["mono", "stereo"])
    def test_reader_names_the_first_bad_frame(self, tmp_path, dtype, data, frame):
        path = tmp_path / "x.wav"
        wavfile.write(path, SR, np.array(data, dtype=dtype))  # wavio refuses to write it
        with pytest.raises(ValueError) as info:
            wavio.read_wav(path)
        assert str(info.value) == f"{path}: frame {frame} contains non-finite samples"

    def test_render_of_a_non_finite_input_fails_by_name(self, tmp_path, capsys):
        path = tmp_path / "nan.wav"
        wavfile.write(path, SR, np.array([0.1, np.nan, 0.2] * 1000, dtype=np.float32))
        code = main(["render", "--in", str(path), "--out", str(tmp_path / "out.wav"),
                     "--azimuth-deg", "30"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: frame 1 contains non-finite samples\n"
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("bad", ["--gt", "--pred"])
    def test_eval_of_a_non_finite_input_fails_by_name(self, tmp_path, capsys, bad):
        good, nan = tmp_path / "good.wav", tmp_path / "nan.wav"
        data = np.random.default_rng(3).normal(size=(SR, 2)) * 0.1
        wavio.write_wav(good, SR, data)
        data[7, 1] = np.nan
        wavfile.write(nan, SR, data.astype(np.float32))
        files = {"--gt": good, "--pred": good, bad: nan}
        code = main(["eval", "--gt", str(files["--gt"]), "--pred", str(files["--pred"])])
        assert code == 1
        assert capsys.readouterr().err == f"error: {nan}: frame 7 contains non-finite samples\n"


class TestRejected:
    def read_fails(self, path, *needles):
        with pytest.raises(ValueError) as info:
            wavio.read_wav(path)
        for needle in (str(path), *needles):
            assert needle in str(info.value)

    @pytest.mark.parametrize("keep", [0.5, 0.99])
    def test_truncated_data_chunk(self, tmp_path, keep):
        path = tmp_path / "cut.wav"
        wavio.write_wav(path, SR, np.ones((100, 2)) * 0.5)
        whole = path.read_bytes()
        path.write_bytes(whole[: int(len(whole) * keep)])
        self.read_fails(path, "truncated WAV", "declares 800 bytes")

    def test_int64_pcm(self, tmp_path):
        path = tmp_path / "wide.wav"
        wavfile.write(path, SR, np.arange(4, dtype=np.int64) << 40)
        self.read_fails(path, "64-bit integer PCM")

    @pytest.mark.parametrize("head, needle", [
        (b"hello, world", "it starts b'hell'"),
        (b"", "b''"),
        (b"RIFF\x04\x00\x00\x00AVI ", "form type b'AVI '"),
    ])
    def test_not_riff_wave(self, tmp_path, head, needle):
        path = tmp_path / "x.wav"
        path.write_bytes(head)
        self.read_fails(path, "not a little-endian RIFF/WAVE file", needle)

    @pytest.mark.parametrize("form", [b"RIFX", b"RF64"])
    def test_big_endian_and_rf64(self, tmp_path, form):
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(1, 1, 16), chunk(b"data", b"\x00\x00"), form=form))
        self.read_fails(path, repr(form))

    @pytest.mark.parametrize("tag, bits, needle", [
        (6, 8, "8-bit format tag 0x0006"),  # A-law
        (3, 16, "16-bit float"),
        (1, 0, "0-bit integer PCM"),
    ])
    def test_unsupported_sample_format(self, tmp_path, tag, bits, needle):
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(tag, 1, bits, width=2), chunk(b"data", b"\x00" * 4)))
        self.read_fails(path, "unsupported WAV sample format", needle)

    def test_unknown_extensible_subformat(self, tmp_path):
        path = tmp_path / "x.wav"
        fmt = bytearray(fmt_chunk(1, 1, 16, extensible=True))
        fmt[-1] ^= 0xFF  # a GUID outside the WAVE_FORMAT family
        path.write_bytes(riff(bytes(fmt), chunk(b"data", b"\x00\x00")))
        self.read_fails(path, "16-bit format tag 0xfffe")

    def test_block_align_that_does_not_fit(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 2, SR, SR * 3, 3, 16)
        path = tmp_path / "x.wav"
        path.write_bytes(riff(chunk(b"fmt ", body), chunk(b"data", b"\x00" * 6)))
        self.read_fails(path, "2 channel(s) in 3-byte frames")

    @pytest.mark.parametrize("chunks, needle", [
        ([fmt_chunk(1, 1, 16)], "no data chunk"),
        ([chunk(b"data", b"\x00\x00"), fmt_chunk(1, 1, 16)], "no fmt chunk before the data chunk"),
        ([chunk(b"fmt ", b"\x01\x00"), chunk(b"data", b"")], "fmt chunk of 2 bytes"),
        ([fmt_chunk(1, 2, 16), chunk(b"data", b"\x00" * 6)], "not whole 4-byte frames"),
    ])
    def test_malformed_structure(self, tmp_path, chunks, needle):
        path = tmp_path / "x.wav"
        path.write_bytes(riff(*chunks))
        self.read_fails(path, needle)

    def test_render_of_a_truncated_input_fails_by_name(self, tmp_path, capsys):
        path = tmp_path / "half_cut.wav"
        wavio.write_wav(path, SR, 0.5 * np.sin(np.arange(SR) / 10))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        code = main(["render", "--in", str(path), "--out", str(tmp_path / "out.wav"),
                     "--azimuth-deg", "30"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: truncated WAV")
        assert not (tmp_path / "out.wav").exists()
