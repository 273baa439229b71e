"""Signals the library computes keep the block they were computed in.

`decode_wy`, `spectral.reconstruct_lr`, both HRIR decoders (through
`binaural._render`) and a `mix` of four or more rows hand their freshly
built block to `_Signal._adopt` instead of splitting it into rows for the
public constructor to stack again; `encode` builds its block from its
factors on the first read. The oracle for each is that per-row
construction, with the formulas it used; the two must agree bytewise, or
fail with the same message.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from binauralkit import binaural
from binauralkit.ambisonic import BFormat, MonoSignal, encode, mix
from binauralkit.binaural import (
    BinauralSignal,
    _ear_filters,
    _ear_pairs,
    decode_wy,
    default_speaker_array,
    fft_convolve,
    render_ambisonic_hrir,
    render_direct_hrir,
)
from binauralkit.hrir import nearest, synth_pack
from binauralkit.spectral import reconstruct_lr
from binauralkit.spherical import Direction, harmonic_vector

RATE = 16000
PACK = synth_pack(n_azimuths=12, sample_rate=RATE)

# zeros of both signs and subnormals next to ordinary and huge values, so
# sums can overflow and both paths must then fail alike
SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ANGLES = st.floats(-math.pi / 2, math.pi / 2)


def rows(count, lengths):
    return lengths.flatmap(lambda n: arrays(np.float64, (count, n), elements=SAMPLES))


def outcome(build):
    """The signal's (type, rate, data bytes), or the message it fails with."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # huge samples overflow alike
            sig = build()
    except ValueError as exc:
        return str(exc)
    return type(sig), sig.sample_rate, sig.data.tobytes()


def directions():
    return st.builds(Direction, st.floats(-math.pi, math.pi), ANGLES)


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(row=rows(1, st.integers(1, 3)), direction=directions())
    def test_encode(self, row, direction):
        source = MonoSignal(row[0], RATE)
        gains = harmonic_vector(direction)
        assert outcome(lambda: encode(source, direction)) == outcome(
            lambda: BFormat(*(gain * source.samples for gain in gains), sample_rate=RATE)
        )

    @settings(max_examples=150, deadline=None)
    @given(blocks=st.lists(rows(4, st.integers(0, 3)), min_size=1, max_size=3))
    def test_mix(self, blocks):
        parts = [BFormat(*block, sample_rate=RATE) for block in blocks]
        out = np.zeros((4, max(p.n_samples for p in parts)))
        with np.errstate(over="ignore"):
            for p in parts:
                out[:, : p.n_samples] += p.data
        assert outcome(lambda: mix(parts)) == outcome(lambda: BFormat(*out, sample_rate=RATE))

    @settings(max_examples=150, deadline=None)
    @given(block=rows(4, st.integers(0, 3)))
    def test_decode_wy(self, block):
        b = BFormat(*block, sample_rate=RATE)
        assert outcome(lambda: decode_wy(b)) == outcome(
            lambda: BinauralSignal(b.w + b.y, b.w - b.y, RATE)
        )

    @settings(max_examples=150, deadline=None)
    @given(block=rows(2, st.integers(0, 3)))
    def test_reconstruct_lr(self, block):
        s_m, diff = MonoSignal(block[0], RATE), MonoSignal(block[1], RATE)
        assert outcome(lambda: reconstruct_lr(s_m, diff)) == outcome(
            lambda: BinauralSignal(
                (s_m.samples + diff.samples) / 2.0, (s_m.samples - diff.samples) / 2.0, RATE
            )
        )

    @settings(max_examples=60, deadline=None)
    @given(row=rows(1, st.integers(0, 3)), direction=directions())
    def test_direct_hrir_render(self, row, direction):
        source = MonoSignal(row[0], RATE)
        firs = _ear_pairs([nearest(PACK, direction)])
        assert outcome(lambda: render_direct_hrir(source, direction, PACK)) == outcome(
            lambda: BinauralSignal(*fft_convolve(source.data, firs), RATE)
        )

    @settings(max_examples=60, deadline=None)
    @given(block=rows(4, st.integers(0, 3)))
    def test_ambisonic_hrir_render(self, block):
        b, arr = BFormat(*block, sample_rate=RATE), default_speaker_array()
        assert outcome(lambda: render_ambisonic_hrir(b, arr, PACK)) == outcome(
            lambda: BinauralSignal(*fft_convolve(b.data, _ear_filters(arr, PACK)), RATE)
        )


@pytest.fixture
def noise():
    return MonoSignal(np.random.default_rng(11).normal(size=3000), RATE)


class TestAdoption:
    @pytest.mark.parametrize("render", [
        lambda s: render_direct_hrir(s, Direction(0.4, 0.0), PACK),
        lambda s: render_ambisonic_hrir(encode(s, Direction(0.4, 0.0)), default_speaker_array(),
                                        PACK),
    ])
    def test_render_keeps_the_block_fft_convolve_returned(self, monkeypatch, noise, render):
        returned = []

        def recording(x, firs):
            returned.append(fft_convolve(x, firs))
            return returned[-1]

        monkeypatch.setattr(binaural, "fft_convolve", recording)
        sig = render(noise)
        assert len(returned) == 1 and sig.data is returned[0]
        assert sig.left.base is sig.data and sig.right.base is sig.data

    def test_encode_and_mix_own_their_blocks(self, noise):
        b = encode(noise, Direction(-0.7, 0.2))
        m = mix([b, encode(noise, Direction(1.1, -0.3))])
        for sig in (b, m):
            assert sig.data.flags.owndata and not sig.data.flags.writeable
            assert not np.shares_memory(sig.data, noise.samples)
        assert not np.shares_memory(m.data, b.data)

    @pytest.mark.parametrize("cls, bad, name", [
        (BFormat, 2, "y"), (BFormat, 3, "z"), (BinauralSignal, 0, "left"),
        (MonoSignal, 0, "samples"),
    ])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_adopting_a_non_finite_row_names_it_like_the_constructor(self, cls, bad, name, value):
        block = np.zeros((len(cls._channels()), 5))
        block[bad, 3] = value
        message = f"^{name} channel contains non-finite samples$"
        with pytest.raises(ValueError, match=message):
            cls(*block, RATE)
        with pytest.raises(ValueError, match=message):
            cls._adopt(block, RATE)

    def test_adopted_rate_is_checked_like_the_constructor(self):
        with pytest.raises(ValueError, match="sample_rate must be positive and whole, got 0.5"):
            BinauralSignal._adopt(np.zeros((2, 3)), 0.5)
        assert type(BinauralSignal._adopt(np.zeros((2, 3)), np.int64(8000)).sample_rate) is int

    @pytest.mark.parametrize("build", [
        lambda s: encode(s, Direction(0.5, 0.1)),
        lambda s: decode_wy(encode(s, Direction(0.5, 0.1))),
        lambda s: render_direct_hrir(s, Direction(-0.5, 0.0), PACK),
        lambda s: s,
    ])
    def test_survives_pickle(self, noise, build):
        sig = build(noise)
        loaded = pickle.loads(pickle.dumps(sig))
        assert type(loaded) is type(sig) and loaded.sample_rate == sig.sample_rate
        assert loaded.data.tobytes() == sig.data.tobytes()
        assert not loaded.data.flags.writeable
        for name, row in zip(sig._channels(), loaded.data):
            assert getattr(loaded, name).base is loaded.data
            assert getattr(loaded, name).tobytes() == row.tobytes()
        # the block is stored once, not once more per channel
        assert len(pickle.dumps(sig)) < sig.data.nbytes * 1.1

    def test_survives_dataclasses_replace(self, noise):
        b = encode(noise, Direction(0.5, 0.1))
        same = dataclasses.replace(b)
        slower = dataclasses.replace(b, sample_rate=8000)
        for copy in (same, slower):
            assert type(copy) is BFormat and copy.data.tobytes() == b.data.tobytes()
            assert not np.shares_memory(copy.data, b.data) and not copy.data.flags.writeable
        assert (same.sample_rate, slower.sample_rate) == (RATE, 8000)
        with pytest.raises(ValueError, match="^w channel contains non-finite samples$"):
            dataclasses.replace(b, w=np.full(b.n_samples, np.inf))

    def test_user_arrays_are_never_adopted(self):
        left, right = np.arange(4.0), np.arange(4.0)[::-1].copy()
        sig = BinauralSignal(left, right, RATE)
        assert not np.shares_memory(sig.data, left) and not np.shares_memory(sig.data, right)
        assert left.flags.writeable and right.flags.writeable
        block = np.ones((4, 6))
        b = BFormat(*block)
        assert not np.shares_memory(b.data, block) and block.flags.writeable

