"""The HRIR renderers' FFT convolution against np.convolve: the ambisonic
renderer's precomputed ear filter against the per-speaker path, and the
direct renderer against each ear's own convolution.

The oracle is the renderer as the processing chain states it: project the
B-format field onto the virtual speakers, convolve each feed with the HRIR
pair nearest its speaker, and sum per ear. Errors are measured against the
largest value the untrimmed per-ear sum could reach before any
cancellation, max(sum_m |feed_m| * |h_ear,m|): FFT rounding spreads over
the whole transform, so it follows that scale and not the size of each
output sample.

`fft_convolve` runs overlap-save in fixed blocks; `whole_clip_convolve`,
the whole-clip transform it replaced, stays here as a second oracle, and
`einsum_block_convolve`, the same blocks framed from a zero-padded copy of
each pass and summed over channels by `np.einsum`, as a third.

A B-format signal renders from its factors (gains, rows), one row per
source; `TestSourceFactors` holds that render against the render of the
same block built from its four channels.
"""

import bisect
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from binauralkit import ambisonic, binaural
from binauralkit.ambisonic import BFormat, MonoSignal, encode, mix
from binauralkit.binaural import (
    _CHUNK,
    SpeakerArray,
    _ear_filters,
    _ear_pairs,
    default_speaker_array,
    fft_convolve,
    project_to_speakers,
    render_ambisonic_hrir,
    render_direct_hrir,
)
from binauralkit.hrir import HrirEntry, HrirPack, nearest, synth_pack
from binauralkit.scenegen import PseudoPair
from binauralkit.spherical import Direction, harmonic_vector

REL_TOL = 1e-12

azimuths = st.floats(-math.pi, math.pi)
elevations = st.floats(-math.pi / 2, math.pi / 2)
directions = st.tuples(azimuths, elevations)
# lengths 1 and the odd prime 131 are pinned by @example below
lengths = st.integers(1, 1500)
seeds = st.integers(0, 2**32 - 1)
TETRAHEDRON = [
    (math.pi / 4, 0.6), (3 * math.pi / 4, -0.6), (-3 * math.pi / 4, 0.6), (-math.pi / 4, -0.6),
]


def _smooth_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def whole_clip_convolve(x, firs):
    """Oracle: `fft_convolve` as one transform of the whole clip and the filters
    at the next 5-smooth length past the full convolution."""
    n = x.shape[-1]
    n_fft = _smooth_length(n + firs.shape[-1] - 1)
    spectrum = np.einsum("ecf,cf->ef", np.fft.rfft(firs, n_fft), np.fft.rfft(x, n_fft))
    return np.fft.irfft(spectrum, n_fft)[:, :n]


def einsum_block_convolve(x, firs):
    """Oracle: `fft_convolve`'s blocks, each pass copied into a zero-padded
    buffer, framed by `sliding_window_view` and summed over channels by
    `np.einsum`."""
    n, hist = x.shape[-1], firs.shape[-1] - 1
    n_fft = max(512, 1 << (16 * firs.shape[-1] - 1).bit_length())
    step = n_fft - hist
    chunk = max(1, _CHUNK // step) * step
    spectrum, out = np.fft.rfft(firs, n_fft), np.empty((len(firs), n))
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        seg = np.zeros((len(x), hist + -(-m // step) * step))
        seg[:, max(hist - start, 0) : hist + m] = x[:, max(start - hist, 0) : start + m]
        blocks = np.fft.rfft(sliding_window_view(seg, n_fft, axis=-1)[:, ::step])
        y = np.fft.irfft(np.einsum("ecf,cbf->ebf", spectrum, blocks), n_fft)
        out[:, start : start + m] = y[..., hist:].reshape(len(out), -1)[:, :m]
    return out


def block_step(taps):
    """New samples per overlap-save block: the FFT length less taps - 1."""
    return max(512, 1 << (16 * taps - 1).bit_length()) - taps + 1


def assert_close_to_scale(got, want, x, firs):
    """|got - want| <= REL_TOL * max_t sum_c (|x[c]| * |firs[e, c]|)[t], per row e."""
    for e in range(len(firs)):
        scale = sum(np.convolve(np.abs(x[c]), np.abs(firs[e, c])) for c in range(len(x))).max()
        err = np.max(np.abs(got[e] - want[e]), initial=0.0)
        assert err <= REL_TOL * scale, (e, err, scale)


def per_speaker_render(b, arr, pack):
    """Oracle: per-speaker np.convolve and per-ear sum, plus the error scale."""
    n = b.n_samples
    n_taps = max(max(len(e.left_fir), len(e.right_fir)) for e in pack.entries)
    out = np.zeros((2, n))
    bound = np.zeros((2, n + n_taps - 1))
    for feed, speaker in zip(project_to_speakers(b, arr), arr.directions):
        entry = nearest(pack, speaker)
        for ear, fir in enumerate((entry.left_fir, entry.right_fir)):
            out[ear] += np.convolve(feed.samples, fir)[:n]
            full = np.convolve(np.abs(feed.samples), np.abs(fir))
            bound[ear, : len(full)] += full
    return out, float(bound.max())


def assert_matches_oracle(b, arr, pack):
    got = render_ambisonic_hrir(b, arr, pack)
    want, scale = per_speaker_render(b, arr, pack)
    err = max(
        float(np.max(np.abs(got.left - want[0]))), float(np.max(np.abs(got.right - want[1])))
    )
    assert err <= REL_TOL * scale, f"error {err:.3e} vs scale {scale:.3e}"
    firs = _ear_filters(arr, pack)
    assert_close_to_scale(got.data, whole_clip_convolve(b.data, firs), b.data, firs)


def mixed_scene(sources, n, seed, sample_rate):
    rng = np.random.default_rng(seed)
    return mix([
        encode(MonoSignal(rng.normal(size=n), sample_rate), Direction(az, el))
        for az, el in sources
    ])


def speaker_array_or_reject(speakers):
    try:
        return SpeakerArray([Direction(az, el) for az, el in speakers])
    except ValueError:  # rank-deficient or ill-conditioned draw
        assume(False)


def uneven_pack(seed, sample_rate=16000):
    """Hand-built pack: left and right FIR lengths differ within and across entries."""
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(6):
        n_left = int(rng.integers(1, 48))
        n_right = int(rng.integers(1, 48))
        if n_right == n_left:
            n_right += 1
        entries.append(HrirEntry(
            Direction(-math.pi + k * math.pi / 3, float(rng.uniform(-1.2, 1.2))),
            rng.normal(size=n_left), rng.normal(size=n_right),
        ))
    return HrirPack(tuple(entries), sample_rate, name="uneven")


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        sources=st.lists(directions, min_size=1, max_size=3),
        n=lengths,
        seed=seeds,
        speakers=st.lists(directions, min_size=4, max_size=10),
        n_azimuths=st.integers(2, 36),
        head_radius=st.floats(0.05, 0.12),
        ild_db=st.floats(0.0, 20.0),
        sample_rate=st.sampled_from([8000, 16000, 22050]),
    )
    @example(
        sources=[(0.3, 0.1)], n=1, seed=0, speakers=TETRAHEDRON,
        n_azimuths=24, head_radius=0.0875, ild_db=6.0, sample_rate=8000,
    )
    @example(
        sources=[(1.2, 0.0), (-0.4, 0.5)], n=131, seed=1, speakers=TETRAHEDRON + [(0.0, 0.0)],
        n_azimuths=7, head_radius=0.1, ild_db=12.0, sample_rate=22050,
    )
    def test_synth_packs_and_random_arrays(
        self, sources, n, seed, speakers, n_azimuths, head_radius, ild_db, sample_rate,
    ):
        arr = speaker_array_or_reject(speakers)
        pack = synth_pack(
            n_azimuths=n_azimuths, head_radius=head_radius, ild_db=ild_db,
            sample_rate=sample_rate,
        )
        assert_matches_oracle(mixed_scene(sources, n, seed, sample_rate), arr, pack)

    @settings(max_examples=30, deadline=None)
    @given(
        sources=st.lists(directions, min_size=1, max_size=3),
        n=lengths,
        seed=seeds,
        pack_seed=seeds,
    )
    @example(sources=[(0.5, -0.2)], n=1, seed=2, pack_seed=3)
    @example(sources=[(-2.0, 0.3), (0.1, 0.0), (1.0, -1.0)], n=131, seed=4, pack_seed=5)
    def test_pack_with_unequal_ear_lengths(self, sources, n, seed, pack_seed):
        pack = uneven_pack(pack_seed)
        assert all(len(e.left_fir) != len(e.right_fir) for e in pack.entries)
        assert_matches_oracle(
            mixed_scene(sources, n, seed, pack.sample_rate), default_speaker_array(), pack
        )

    def test_filter_tail_does_not_wrap(self):
        # a ramp filter: an FFT one sample too short would fold the last
        # full-convolution sample onto the first (for the whole-clip oracle,
        # n + taps - 2 = 128 is 5-smooth)
        taps = np.arange(1.0, 29.0)
        pack = HrirPack((HrirEntry(Direction(0, 0), taps, taps[::-1].copy()),), 16000)
        b = mixed_scene([(0.4, 0.2)], 128 - len(taps) + 2, 3, 16000)
        assert_matches_oracle(b, default_speaker_array(), pack)


class TestDirectRender:
    @settings(max_examples=60, deadline=None)
    @given(direction=directions, n=lengths, seed=seeds, pack_seed=seeds, uneven=st.booleans())
    @example(direction=(0.5, -0.2), n=1, seed=2, pack_seed=3, uneven=True)
    @example(direction=(-2.0, 0.3), n=131, seed=4, pack_seed=5, uneven=True)
    def test_matches_np_convolve_per_ear(self, direction, n, seed, pack_seed, uneven):
        # the nearest pair, shorter ear zero-padded, against each ear's own np.convolve
        pack = uneven_pack(pack_seed) if uneven else synth_pack(n_azimuths=7 + pack_seed % 30)
        source = MonoSignal(np.random.default_rng(seed).normal(size=n), pack.sample_rate)
        got = render_direct_hrir(source, Direction(*direction), pack)
        entry = nearest(pack, Direction(*direction))
        for out, fir in ((got.left, entry.left_fir), (got.right, entry.right_fir)):
            want = np.convolve(source.samples, fir)[:n]
            scale = np.convolve(np.abs(source.samples), np.abs(fir)).max()
            assert np.max(np.abs(out - want)) <= REL_TOL * scale
        firs = _ear_pairs([entry])
        assert_close_to_scale(got.data, whole_clip_convolve(source.data, firs), source.data, firs)


class TestEarFilterCache:
    def test_alternating_pairs_get_their_own_output(self):
        packs = (synth_pack(n_azimuths=24, ild_db=6.0), synth_pack(n_azimuths=8, ild_db=18.0))
        arrays = (
            default_speaker_array(),
            SpeakerArray([Direction(az, el) for az, el in TETRAHEDRON]),
        )
        b = mixed_scene([(0.7, 0.2), (-1.1, -0.3)], 400, 9, 16000)
        outputs = {}
        for a, p in [(0, 0), (1, 1), (0, 1), (1, 0), (0, 0), (1, 0), (0, 1), (1, 1)]:
            got = render_ambisonic_hrir(b, arrays[a], packs[p])
            want, scale = per_speaker_render(b, arrays[a], packs[p])
            np.testing.assert_allclose(got.left, want[0], rtol=0, atol=REL_TOL * scale)
            np.testing.assert_allclose(got.right, want[1], rtol=0, atol=REL_TOL * scale)
            outputs.setdefault((a, p), got.left)
            np.testing.assert_array_equal(got.left, outputs[(a, p)])
        # the four pairs really differ, so a mixed-up cache entry would show
        assert len({o.tobytes() for o in outputs.values()}) == 4

    def test_cache_is_bounded_and_shared_read_only(self):
        maxsize = _ear_filters.cache_info().maxsize
        assert maxsize is not None
        arr = default_speaker_array()
        b = mixed_scene([(0.2, 0.0)], 64, 1, 16000)
        _ear_filters.cache_clear()
        for k in range(maxsize + 3):
            render_ambisonic_hrir(b, arr, synth_pack(n_azimuths=4 + k))
        assert _ear_filters.cache_info().currsize == maxsize
        g = _ear_filters(arr, synth_pack())
        assert g.shape[:2] == (2, 4)
        assert not g.flags.writeable


class TestSourceFactors:
    """A B-format signal keeps factors (gains, rows) of its block and renders
    its rows: one per source for `encode` and a `mix` of fewer than four rows,
    the four channels (I4, data) for any other signal."""

    @pytest.fixture(scope="class")
    def render_scale(self):
        # imported here, not at the top: that module imports this one
        from test_scene_render import render_scale

        return render_scale

    @settings(max_examples=30, deadline=None)
    @given(
        sources=st.lists(directions, min_size=1, max_size=3),
        passes=st.integers(1, 3),
        tail=st.integers(0, 700),
        seed=seeds,
        pack_seed=seeds,
        speakers=st.one_of(st.none(), st.lists(directions, min_size=4, max_size=10)),
    )
    @example(sources=[(0.5, -0.2)], passes=1, tail=0, seed=2, pack_seed=3, speakers=None)
    @example(sources=[(-2.0, 0.3), (0.1, 0.0), (1.0, -1.0)], passes=3, tail=38, seed=4,
             pack_seed=5, speakers=TETRAHEDRON)
    def test_factored_render_matches_the_channel_built_render(
        self, render_scale, sources, passes, tail, seed, pack_seed, speakers,
    ):
        arr = default_speaker_array() if speakers is None else speaker_array_or_reject(speakers)
        pack = uneven_pack(pack_seed)
        # several passes and an odd tail; later sources are shorter, so mix pads their rows
        n = passes * _CHUNK + 2 * tail + 1
        rng = np.random.default_rng(seed)
        monos = [MonoSignal(rng.normal(size=n - k * tail), pack.sample_rate)
                 for k in range(len(sources))]
        dirs = [Direction(az, el) for az, el in sources]
        b = mix([encode(m, d) for m, d in zip(monos, dirs)])
        assert b._factors[1].shape == (len(sources), n)
        got = render_ambisonic_hrir(b, arr, pack).data
        want = render_ambisonic_hrir(BFormat(*b.data, sample_rate=b.sample_rate), arr, pack).data
        metadata = {"sources": [{"azimuth_rad": d.azimuth, "elevation_rad": d.elevation}
                                for d in dirs]}
        scale = render_scale(PseudoPair(None, None, tuple(monos), metadata), arr, pack)
        err = float(np.max(np.abs(got - want)))
        assert err <= REL_TOL * scale, (err, scale)

    @pytest.mark.parametrize("pack", [synth_pack(), uneven_pack(7), synth_pack(n_azimuths=5)],
                             ids=["synth", "uneven", "coarse"])
    def test_channel_built_signal_renders_its_four_channels(self, pack):
        # (I4, data): the filters are the plan's own bytes, so the render is
        # fft_convolve of the channels with the plan, byte for byte
        rng = np.random.default_rng(5)
        b = BFormat(*rng.normal(size=(4, 2 * _CHUNK + 301)), sample_rate=pack.sample_rate)
        for arr in (default_speaker_array(), SpeakerArray([Direction(*d) for d in TETRAHEDRON])):
            want = fft_convolve(b.data, _ear_filters(arr, pack))
            assert render_ambisonic_hrir(b, arr, pack).data.tobytes() == want.tobytes()

    def test_mix_of_four_rows_renders_as_its_channel_built_copy(self):
        arr, pack = default_speaker_array(), synth_pack()
        rng = np.random.default_rng(6)
        parts = [encode(MonoSignal(rng.normal(size=900 + 50 * k)), Direction(az, el))
                 for k, (az, el) in enumerate(TETRAHEDRON)]
        for b in (mix(parts), mix([mix(parts[:2]), parts[2], mix(parts[3:])]), mix(parts * 2)):
            assert b._factors[1] is b.data
            channels = BFormat(*b.data, sample_rate=b.sample_rate)
            want = render_ambisonic_hrir(channels, arr, pack).data.tobytes()
            assert render_ambisonic_hrir(b, arr, pack).data.tobytes() == want

    def test_factors_are_gains_and_rows_of_the_block(self):
        rng = np.random.default_rng(7)
        first = rng.normal(size=300)
        first[:4] = [-0.0, 0.0, 5e-324, -5e-324]
        monos = [MonoSignal(first)] + [MonoSignal(rng.normal(size=300 - 100 * k)) for k in (1, 2)]
        dirs = [Direction(0.3 * k, -0.2 * k) for k in range(3)]
        parts = [encode(m, d) for m, d in zip(monos, dirs)]
        assert parts[0]._factors[1] is monos[0].data  # the source's own block, no copy
        assert parts[0]._factors[1].tobytes() == monos[0].data.tobytes()
        for k in (1, 2, 3):
            b = mix(parts[:k])
            gains, rows = b._factors
            assert gains.shape == (4, k) and rows.shape == (k, 300)
            assert not gains.flags.writeable and not rows.flags.writeable
            np.testing.assert_allclose(gains @ rows, b.data, rtol=0, atol=1e-15)
        channels = BFormat(*b.data)
        assert channels._factors[1] is channels.data
        np.testing.assert_array_equal(channels._factors[0], np.eye(4))

    def test_encode_and_mix_keep_their_channel_bytes(self):
        # data is the product per source and the zero-padded channel sum, as ever
        rng = np.random.default_rng(8)
        monos = [MonoSignal(rng.normal(size=400 - 60 * k)) for k in range(5)]
        dirs = [Direction(1.1 - 0.7 * k, 0.4 - 0.2 * k) for k in range(5)]
        parts = [encode(m, d) for m, d in zip(monos, dirs)]
        for p, m, d in zip(parts, monos, dirs):
            assert p.data.tobytes() == (harmonic_vector(d)[:, None] * m.samples).tobytes()
        for k in range(1, 6):
            want = np.zeros((4, 400))
            for p in parts[:k]:
                want[:, : p.n_samples] += p.data
            assert mix(parts[:k]).data.tobytes() == want.tobytes()

    def test_pickle_round_trip_renders_the_same_bytes(self):
        arr, pack = default_speaker_array(), synth_pack()
        rng = np.random.default_rng(9)
        parts = [encode(MonoSignal(rng.normal(size=700 - 30 * k)), Direction(0.5 * k - 1, 0.1 * k))
                 for k in range(4)]
        signals = [parts[0], mix(parts[:2]), mix(parts[:3]), mix(parts),
                   BFormat(*rng.normal(size=(4, 700)))]
        for b in signals:
            loaded = pickle.loads(pickle.dumps(b))
            assert [f.tobytes() for f in loaded._factors] == [f.tobytes() for f in b._factors]
            assert not any(f.flags.writeable for f in loaded._factors)
            assert loaded.data.tobytes() == b.data.tobytes()
            want = render_ambisonic_hrir(b, arr, pack).data.tobytes()
            assert render_ambisonic_hrir(loaded, arr, pack).data.tobytes() == want


class TestLazyBlock:
    """A source-built signal (`encode`, a `mix` of fewer than four rows) is
    only its factors until something reads its block or a channel: the
    block is built then, once, checked and kept, with the bytes the product
    always had."""

    def test_first_read_builds_the_encoded_product(self):
        samples = np.random.default_rng(10).normal(size=500)
        samples[:6] = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310]
        d = Direction(2.2, -0.4)  # X and Y gains negative: signed zeros flip
        b = encode(MonoSignal(samples), d)
        assert "data" not in vars(b) and b.n_samples == 500
        data = b.data
        assert data.tobytes() == (harmonic_vector(d)[:, None] * samples).tobytes()
        assert not data.flags.writeable and b.data is data
        for name, row in zip("wxyz", data):
            assert getattr(b, name).base is data and getattr(b, name).tobytes() == row.tobytes()
            assert not getattr(b, name).flags.writeable

    def test_a_channel_read_first_builds_the_block_once(self):
        b = encode(MonoSignal(np.arange(1.0, 9.0)), Direction(0.3, 0.2))
        y = b.y
        assert y.base is b.data and b.y is y and b._factors[1].shape == (1, 8)

    def test_encode_allocates_no_block(self):
        source, d = MonoSignal(np.random.default_rng(11).normal(size=10**5)), Direction(0.5, 0.1)
        encode(source, d)  # first-call caches
        tracemalloc.start()
        try:
            b = encode(source, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # building the (4, n) product and its finite mask would take about 3.6 MB
        assert peak < 1024, peak
        assert b._factors[1] is source.data

    def test_built_block_is_still_checked_and_names_its_channel(self):
        huge = MonoSignal(np.full(4, 1e308))
        b = mix([encode(huge, Direction(0.0, 0.0)), encode(huge, Direction(0.1, 0.0))])
        message = "^w channel contains non-finite samples$"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            b.data
        with pytest.raises(AttributeError, match="no attribute 'q'"):
            b.q

    def test_an_attribute_error_inside_the_build_is_not_masked(self, monkeypatch):
        b = encode(MonoSignal(np.ones(3)), Direction(0.0, 0.0))

        def broken(sig, data):
            raise AttributeError("raised inside the build")

        monkeypatch.setattr(ambisonic._Signal, "_store", broken)
        with pytest.raises(AttributeError, match="^raised inside the build$"):
            b.data

    def test_encoded_signal_pickles_as_its_source(self):
        arr, pack = default_speaker_array(), synth_pack()
        b = encode(MonoSignal(np.random.default_rng(12).normal(size=10**4)), Direction(-0.7, 0.2))
        size = len(pickle.dumps(b))
        assert size < b.data.nbytes / 4 + 1024, (size, b.data.nbytes)
        for sig in (b, encode(MonoSignal(np.ones(10**4)), Direction(0.1, 0.1))):
            loaded = pickle.loads(pickle.dumps(sig))  # the second pickled before any read
            assert "data" not in vars(loaded)
            want = render_ambisonic_hrir(sig, arr, pack).data.tobytes()
            assert render_ambisonic_hrir(loaded, arr, pack).data.tobytes() == want
            assert loaded.data.tobytes() == sig.data.tobytes()

    def test_single_source_mix_equals_the_summed_block(self):
        # the block is the product, not a sum into zeros as `mix` once built
        # it: 0.0 + -0.0 gave +0 where the product keeps -0. Only the sign of
        # a zero differs, so the two are equal by ==, and so is every render
        samples = np.random.default_rng(13).normal(size=200)
        samples[:4] = [-0.0, 0.0, -5e-324, 5e-324]
        part = encode(MonoSignal(samples), Direction(2.5, 0.3))
        want = np.zeros((4, 200))
        want += part.data
        got = mix([part]).data
        assert np.array_equal(got, want)
        assert np.signbit(got[0, 0]) and not np.signbit(want[0, 0])
        assert np.abs(got).tobytes() == np.abs(want).tobytes()


class TestFftConvolve:
    def test_matches_np_convolve(self):
        # a (2, n) block through (3, 2, k) filters: each output row is the
        # sum over the two channels of their np.convolve with its filters
        rng = np.random.default_rng(41)
        x_all = rng.normal(size=(2, 300))
        h_all = rng.normal(size=(3, 2, 64))
        for n in range(1, 301):
            x = x_all[:, :n]
            for k in range(1, 65):
                h = h_all[:, :, :k]
                got = fft_convolve(x, h)
                assert got.shape == (3, n)
                for e in range(3):
                    want = sum(np.convolve(x[c], h[e, c])[:n] for c in range(2))
                    scale = sum(np.convolve(np.abs(x[c]), np.abs(h[e, c])) for c in range(2)).max()
                    err = np.max(np.abs(got[e] - want))
                    assert err <= REL_TOL * scale, (n, k, e, err)

    @settings(max_examples=60, deadline=None)
    @given(
        taps=st.sampled_from([1, 28, 200, 512]),
        channels=st.sampled_from([1, 4]),
        edge=st.sampled_from(["1", "L-1", "L", "L+1", "kL", "kL+1", "chunks"]),
        k=st.integers(2, 5),
        tail=st.integers(0, 1500),
        short=st.integers(1, 512),
        seed=seeds,
    )
    @example(taps=28, channels=4, edge="chunks", k=3, tail=38, short=9, seed=0)
    @example(taps=512, channels=1, edge="kL+1", k=2, tail=0, short=200, seed=1)
    def test_matches_whole_clip_oracle_and_np_convolve(
        self, taps, channels, edge, k, tail, short, seed,
    ):
        # n at and around block (L samples) and chunk edges, or several chunks
        # and an odd tail; ear 1's filters have only `short` taps
        step = block_step(taps)
        chunk = max(1, _CHUNK // step) * step
        n = {"1": 1, "L-1": step - 1, "L": step, "L+1": step + 1, "kL": k * step,
             "kL+1": k * step + 1, "chunks": k * chunk + 2 * tail + 1}[edge]
        short = min(short, taps)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(channels, n))
        firs = rng.normal(size=(2, channels, taps))
        firs[1, :, short:] = 0.0
        got = fft_convolve(x, firs)
        assert got.shape == (2, n)
        assert_close_to_scale(got, whole_clip_convolve(x, firs), x, firs)
        assert_close_to_scale(got, einsum_block_convolve(x, firs), x, firs)
        want = [sum(np.convolve(x[c], firs[e, c, : (taps, short)[e]])[:n] for c in range(channels))
                for e in range(2)]
        assert_close_to_scale(got, want, x, firs)

    def test_whole_block_prefix_renders_bitwise_equal(self):
        # a mix renders from its sources' rows, so its prefix is the mix of the
        # sources' prefixes; a channel-built copy renders its four channels, so
        # its prefix is built from the channels' prefixes
        arr, pack = default_speaker_array(), synth_pack()
        step = block_step(_ear_filters(arr, pack).shape[-1])
        per_chunk = _CHUNK // step
        rng = np.random.default_rng(8)
        n = 3 * _CHUNK + 301
        sources = [(rng.normal(size=n), Direction(0.6, 0.1)),
                   (rng.normal(size=n), Direction(-1.0, -0.2))]

        def scene(m):
            return mix([encode(MonoSignal(x[:m], pack.sample_rate), d) for x, d in sources])

        b = scene(n)
        full = render_ambisonic_hrir(b, arr, pack).data
        channels = BFormat(*b.data, sample_rate=b.sample_rate)
        full_channels = render_ambisonic_hrir(channels, arr, pack).data
        for k in (1, 2, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 5):
            m = k * step
            got = render_ambisonic_hrir(scene(m), arr, pack).data
            np.testing.assert_array_equal(got, full[:, :m])
            prefix = BFormat(*channels.data[:, :m], sample_rate=b.sample_rate)
            got = render_ambisonic_hrir(prefix, arr, pack).data
            np.testing.assert_array_equal(got, full_channels[:, :m])

    @pytest.mark.parametrize("taps", [1, 28, 200])
    @pytest.mark.parametrize("blocks", [1, 3, "default", "past n"])
    def test_bytes_do_not_depend_on_the_pass_length(self, monkeypatch, taps, blocks):
        rng = np.random.default_rng(taps)
        n = 2 * _CHUNK + 301
        x, firs = rng.normal(size=(4, n)), rng.normal(size=(2, 4, taps))
        want = fft_convolve(x, firs)
        chunk = {"default": _CHUNK, "past n": n + 1}.get(blocks, blocks * block_step(taps))
        monkeypatch.setattr(binaural, "_CHUNK", chunk)
        np.testing.assert_array_equal(fft_convolve(x, firs), want)

    @pytest.mark.parametrize("layout", ["C", "every other", "Fortran", "reversed", "transposed"])
    @pytest.mark.parametrize("taps", [1, 28, 200])
    def test_bytes_do_not_depend_on_the_layout_of_x(self, layout, taps):
        # the middle passes frame their blocks from x itself, through its strides
        rng = np.random.default_rng(taps)
        x = rng.normal(size=(4, 3 * _CHUNK + 301))
        firs = rng.normal(size=(2, 4, taps))
        if layout == "every other":
            wide = np.zeros((4, 2 * x.shape[1]))
            wide[:, ::2] = x
            view = wide[:, ::2]
        else:
            view = {
                "C": x,
                "Fortran": np.asfortranarray(x),
                "reversed": x[::-1, ::-1].copy()[::-1, ::-1],
                "transposed": x.T.copy().T,
            }[layout]
        np.testing.assert_array_equal(view, x)
        np.testing.assert_array_equal(fft_convolve(view, firs), fft_convolve(x, firs))

    def test_float32_block_renders_as_its_float64_copy(self):
        # blocks viewed in x and blocks copied into the zero-padded buffer
        # must transform at one precision
        x = np.random.default_rng(3).normal(size=(4, 3 * _CHUNK + 301)).astype(np.float32)
        firs = _ear_filters(default_speaker_array(), synth_pack())
        np.testing.assert_array_equal(fft_convolve(x, firs), fft_convolve(x.astype(np.float64), firs))

    @pytest.mark.parametrize("channels, filter_channels", [(4, 1), (1, 4)])
    def test_channel_counts_must_match(self, channels, filter_channels):
        # a size-1 axis would broadcast: one filter over all four channels,
        # or four filters summed over one channel
        x = np.ones((channels, 600))
        firs = np.ones((2, filter_channels, 28))
        with pytest.raises(ValueError) as info:
            fft_convolve(x, firs)
        assert str(info.value) == (f"a {channels}-channel block needs filters over {channels} "
                                   f"channels, got filters over {filter_channels}")

    def test_temporaries_do_not_grow_with_length(self):
        # a (4, 60 s) block at 16 kHz: only the (2, n) result may scale with n
        x = np.random.default_rng(6).normal(size=(4, 60 * 16000))
        firs = _ear_filters(default_speaker_array(), synth_pack())
        tracemalloc.start()
        try:
            out = fft_convolve(x, firs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes <= peak <= out.nbytes + 4 * 2**20, (peak, out.nbytes)

    def test_smooth_length_is_the_next_5_smooth_number(self):
        def is_smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        smooth = [m for m in range(1, 5200) if is_smooth(m)]
        for n in range(1, 5000):
            assert _smooth_length(n) == smooth[bisect.bisect_left(smooth, n)]
