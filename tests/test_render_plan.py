"""The ambisonic renderer's precomputed ear filter against the per-speaker path.

The oracle is the renderer as the processing chain states it: project the
B-format field onto the virtual speakers, convolve each feed with the HRIR
pair nearest its speaker, and sum per ear. Errors are measured against the
largest value the untrimmed per-ear sum could reach before any
cancellation, max(sum_m |feed_m| * |h_ear,m|): FFT rounding spreads over
the whole transform, so it follows that scale and not the size of each
output sample.
"""

import bisect
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from binauralkit.ambisonic import MonoSignal, encode, mix
from binauralkit.binaural import (
    _ear_filters,
    _smooth_length,
    default_speaker_array,
    fft_convolve,
    make_speaker_array,
    project_to_speakers,
    render_ambisonic_hrir,
)
from binauralkit.hrir import HrirEntry, HrirPack, nearest, synth_pack
from binauralkit.spherical import Direction

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


def mixed_scene(sources, n, seed, sample_rate):
    rng = np.random.default_rng(seed)
    return mix([
        encode(MonoSignal(rng.normal(size=n), sample_rate), Direction(az, el))
        for az, el in sources
    ])


def speaker_array_or_reject(speakers):
    try:
        return make_speaker_array([Direction(az, el) for az, el in speakers])
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
            rng.normal(size=n_left), rng.normal(size=n_right), sample_rate,
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
        lowpass_hz=st.one_of(st.none(), st.floats(200.0, 3900.0)),
    )
    @example(
        sources=[(0.3, 0.1)], n=1, seed=0, speakers=TETRAHEDRON,
        n_azimuths=24, head_radius=0.0875, ild_db=6.0, sample_rate=16000, lowpass_hz=None,
    )
    @example(
        sources=[(1.2, 0.0), (-0.4, 0.5)], n=131, seed=1, speakers=TETRAHEDRON + [(0.0, 0.0)],
        n_azimuths=7, head_radius=0.1, ild_db=12.0, sample_rate=22050, lowpass_hz=3000.0,
    )
    def test_synth_packs_and_random_arrays(
        self, sources, n, seed, speakers, n_azimuths, head_radius, ild_db, sample_rate,
        lowpass_hz,
    ):
        arr = speaker_array_or_reject(speakers)
        pack = synth_pack(
            n_azimuths=n_azimuths, head_radius=head_radius, ild_db=ild_db,
            sample_rate=sample_rate, contra_lowpass_hz=lowpass_hz,
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
        # n + taps - 2 = 128 is 5-smooth, so an FFT one sample too short
        # would fold the last full-convolution sample onto the first
        taps = np.arange(1.0, 29.0)
        pack = HrirPack((HrirEntry(Direction(0, 0), taps, taps[::-1].copy(), 16000),), 16000)
        b = mixed_scene([(0.4, 0.2)], 128 - len(taps) + 2, 3, 16000)
        assert_matches_oracle(b, default_speaker_array(), pack)


class TestEarFilterCache:
    def test_alternating_pairs_get_their_own_output(self):
        packs = (synth_pack(n_azimuths=24, ild_db=6.0), synth_pack(n_azimuths=8, ild_db=18.0))
        arrays = (
            default_speaker_array(),
            make_speaker_array([Direction(az, el) for az, el in TETRAHEDRON]),
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


class TestFftConvolve:
    def test_matches_np_convolve(self):
        rng = np.random.default_rng(41)
        x_all = rng.normal(size=300)
        h_all = rng.normal(size=64)
        for n in range(1, 301):
            x = x_all[:n]
            for k in range(1, 65):
                h = h_all[:k]
                want = np.convolve(x, h)[:n]
                scale = np.convolve(np.abs(x), np.abs(h)).max()
                err = np.max(np.abs(fft_convolve(x, h) - want))
                assert err <= REL_TOL * scale, (n, k, err)

    def test_smooth_length_is_the_next_5_smooth_number(self):
        def is_smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        smooth = [m for m in range(1, 5200) if is_smooth(m)]
        for n in range(1, 5000):
            assert _smooth_length(n) == smooth[bisect.bisect_left(smooth, n)]
