"""A pseudo scene is rendered once, from the B-format mix of its sources.

The oracle is the per-source loop `synth_pseudo_pair` used before: render
each encoded source through the virtual array and sum the ears. The
renderer is linear, so the two agree up to rounding. A render convolves
each source's row with its stereo FIR sum_c G[:, c] psi_c, the ear filter G
(2, 4, taps) folded through the source's harmonic gains, and those four
terms can cancel: with every speaker on one HRIR a source straight ahead
renders to rounding noise. So the error is measured against
sum_k max(sum_c |G[ear, c]| * |b_k,c|), the largest value each source's
render could reach before that cancellation; it bounds sum_k max|render_k|
from above.

The scene's B-format signal has the factors of the `mix` of the sources'
`encode`s, so the single render is compared with
`render_ambisonic_hrir(mix([encode(...)]))` byte for byte. A scene stores
only the blocks of the signals it returns, counted through
`_Signal._store`: its B-format block is never built.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binauralkit import ambisonic, scenegen
from binauralkit.ambisonic import MonoSignal, encode, mix, seconds_to_samples
from binauralkit.binaural import (
    BinauralSignal,
    SpeakerArray,
    _ear_filters,
    default_speaker_array,
    render_ambisonic_hrir,
)
from binauralkit.hrir import synth_pack
from binauralkit.scenegen import (
    DatasetConfig,
    PseudoPair,
    SceneSource,
    SceneSpec,
    _fetch,
    _patch_box,
    gen_dataset,
    normalize_amplitude,
    resolve_placement,
    synth_pseudo_pair,
)
from binauralkit.spherical import Direction
from test_render_plan import TETRAHEDRON, directions, speaker_array_or_reject, uneven_pack

REL_TOL = 1e-12


def fit(clip, n):
    """The clip's first n samples, zero-padded to n, as a signal."""
    out = np.zeros(n)
    m = min(clip.n_samples, n)
    out[:m] = clip.samples[:m]
    return MonoSignal(out, clip.sample_rate)


def per_source_pseudo_pair(spec, store, pack, arr):
    """Oracle: the per-source render loop with per-ear sums."""
    n = seconds_to_samples(spec.duration_s, spec.sample_rate, "duration_s")
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
            normalize_amplitude(fit(clip, n)).samples * source.gain,
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
    return PseudoPair(
        binaural=BinauralSignal(left, right, spec.sample_rate),
        mono_mix=MonoSignal(mono_mix, spec.sample_rate),
        per_source_mono=tuple(per_source),
        metadata=metadata,
    )


def render_scale(pair, arr, pack):
    """sum_k max over ears and samples of sum_c |G[ear, c]| * |b_k,c| (convolution)."""
    g = np.abs(_ear_filters(arr, pack))
    total = 0.0
    for src, meta in zip(pair.per_source_mono, pair.metadata["sources"]):
        b = np.abs(encode(src, Direction(meta["azimuth_rad"], meta["elevation_rad"])).data)
        total += max(
            float(sum(np.convolve(b[c], g[ear, c]) for c in range(4)).max()) for ear in range(2)
        )
    return total


def assert_matches_oracle(spec, store, pack, arr):
    got = synth_pseudo_pair(spec, store, pack, arr)
    want = per_source_pseudo_pair(spec, store, pack, arr)
    assert got.metadata == want.metadata
    np.testing.assert_array_equal(got.mono_mix.samples, want.mono_mix.samples)
    assert len(got.per_source_mono) == len(want.per_source_mono)
    for a, b in zip(got.per_source_mono, want.per_source_mono):
        np.testing.assert_array_equal(a.samples, b.samples)
    if len(spec.sources) == 1:  # a one-part mix is the part itself
        np.testing.assert_array_equal(got.binaural.left, want.binaural.left)
        np.testing.assert_array_equal(got.binaural.right, want.binaural.right)
        return
    err = max(
        float(np.max(np.abs(got.binaural.left - want.binaural.left))),
        float(np.max(np.abs(got.binaural.right - want.binaural.right))),
    )
    scale = render_scale(want, arr, pack)
    assert err <= REL_TOL * scale, f"error {err:.3e} vs scale {scale:.3e}"


units = st.floats(-1.0, 1.0)
# no gains in (0, 0.01): near the subnormal range rounding is absolute, not relative
gains = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
scene_sources = st.lists(
    st.tuples(units, units, gains, st.integers(1, 700)), min_size=1, max_size=3
)
packs = st.one_of(
    st.builds(
        lambda n_az, radius, ild: ("synth", n_az, radius, ild),
        st.integers(2, 36), st.floats(0.05, 0.12), st.floats(0.0, 20.0),
    ),
    st.builds(lambda seed: ("uneven", seed), st.integers(0, 2**32 - 1)),
)
arrays = st.one_of(
    st.just("default"), st.just("tetrahedron"), st.lists(directions, min_size=4, max_size=10)
)


def make_pack(kind, sample_rate):
    if kind[0] == "uneven":
        return uneven_pack(kind[1], sample_rate)
    _, n_az, radius, ild = kind
    return synth_pack(n_azimuths=n_az, head_radius=radius, ild_db=ild, sample_rate=sample_rate)


def make_array(kind):
    if kind == "default":
        return default_speaker_array()
    if kind == "tetrahedron":
        return SpeakerArray([Direction(az, el) for az, el in TETRAHEDRON])
    return speaker_array_or_reject(kind)


class TestEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        sources=scene_sources,
        n=st.integers(1, 1200),
        seed=st.integers(0, 2**32 - 1),
        pack_kind=packs,
        array_kind=arrays,
        sample_rate=st.sampled_from([8000, 16000, 22050]),
    )
    @example(
        sources=[(0.3, 0.1, 1.0, 500)], n=400, seed=0, pack_kind=("synth", 24, 0.0875, 6.0),
        array_kind="default", sample_rate=16000,
    )
    @example(
        sources=[(-1.0, 0.0, 0.5, 131), (1.0, 0.0, 1.0, 1000), (0.2, -0.7, 0.0, 7)], n=1000,
        seed=1, pack_kind=("uneven", 5), array_kind="tetrahedron", sample_rate=22050,
    )
    def test_single_render_matches_per_source_loop(
        self, sources, n, seed, pack_kind, array_kind, sample_rate
    ):
        rng = np.random.default_rng(seed)
        store = {}
        scene = []
        for k, (u, v, gain, clip_len) in enumerate(sources):
            store[f"clip{k}"] = MonoSignal(rng.normal(size=clip_len), sample_rate)
            scene.append(SceneSource(f"clip{k}", (u, v), gain=gain))
        spec = SceneSpec(
            sources=tuple(scene), seed=seed, sample_rate=sample_rate, duration_s=n / sample_rate
        )
        assert_matches_oracle(spec, store, make_pack(pack_kind, sample_rate), make_array(array_kind))


class TestOneRenderPerScene:
    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(*args, **kwargs):
            counted.append(args)
            return render_ambisonic_hrir(*args, **kwargs)

        monkeypatch.setattr(scenegen, "render_ambisonic_hrir", counting)
        return counted

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_synth_pseudo_pair_renders_once(self, calls, k):
        rng = np.random.default_rng(k)
        store = {f"clip{j}": MonoSignal(rng.normal(size=200), 16000) for j in range(k)}
        spec = SceneSpec(
            sources=tuple(SceneSource(f"clip{j}", (0.3 * j - 0.3, 0.1)) for j in range(k)),
            sample_rate=16000,
            duration_s=0.01,
        )
        synth_pseudo_pair(spec, store, synth_pack(), default_speaker_array())
        assert len(calls) == 1

    def test_gen_dataset_renders_once_per_scene(self, calls, tmp_path):
        rng = np.random.default_rng(3)
        store = {f"clip{j}": MonoSignal(rng.normal(size=200), 16000) for j in range(5)}
        config = DatasetConfig(
            master_seed=11, count=12, pool=tuple(store), output_dir=str(tmp_path / "out"),
            ratios=(0.2, 0.4, 0.4), duration_s=0.01,
        )
        manifest = gen_dataset(config, store, synth_pack(), default_speaker_array())
        ks = [
            len(json.loads((tmp_path / "out" / m["scene_json"]).read_text())["sources"])
            for m in manifest
        ]
        assert sum(ks) > len(ks)  # the batch holds multi-source scenes
        assert len(calls) == len(manifest) == 12


PACK = synth_pack(n_azimuths=12)
ARR = default_speaker_array()


class TestSceneBlock:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        # (u, v, gain, clip length as a multiple of n): clips shorter and longer than n
        sources=st.lists(
            st.tuples(units, units, st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                      st.floats(0.05, 2.5)),
            min_size=1, max_size=3,
        ),
        n=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sources=[(0.1, 0.2, 0.0, 0.5), (-0.4, 0.0, 1.0, 2.0), (0.5, -0.3, 0.7, 1.0)], n=300,
             seed=0)
    def test_bytes_equal_the_render_of_the_mixed_encodes(self, sources, n, seed):
        rng = np.random.default_rng(seed)
        store = {}
        scene = []
        for k, (u, v, gain, scale) in enumerate(sources):
            store[f"clip{k}"] = MonoSignal(rng.normal(size=max(1, round(scale * n))), 16000)
            scene.append(SceneSource(f"clip{k}", (u, v), gain=gain))
        spec = SceneSpec(sources=tuple(scene), seed=seed, duration_s=n / 16000)
        got = synth_pseudo_pair(spec, store, PACK, ARR)

        scaled = [
            MonoSignal(normalize_amplitude(fit(store[s.audio_ref], n)).samples * s.gain, 16000)
            for s in spec.sources
        ]
        parts = [encode(x, resolve_placement(s, spec.fov)[2]) for x, s in zip(scaled, spec.sources)]
        want = render_ambisonic_hrir(mix(parts), ARR, PACK)
        assert got.binaural.data.tobytes() == want.data.tobytes()
        mono = np.zeros(n)
        for x in scaled:
            mono += x.samples
        assert got.mono_mix.samples.tobytes() == mono.tobytes()
        assert [x.samples.tobytes() for x in got.per_source_mono] == [
            x.samples.tobytes() for x in scaled
        ]


class TestSignalCount:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_scene_stores_k_plus_2_blocks(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        # already-decoded clips, so only the scene's own signals are counted
        store = {
            f"c{j}": MonoSignal(0.3 * rng.normal(size=100 * (j + 1)), 16000) for j in range(k)
        }
        spec = SceneSpec(
            sources=tuple(SceneSource(f"c{j}", (0.3 * j - 0.3, 0.1)) for j in range(k)),
            duration_s=0.01,
        )
        built = []
        store_block = ambisonic._Signal._store

        def counting(sig, data):
            built.append(type(sig).__name__)
            store_block(sig, data)

        monkeypatch.setattr(ambisonic._Signal, "_store", counting)
        pair = synth_pseudo_pair(spec, store, PACK, ARR)
        # one block per source, the mono mix and the binaural pair; the scene's
        # B-format signal is only its factors, and nothing reads its block
        assert sorted(built) == sorted(["MonoSignal"] * (k + 1) + ["BinauralSignal"])
        assert len(pair.per_source_mono) == k
