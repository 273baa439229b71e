"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. Timed criteria measure the operation itself.
"""

import hashlib
import math
import time

import numpy as np
import scipy.signal

from binauralkit.ambisonic import MonoSignal, encode
from binauralkit.binaural import decode_wy, default_speaker_array, render_ambisonic_hrir
from binauralkit.hrir import synth_pack
from binauralkit.metrics import evaluate, snr, stft_distance
from binauralkit.scenegen import (
    DatasetConfig,
    SceneSource,
    SceneSpec,
    gen_dataset,
    sample_scene,
    scene_seed,
    synth_pseudo_pair,
)
from binauralkit.spectral import (
    ComplexMask,
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
from binauralkit.spherical import Direction, real_sph_harmonic
from binauralkit.visualmap import direction_to_pixel, pixel_to_direction

SR = 16000


def check(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def rms(x):
    return np.sqrt(np.mean(x**2))


def test_criterion_01_encoding_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = Direction(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        s = MonoSignal(rng.normal(size=SR), SR)
        b = encode(s, d)
        worst = max(worst, np.max(np.abs(b.x**2 + b.y**2 + b.z**2 - b.w**2)))
    elapsed = time.perf_counter() - start
    check(
        1,
        "encoding identity x^2+y^2+z^2 = w^2",
        worst <= 1e-9 and elapsed < 5.0,
        f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_sn3d_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    azimuths = 2 * np.pi * np.arange(128) / 128

    def integral(f):
        total = 0.0
        for mu, w in zip(nodes, weights):
            el = math.asin(mu)
            total += w * sum(f(Direction(az, el)) for az in azimuths)
        return total * (2 * np.pi / 128)

    orders = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    worst_norm = 0.0
    for l, m in orders:
        value = integral(lambda d: real_sph_harmonic(l, m, d) ** 2) / (4 * np.pi)
        worst_norm = max(worst_norm, abs(value - 1.0 / (2 * l + 1)))
    worst_cross = 0.0
    for i, (l1, m1) in enumerate(orders):
        for l2, m2 in orders[i + 1 :]:
            value = integral(
                lambda d: real_sph_harmonic(l1, m1, d) * real_sph_harmonic(l2, m2, d)
            )
            worst_cross = max(worst_cross, abs(value))
    check(
        2,
        "SN3D quadrature norms and orthogonality",
        worst_norm <= 1e-6 and worst_cross < 1e-6,
        f"norm dev {worst_norm:.2e}, cross {worst_cross:.2e}",
    )


def test_criterion_03_decoder_consistency():
    arr = default_speaker_array()
    rng = np.random.default_rng(103)
    psi = rng.normal(size=(4, 1000))
    recovered = arr.d_matrix @ (arr.d_pinv @ psi)
    rel = np.abs(recovered - psi).max() / np.abs(psi).max()
    check(3, "virtual-speaker projection re-encodes exactly", rel <= 1e-9, f"rel err {rel:.2e}")


def test_criterion_04_hard_pan_wy():
    rng = np.random.default_rng(104)
    s = MonoSignal(rng.normal(size=SR), SR)
    out = decode_wy(encode(s, Direction(np.pi / 2, 0.0)))
    right_ok = rms(out.right) <= 1e-9 * rms(out.left)
    left_ok = np.allclose(out.left, 2 * s.samples, rtol=1e-9, atol=1e-12)
    check(
        4,
        "hard-pan W+/-Y",
        right_ok and left_ok,
        f"right/left rms {rms(out.right) / rms(out.left):.2e}",
    )


def test_criterion_05_end_to_end_linearity():
    rng = np.random.default_rng(105)
    store = {
        "a": MonoSignal(rng.normal(size=SR // 2), SR),
        "b": MonoSignal(rng.normal(size=SR // 2), SR),
    }
    pack = synth_pack(n_azimuths=24, ild_db=6.0)
    arr = default_speaker_array()
    s1 = SceneSource("a", (0.35, 0.2), gain=0.9)
    s2 = SceneSource("b", (-0.6, -0.4), gain=0.7)

    def scene(sources):
        return SceneSpec(sources=sources, seed=0, sample_rate=SR, duration_s=0.5)

    both = synth_pseudo_pair(scene((s1, s2)), store, pack, arr).binaural
    one = synth_pseudo_pair(scene((s1,)), store, pack, arr).binaural
    two = synth_pseudo_pair(scene((s2,)), store, pack, arr).binaural
    ref_l = one.left + two.left
    ref_r = one.right + two.right
    scale = max(np.abs(ref_l).max(), np.abs(ref_r).max())
    dev = max(np.abs(both.left - ref_l).max(), np.abs(both.right - ref_r).max()) / scale
    check(5, "two-source scene equals sum of singles", dev <= 1e-6, f"rel dev {dev:.2e}")


def test_criterion_06_ild_itd_sanity():
    rng = np.random.default_rng(106)
    s = MonoSignal(rng.normal(size=SR), SR)
    pack = synth_pack(n_azimuths=24, ild_db=6.0)
    arr = default_speaker_array()
    out = render_ambisonic_hrir(encode(s, Direction(np.pi / 2, 0.0)), arr, pack)
    ild = 20 * np.log10(rms(out.left) / rms(out.right))
    corr = scipy.signal.correlate(out.left, out.right, mode="full")
    lags = scipy.signal.correlation_lags(out.n_samples, out.n_samples, mode="full")
    peak_lag = lags[np.argmax(corr)]
    # negative peak lag: the left channel leads (arrives earlier)
    check(
        6,
        "ambisonic-HRIR ILD/ITD sanity",
        ild >= 3.0 and peak_lag < 0,
        f"ILD {ild:.2f} dB, peak lag {peak_lag}",
    )


def test_criterion_07_stft_round_trip():
    rng = np.random.default_rng(107)
    worst = 0.0
    for seconds in (1.0, 2.7, 10.0):
        x = rng.normal(size=int(seconds * SR))
        back = istft(stft(MonoSignal(x, SR)))
        worst = max(worst, np.linalg.norm(back.samples - x) / np.linalg.norm(x))
    shape = stft(MonoSignal(rng.normal(size=10080), SR)).shape
    check(
        7,
        "STFT round trip and 257x64 geometry",
        worst <= 1e-6 and shape == (257, 64),
        f"max rel {worst:.2e}, shape {shape}",
    )


def test_criterion_08_oracle_mask_pipeline():
    rng = np.random.default_rng(108)
    worst_snr = np.inf
    worst_dist = 0.0
    for _ in range(3):
        base = rng.normal(size=2 * SR)
        left = MonoSignal(base + 0.3 * rng.normal(size=2 * SR), SR)
        right = MonoSignal(0.7 * base + 0.5 * rng.normal(size=2 * SR), SR)
        md = mono_and_diff(left, right)
        mask = oracle_mask(md.spec_d, md.spec_m, eps=1e-8)
        diff = istft(apply_mask(mask, md.spec_m))
        pred = reconstruct_lr(md.s_m, diff)
        from binauralkit.binaural import BinauralSignal

        gt = BinauralSignal(left.samples, right.samples, SR)
        worst_snr = min(worst_snr, snr(gt, pred))
        worst_dist = max(worst_dist, stft_distance(gt, pred))
    check(
        8,
        "oracle-mask reconstruction quality",
        worst_snr >= 60.0 and worst_dist <= 1e-4,
        f"snr {worst_snr:.1f} dB, stft dist {worst_dist:.2e}",
    )


def test_criterion_09_d_phase_flat_prediction_anchor():
    rng = np.random.default_rng(109)
    left = rng.normal(size=10 * SR)
    right = rng.normal(size=10 * SR)
    mono_mix = (left + right) / 2
    from binauralkit.binaural import BinauralSignal

    gt = BinauralSignal(left, right, SR)
    pred = BinauralSignal(mono_mix, mono_mix.copy(), SR)
    evaluate(gt, pred, window_s=0.63, hop_s=0.1)  # warm path end to end
    start = time.perf_counter()
    report = evaluate(gt, pred, window_s=0.63, hop_s=0.1)
    elapsed = time.perf_counter() - start
    check(
        9,
        "flat-prediction difference-phase anchor 1.571",
        abs(report.d_phase - 1.571) <= 0.05 and elapsed < 10.0,
        f"d_phase {report.d_phase:.4f}, {elapsed:.2f}s, {report.windows} windows",
    )


def test_criterion_10_visual_mapping():
    center = pixel_to_direction(0.0, 0.0)
    left_edge = pixel_to_direction(-1.0, 0.0)
    top_edge = pixel_to_direction(0.0, 1.0)
    ok = (
        center.azimuth == 0.0
        and center.elevation == 0.0
        and abs(left_edge.azimuth - np.pi / 3) <= 1e-12
        and left_edge.elevation == 0.0
        and abs(top_edge.elevation - math.atan(np.pi / 3)) <= 1e-12
    )
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(200):
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        u2, v2 = direction_to_pixel(pixel_to_direction(u, v))
        worst = max(worst, abs(u2 - u), abs(v2 - v))
    check(
        10,
        "visual mapping anchors and round trip",
        ok and worst <= 1e-12,
        f"round-trip dev {worst:.2e}",
    )


def test_criterion_11_dataset_determinism_and_ratio(tmp_path):
    rng = np.random.default_rng(111)
    store = {f"c{i}": MonoSignal(rng.normal(size=SR // 8), SR) for i in range(6)}
    pack = synth_pack(n_azimuths=12)
    arr = default_speaker_array()

    def digest(out_dir):
        h = hashlib.sha256()
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                h.update(p.name.encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    def run(out_dir):
        config = DatasetConfig(
            master_seed=42,
            count=6,
            pool=tuple(store),
            output_dir=str(out_dir),
            duration_s=0.05,
        )
        gen_dataset(config, store, pack, arr)
        return digest(out_dir)

    identical = run(tmp_path / "a") == run(tmp_path / "b")

    pool = [f"c{i}" for i in range(6)]
    counts = {1: 0, 2: 0, 3: 0}
    n = 10_000
    for i in range(n):
        counts[len(sample_scene(scene_seed(42, i), pool).sources)] += 1
    freqs = tuple(counts[k] / n for k in (1, 2, 3))
    ratio_ok = all(abs(f - p) <= 0.02 for f, p in zip(freqs, (0.4, 0.5, 0.1)))
    check(
        11,
        "dataset determinism and K ratios",
        identical and ratio_ok,
        f"identical={identical}, freqs={freqs}",
    )


def test_criterion_12_loss_correctness():
    rng = np.random.default_rng(112)
    cfg_frames = 8
    from binauralkit.spectral import DEFAULT_STFT, Spectrogram

    def rand_spec():
        shape = (DEFAULT_STFT.n_bins, cfg_frames)
        return Spectrogram(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    def rand_mask():
        shape = (DEFAULT_STFT.n_bins, cfg_frames)
        return ComplexMask(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    target, source, mix_spec = rand_spec(), rand_spec(), rand_spec()
    sa, sb = rand_spec(), rand_spec()
    mask, ma, mb = rand_mask(), rand_mask(), rand_mask()

    acc = 0.0
    for i in range(target.shape[0]):
        for j in range(target.shape[1]):
            acc += abs(target.bins[i, j] - mask.bins[i, j] * source.bins[i, j]) ** 2
    stereo_oracle = math.sqrt(acc)
    acc = 0.0
    for i in range(sa.shape[0]):
        for j in range(sa.shape[1]):
            acc += abs(sa.bins[i, j] - ma.bins[i, j] * mix_spec.bins[i, j]) ** 2
            acc += abs(sb.bins[i, j] - mb.bins[i, j] * mix_spec.bins[i, j]) ** 2
    sep_oracle = acc

    stereo = loss_stereo(target, mask, source)
    sep = loss_separation(sa, sb, ma, mb, mix_spec)
    total_ok = loss_total(stereo, sep, 1.0) == stereo + sep
    check(
        12,
        "losses match loop oracles",
        abs(stereo - stereo_oracle) <= 1e-9
        and abs(sep - sep_oracle) <= 1e-9
        and total_ok,
        f"stereo dev {abs(stereo - stereo_oracle):.2e}, sep dev {abs(sep - sep_oracle):.2e}",
    )
