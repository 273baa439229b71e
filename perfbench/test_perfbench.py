"""Tests for the benchmark's own pieces.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from binauralkit import binaural, hrir, scenegen  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def workdir():
    """A temporary directory inside the checkout, removed afterwards."""
    (HERE / ".tmp").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=HERE / ".tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        (HERE / ".tmp").rmdir()
    except OSError:  # still in use
        pass


def _subdir(root: Path, name: str) -> Path:
    path = root / name
    path.mkdir()
    return path


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# input generation is deterministic in --seed

def test_render_long_inputs_follow_the_seed(workdir):
    a = wl.RenderLong(5, _subdir(workdir, "a"))
    b = wl.RenderLong(5, _subdir(workdir, "b"))
    c = wl.RenderLong(6, _subdir(workdir, "c"))
    for i in range(3):
        (clip_a, px_a), (clip_b, px_b) = a.prepare(i, False), b.prepare(i, False)
        assert np.array_equal(clip_a.samples, clip_b.samples) and px_a == px_b
    assert not np.array_equal(a.clips[0].samples, c.clips[0].samples)
    assert a.prepare(0, False)[1] != c.prepare(0, False)[1]


def test_dataset_inputs_follow_the_seed(workdir):
    a = wl.Dataset(5, _subdir(workdir, "a"))
    b = wl.Dataset(5, _subdir(workdir, "b"))
    c = wl.Dataset(6, _subdir(workdir, "c"))
    assert _files(workdir / "a" / "pool") == _files(workdir / "b" / "pool")
    assert _files(workdir / "a" / "pool") != _files(workdir / "c" / "pool")
    assert a.prepare(3, False).master_seed == b.prepare(3, False).master_seed
    assert a.prepare(3, False).master_seed != c.prepare(3, False).master_seed


def test_eval_inputs_follow_the_seed(workdir):
    a = wl.Eval(5, _subdir(workdir, "a"))
    b = wl.Eval(5, _subdir(workdir, "b"))
    c = wl.Eval(6, _subdir(workdir, "c"))
    assert np.array_equal(a.gt.left, b.gt.left) and np.array_equal(a.gt.right, b.gt.right)
    assert np.array_equal(a.prepare(2, False), b.prepare(2, False))
    assert not np.array_equal(a.gt.left, c.gt.left)
    assert not np.array_equal(a.prepare(2, False), c.prepare(2, False))


def test_cli_inputs_follow_the_seed(workdir):
    a = wl.Cli(5, _subdir(workdir, "a"))
    b = wl.Cli(5, _subdir(workdir, "b"))
    c = wl.Cli(6, _subdir(workdir, "c"))
    assert _files(workdir / "a") == _files(workdir / "b")
    assert _files(workdir / "a") != _files(workdir / "c")
    def pixel(w):
        render_argv = w.prepare(0, False)[0][0][0]
        return render_argv[-2:]  # the seeded --pixel pair

    assert pixel(a) == pixel(b)
    assert pixel(a) != pixel(c)


def test_building_inputs_calls_no_library_function_in_this_process(workdir):
    # the set-up timed later must still pay every first-call cost
    t = tracer.Tracer()
    t.install()
    t.active = True
    try:
        for name, cls in wl.WORKLOADS.items():
            cls(5, _subdir(workdir, name))
    finally:
        t.active = False
        t.uninstall()
    assert t.spans == []


# ---------------------------------------------------------------------------
# self-time arithmetic

def test_self_times_subtract_the_covered_part_of_child_spans():
    spans = [
        tracer.Span(0, None, "root", 0.0, 10.0),
        tracer.Span(1, 0, "a", 1.0, 4.0),
        tracer.Span(2, 0, "b", 3.0, 6.0),  # overlaps a: the union 1..6 counts once
        tracer.Span(3, 1, "a1", 1.5, 2.0),
        tracer.Span(4, 0, "late", 9.5, 12.0),  # only 9.5..10 lies inside root
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.5, 2: 3.0, 3: 0.5, 4: 2.5})


def test_layer_metrics_average_per_op_and_count_distinct_keys():
    render = "binaural.render_ambisonic_hrir"
    spans = [
        tracer.Span(0, None, render, 0.0, 1.0, {"key": (1, 2)}),
        tracer.Span(1, 0, "binaural.fft_convolve", 0.1, 0.3, {"samples": 100}),
        tracer.Span(2, 0, "binaural.fft_convolve", 0.4, 0.5, {"samples": 100}),
        tracer.Span(3, None, render, 2.0, 2.5, {"key": (1, 2)}),
    ]
    setup = [tracer.Span(0, None, "hrir.load_pack", 0.0, 0.25)]
    got = tracer.layer_metrics(spans, 2, setup)
    assert got[f"{render}.calls"] == (1.0, "1/op")
    assert got[f"{render}.self_s"][0] == pytest.approx((0.7 + 0.5) / 2)
    assert got["binaural.fft_convolve.samples"] == (100.0, "samples/op")
    assert got[f"{render}.distinct_ratio"] == (0.5, "ratio")
    assert got["hrir.load_pack.self_s"] == (0.25, "s/setup")
    assert got["metrics.evaluate.calls"] == (0.0, "1/op")


def test_useful_frame_ratio_counts_only_frames_inside_evaluate():
    spans = [
        tracer.Span(0, None, "metrics.evaluate", 0.0, 1.0, {"windows": 2, "useful_frames": 60}),
        tracer.Span(1, 0, "metrics.hilbert", 0.1, 0.2),
        tracer.Span(2, 0, "spectral.stft", 0.3, 0.4, {"frames": 120}),
        tracer.Span(3, None, "spectral.stft", 2.0, 2.1, {"frames": 1000}),
    ]
    got = tracer.layer_metrics(spans, 1, [])
    assert got["spectral.stft.useful_frame_ratio"] == (0.5, "ratio")
    assert got["spectral.stft.frames"] == (1120.0, "frames/op")


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (binaural.nearest, hrir.nearest, scenegen.render_ambisonic_hrir)
    t = tracer.Tracer()
    t.install()
    try:
        assert binaural.nearest is not originals[0] and binaural.nearest.__wrapped__ is originals[0]
        pack, arr = hrir.synth_pack(), binaural.default_speaker_array()
        b = wl.ambisonic.encode(wl.ambisonic.MonoSignal(np.ones(64)), arr.directions[0])
        binaural.render_ambisonic_hrir(b, arr, pack)
        assert t.spans == []  # inactive: nothing recorded
        t.active = True
        binaural.render_ambisonic_hrir(b, arr, pack)
        t.active = False
    finally:
        t.uninstall()
    assert (binaural.nearest, hrir.nearest, scenegen.render_ambisonic_hrir) == originals
    names = [s.name for s in t.spans]
    assert names.count("hrir.nearest") == 8 and names.count("binaural.fft_convolve") == 16
    root = next(s for s in t.spans if s.name == "binaural.render_ambisonic_hrir")
    assert all(s.parent == root.id for s in t.spans if s is not root)


def test_tracer_refuses_a_target_it_cannot_find(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "hrir.gone", ("binauralkit.hrir", "gone"))
    t = tracer.Tracer()
    with pytest.raises(tracer.MissingTarget, match="binauralkit.hrir.gone"):
        t.install()
    t.uninstall()
    monkeypatch.setitem(tracer.TRACED, "hrir.gone", ("binauralkit.no_such_module", "gone"))
    with pytest.raises(tracer.MissingTarget, match="no_such_module"):
        tracer.Tracer().install(hook_imports=True)
    assert binaural.nearest.__name__ == "nearest" and not hasattr(binaural.nearest, "__wrapped__")


def test_tracer_hook_wraps_a_module_imported_after_install(monkeypatch):
    import binauralkit

    old = sys.modules.pop("binauralkit.visualmap")
    monkeypatch.delattr(binauralkit, "visualmap")
    t = tracer.Tracer()
    t.install(hook_imports=True)
    try:
        import binauralkit.visualmap as fresh

        assert fresh is not old and fresh.pixel_to_direction.__wrapped__.__module__ == "binauralkit.visualmap"
        t.active = True
        fresh.pixel_to_direction(0.1, 0.2)
        t.active = False
    finally:
        t.uninstall()
        sys.modules["binauralkit.visualmap"] = old
        binauralkit.visualmap = old
    assert [s.name for s in t.spans] == ["visualmap.pixel_to_direction"]
    assert t.missing == [] and not hasattr(fresh.pixel_to_direction, "__wrapped__")


def test_run_forked_returns_results_and_raises_child_errors():
    assert wl.run_forked(sum, [1, 2, 3]) == 6
    with pytest.raises(wl.CheckFailed, match="boom"):
        wl.run_forked(wl._require, False, "boom")


def test_fork_server_calls_start_from_the_state_it_was_made_in():
    state = [1]
    server = wl.ForkServer(lambda: wl._require(state[0] == 1, "boom") or state[0])
    try:
        state[0] = 2
        assert server.call() == 1 and server.call() == 1
    finally:
        server.close()
    server = wl.ForkServer(lambda: wl._require(state[0] == 1, "boom"))
    try:
        with pytest.raises(wl.CheckFailed, match="boom"):
            server.call()
    finally:
        server.close()


def test_renumber_keeps_process_local_keys_apart():
    one = [tracer.Span(0, None, "hrir.nearest", 0.0, 1.0, {"key": (7,)})]
    two = [tracer.Span(0, None, "hrir.nearest", 0.0, 1.0, {"key": (7,)})]
    merged = tracer.renumber([one, two])
    assert [s.id for s in merged] == [0, 1]
    assert tracer.layer_metrics(merged, 2, [])["hrir.nearest.distinct_ratio"][0] == 1.0


class _ScriptedSpeed(wl.Workload):
    """Ops that do nothing, measured against scripted speed-probe times."""

    audio_s_per_op = 1.0
    probe_ref_s = 0.01

    def __init__(self, probe_times):
        self.probe_times = iter(probe_times)

    def probe_batch(self, min_total_s):
        return [next(self.probe_times)]

    def prepare(self, i, traced):
        return i

    def op(self, args):
        return args

    def check(self, i, args, out):
        pass


def test_each_op_is_scaled_by_the_probes_on_either_side_of_it():
    ops, error = run.measure(_ScriptedSpeed([0.01, 0.03, 0.05]), 0.0, probe=True)
    assert error is None and len(ops) == 1
    assert ops[0].speed == pytest.approx(2.0)  # median(0.01, 0.03) / 0.01
    assert ops[0].scaled_s == pytest.approx(ops[0].seconds / 2.0)
    assert _ScriptedSpeed([]).speed_factor([0.005, 0.02, 0.03]) == pytest.approx(2.0)


def test_op_speed_also_uses_probes_within_the_window():
    # ops at 0-1 s, 10-10.3 s and 10.4-10.7 s; probe batch j ends just before op j
    ops = [run.Op(1.0, True, False, 0.0), run.Op(0.3, True, False, 10.0), run.Op(0.3, True, False, 10.4)]
    probes = [[0.01], [0.02], [0.04], [0.08]]
    run.assign_speeds(_ScriptedSpeed([]), ops, probes, [0.0, 10.0, 10.35, 10.75])
    # op 0 sees only its neighbours; ops 1 and 2 lie within 0.5 s of batches 1-3
    assert [op.speed for op in ops] == pytest.approx([1.5, 4.0, 4.0])


# ---------------------------------------------------------------------------
# metric names and units

def test_every_emitted_name_and_unit_is_well_formed():
    names = {**run.END_TO_END_UNITS, **run.layer_units()}
    for name, unit in names.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail_percentile(list(range(200))) == (179, 90.0)
    value, pct = run.tail_percentile(list(range(30)))
    assert value == 19 and sum(x > value for x in range(30)) == 10
    value, _ = run.tail_percentile([5.0, 1.0, 2.0, 3.0, 4.0, 6.0])
    assert value >= 3.5  # never below the median


def test_import_times_reads_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       2000 |     scipy.signal",
        "import time:        50 |       9000 |   binauralkit.metrics",
        "import time:        10 |      50000 | binauralkit",
        "import time:        20 |        300 | binauralkit.cli",
        "error: something else",
    ])
    assert wl.import_times(stderr) == pytest.approx((0.0503, 0.002))


# ---------------------------------------------------------------------------
# each output check rejects a wrong output

def _render(n=8000, pixel=(0.8, 0.3)):
    rng = wl.rng_for(1, 2)
    clip = wl.ambisonic.MonoSignal(wl.make_clip(rng, n), wl.SR)
    pack, arr = hrir.synth_pack(sample_rate=wl.SR), binaural.default_speaker_array()
    direction = wl.visualmap.pixel_to_direction(*pixel)
    sig = binaural.render_ambisonic_hrir(wl.ambisonic.encode(clip, direction), arr, pack)
    return sig, wl.reference_render(clip.samples, direction, arr, pack)


def test_render_reference_rejects_swapped_ears():
    sig, ref = _render()
    wl.check_against((sig.left, sig.right), ref)
    with pytest.raises(wl.CheckFailed, match="reference"):
        wl.check_against((sig.right, sig.left), ref)


def test_channel_check_rejects_short_nonfinite_or_silent_output():
    sig, _ = _render()
    n = sig.n_samples
    wl.check_channels(sig.left, sig.right, n)
    bad_nan = sig.left.copy()
    bad_nan[5] = np.nan
    for left, right in ((sig.left[:-1], sig.right[:-1]), (bad_nan, sig.right), (sig.left, 0 * sig.right)):
        with pytest.raises(wl.CheckFailed):
            wl.check_channels(left, right, n)


def _eval_pair():
    gt, _ = _render(n=16000)
    rng = np.random.default_rng(0)
    pred = binaural.BinauralSignal(
        gt.left + 0.05 * rng.standard_normal(gt.n_samples),
        gt.right + 0.05 * rng.standard_normal(gt.n_samples),
        gt.sample_rate,
    )
    return gt, pred


def test_eval_reference_rejects_a_wrong_metric():
    gt, pred = _eval_pair()
    values = wl.report_values(wl.metrics.evaluate(gt, pred))
    wl.check_report(values, windows=4)
    want = wl.reference_report(gt, pred)
    wl.check_report_against(values, want)
    for key in wl.REPORT_KEYS:
        with pytest.raises(wl.CheckFailed, match=key):
            wl.check_report_against(dict(values, **{key: values[key] * (1 + 1e-6)}), want)


def test_report_check_rejects_missing_nonfinite_capped_or_miscounted_values():
    gt, pred = _eval_pair()
    good = wl.report_values(wl.metrics.evaluate(gt, pred))
    missing = {k: v for k, v in good.items() if k != "env"}
    for bad in (missing, dict(good, mag=math.nan), dict(good, snr_db=wl.metrics.SNR_CAP_DB), dict(good, windows=3)):
        with pytest.raises(wl.CheckFailed):
            wl.check_report(bad, windows=4)


def _batch(workdir: Path) -> tuple[Path, list]:
    d = wl.Dataset(3, _subdir(workdir, "in"))
    d.setup()
    cfg = d.config(0, workdir / "batch")
    return Path(cfg.output_dir), scenegen.gen_dataset(cfg, d.store, d.pack, d.arr)


def test_dataset_check_rejects_a_truncated_or_missing_wav(workdir):
    out, manifest = _batch(workdir)
    wl.check_dataset_batch(out, manifest, wl.DATASET_BATCH)
    with pytest.raises(wl.CheckFailed, match="manifest"):
        wl.check_dataset_batch(out, manifest[:-1], wl.DATASET_BATCH)
    stereo = out / manifest[0]["binaural_wav"]
    raw = stereo.read_bytes()
    stereo.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(wl.CheckFailed, match=manifest[0]["binaural_wav"]):
        wl.check_dataset_batch(out, manifest, wl.DATASET_BATCH)
    stereo.write_bytes(raw)
    (out / "scene_00001_src0.wav").unlink()
    with pytest.raises(wl.CheckFailed, match="missing"):
        wl.check_dataset_batch(out, manifest, wl.DATASET_BATCH)


def test_dataset_digest_sees_a_single_changed_byte(workdir):
    out, manifest = _batch(workdir)
    before = wl.batch_digest(out)
    path = out / manifest[0]["mono_wav"]
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    assert wl.batch_digest(out) != before


def _proc(code=0):
    return subprocess.CompletedProcess(["binauralkit"], code, "", "error: boom" if code else "")


def test_cli_checks_reject_failures_and_bad_outputs(workdir):
    sig, _ = _render(n=wl.N_SCENE)
    wav = workdir / "out.wav"
    wl.wavfile.write(wav, wl.SR, np.stack([sig.left, sig.right], axis=1).astype(np.float32))
    wl.check_cli_render(_proc(), wav)
    with pytest.raises(wl.CheckFailed, match="exited 1"):
        wl.check_cli_render(_proc(1), wav)
    raw = wav.read_bytes()
    wav.write_bytes(raw[:-400])
    with pytest.raises(wl.CheckFailed):
        wl.check_cli_render(_proc(), wav)

    report = workdir / "report.json"
    good = {"stft": 1.0, "env": 0.5, "mag": 0.7, "snr_db": 12.0, "d_phase": 0.3, "windows": 1}
    report.write_text(json.dumps(good))
    wl.check_cli_eval(_proc(), report)
    with pytest.raises(wl.CheckFailed, match="exited"):
        wl.check_cli_eval(_proc(1), report)
    for bad in ({k: v for k, v in good.items() if k != "d_phase"}, dict(good, stft=math.inf)):
        report.write_text(json.dumps(bad))
        with pytest.raises(wl.CheckFailed):
            wl.check_cli_eval(_proc(), report)
    report.write_text("{")
    with pytest.raises(wl.CheckFailed, match="JSON"):
        wl.check_cli_eval(_proc(), report)


# ---------------------------------------------------------------------------
# the runner end to end

def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_prints_every_layer_metric_and_zero_for_bypassed_layers():
    proc = _run("--workload", "render_long", "--seed", "1", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == run.layer_units()
    assert got["hrir.nearest.calls"]["value"] == 8
    for bypassed in ("metrics.evaluate.calls", "wavio.write_wav.calls", "scenegen.gen_dataset.calls"):
        assert got[bypassed]["value"] == 0


def test_runner_fails_without_a_result_when_the_sources_are_missing(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    proc = _run("--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "binauralkit" in proc.stderr
