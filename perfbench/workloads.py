"""The four workloads: seeded inputs, set-up, one op, and the output checks.

Every workload is closed loop with one client: the runner starts op i+1
only after op i and its checks have finished. Inputs come from the
`--seed` alone, and the library only ever sees the generated inputs.
Library functions are looked up as module attributes at call time, so
the tracer's wrappers see the benchmark's own calls too.

Why these four:
- render_long: a 10 s clip, so the 16 large power-of-two FFT convolutions
  dominate and per-call overhead is noise. No I/O, no metrics.
- dataset: the data-synthesis path. Many short renders, so per-call
  overhead dominates (8·K `nearest()` scans and 16·K small convolutions
  per scene), plus 3-5 WAVs and a JSON file per scene. No metrics.
- eval: the scoring path. STFT, Hilbert and phase work dominate; the
  mask route exercises `istft` and `overlap_add`. No `binaural`, `hrir`
  or `wavio` calls inside an op.
- cli: two fresh CLI processes per op (render, then eval of the rendered
  file), so the package import dominates. It is the only workload that
  pays and measures cold start.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import probe
import tracer
from binauralkit import ambisonic, binaural, hrir, metrics, scenegen, spectral, visualmap

SR = 16000
LONG_S = 10.0
SCENE_S = 0.63
N_LONG = int(round(LONG_S * SR))
N_SCENE = int(round(SCENE_S * SR))
LONG_CLIPS = 4
POOL_CLIPS = 6
DATASET_BATCH = 8
EVAL_WINDOWS = 94
MASK_PERTURBATION = 0.3
REFERENCE_TOL = 1e-9
REPORT_KEYS = ("stft", "env", "mag", "snr_db", "d_phase")
WARMUP = 1 << 30  # op index whose inputs feed the warm-up op
CLI_TIMEOUT_S = 60

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

class CheckFailed(Exception):
    """An op's output failed one of its checks."""


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, keys)])


def make_clip(rng: np.random.Generator, n: int) -> np.ndarray:
    """A peak-normalized harmonic tone with vibrato, tremolo and a noise floor."""
    t = np.arange(n) / SR
    f0 = rng.uniform(110.0, 440.0)
    phase = 2 * np.pi * f0 * (t + 0.002 * np.sin(2 * np.pi * rng.uniform(3, 7) * t))
    x = sum(rng.uniform(0.2, 1.0) / h * np.sin(h * phase + rng.uniform(0, 2 * np.pi)) for h in (1, 2, 3))
    x = x * (0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t))
    x = x + 0.05 * rng.standard_normal(n)
    return x / np.max(np.abs(x))


def draw_pixel(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))


def master_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def run_forked(fn, *args):
    """fn(*args) in a forked child process; returns its result or raises its exception.

    Library calls made this way leave the calling process as it was, so a
    set-up timed in it later still pays every first-call cost.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(write_fd, "wb") as f:
                pickle.dump(outcome, f)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        data = f.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not data:
        raise RuntimeError(f"forked call {getattr(fn, '__name__', fn)} exited {code}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


class ForkServer:
    """A child forked while the caller's library state is fresh. Each call()
    runs fn() in a new grandchild forked from it, so fn starts from that
    fresh state however late the call comes."""

    def __init__(self, fn):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the server: never returns
            status = 1
            try:
                os.close(req_w)
                os.close(resp_r)
                with os.fdopen(resp_w, "wb") as out:
                    while os.read(req_r, 1):
                        try:
                            outcome = (True, run_forked(fn))
                        except Exception as exc:
                            outcome = (False, exc)
                        pickle.dump(outcome, out)
                        out.flush()
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(resp_w)
        self.pid, self.requests, self.responses = pid, req_w, os.fdopen(resp_r, "rb")

    def call(self):
        os.write(self.requests, b"\n")
        ok, value = pickle.load(self.responses)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        os.close(self.requests)
        self.responses.close()
        os.waitpid(self.pid, 0)


def save_synth_pack(pack_dir: Path) -> None:
    hrir.save_pack(hrir.synth_pack(sample_rate=SR), pack_dir)


def render_ground_truth(clip: np.ndarray, pixel: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) of clip rendered at pixel, with the default array and synthetic pack."""
    direction = visualmap.pixel_to_direction(*pixel)
    sig = binaural.render_ambisonic_hrir(
        ambisonic.encode(ambisonic.MonoSignal(clip, SR), direction),
        binaural.default_speaker_array(),
        hrir.synth_pack(sample_rate=SR),
    )
    return sig.left, sig.right


# ---------------------------------------------------------------------------
# output checks; each raises CheckFailed

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_channels(left: np.ndarray, right: np.ndarray, n: int) -> None:
    """Length, finiteness and non-zero energy of each ear."""
    for name, ch in (("left", left), ("right", right)):
        _require(len(ch) == n, f"{name} has {len(ch)} samples, expected {n}")
        _require(bool(np.all(np.isfinite(ch))), f"{name} has non-finite samples")
        _require(float(np.sum(ch * ch)) > 0.0, f"{name} is silent")


def reference_render(clip: np.ndarray, direction, arr, pack) -> tuple[np.ndarray, np.ndarray]:
    """sum_m (D+ psi(d))_m * (x conv h_ear,m), by direct convolution."""
    cos_el = math.cos(direction.elevation)
    psi = np.array(
        [1.0, cos_el * math.cos(direction.azimuth), cos_el * math.sin(direction.azimuth),
         math.sin(direction.elevation)]
    )
    gains = arr.d_pinv @ psi
    n = len(clip)
    left, right = np.zeros(n), np.zeros(n)
    for m, speaker in enumerate(arr.directions):
        entry = hrir.nearest(pack, speaker)
        left += gains[m] * np.convolve(clip, entry.left_fir)[:n]
        right += gains[m] * np.convolve(clip, entry.right_fir)[:n]
    return left, right


def check_against(got: tuple, want: tuple, tol: float = REFERENCE_TOL) -> None:
    scale = max(1.0, max(float(np.max(np.abs(w))) for w in want))
    for name, g, w in zip(("left", "right"), got, want):
        err = float(np.max(np.abs(np.asarray(g) - w)))
        _require(err <= tol * scale, f"{name} differs from the reference by {err:.3e}")


def check_report(values: dict, windows: int) -> None:
    """Five finite metrics off their caps, over the expected window count."""
    for key in REPORT_KEYS:
        _require(key in values, f"report lacks {key!r}")
        _require(math.isfinite(values[key]), f"report {key} is not finite")
    _require(values["windows"] == windows, f"report has {values['windows']} windows, expected {windows}")
    _require(values["stft"] > 0.0, "stft distance is zero; the prediction is not perturbed")
    _require(values["snr_db"] < metrics.SNR_CAP_DB, "snr_db sits at its cap")


def reference_report(gt, pred) -> dict:
    """The five metrics from the standalone functions, window by window for
    SNR and phase."""
    win = int(round(metrics.DEFAULT_WINDOW_S * gt.sample_rate))
    hop = int(round(metrics.DEFAULT_HOP_S * gt.sample_rate))
    starts = range(0, gt.n_samples - win + 1, hop)
    snrs, phases = [], []
    for s in starts:
        g = binaural.BinauralSignal(gt.left[s : s + win], gt.right[s : s + win], gt.sample_rate)
        p = binaural.BinauralSignal(pred.left[s : s + win], pred.right[s : s + win], gt.sample_rate)
        snrs.append(metrics.snr(g, p))
        pred_diff = spectral.stft(ambisonic.MonoSignal(p.left - p.right, gt.sample_rate))
        phases.append(metrics.d_phase(g, pred_diff))
    return {
        "stft": metrics.stft_distance(gt, pred),
        "env": metrics.env_distance(gt, pred),
        "mag": metrics.mag_distance(gt, pred),
        "snr_db": float(np.mean(snrs)),
        "d_phase": float(np.mean(phases)),
        "windows": len(starts),
    }


def check_report_against(values: dict, want: dict, tol: float = REFERENCE_TOL) -> None:
    _require(values["windows"] == want["windows"], "window counts differ from the reference")
    for key in REPORT_KEYS:
        err = abs(values[key] - want[key])
        _require(err <= tol * max(1.0, abs(want[key])), f"{key} differs from the reference by {err:.3e}")


def read_wav_checked(path: Path) -> np.ndarray:
    """Read with scipy directly; a truncated or malformed file fails the check."""
    _require(path.is_file(), f"{path.name} is missing")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rate, data = wavfile.read(path)
        except (ValueError, OSError, wavfile.WavFileWarning) as exc:
            raise CheckFailed(f"{path.name} is unreadable: {exc}") from exc
    _require(rate == SR, f"{path.name} has rate {rate}, expected {SR}")
    return np.asarray(data, dtype=np.float64)


def check_dataset_batch(out_dir: Path, manifest: list, count: int) -> None:
    """Manifest count, scene metadata and the shape and energy of every WAV."""
    _require(len(manifest) == count, f"manifest has {len(manifest)} scenes, expected {count}")
    on_disk = json.loads((out_dir / "manifest.json").read_text())
    _require(on_disk == manifest, "manifest.json differs from the returned manifest")
    for item in manifest:
        meta = json.loads((out_dir / item["scene_json"]).read_text())
        k = len(meta["sources"])
        _require(1 <= k <= scenegen.MAX_SOURCES, f"{item['scene_json']} has {k} sources")
        stereo = read_wav_checked(out_dir / item["binaural_wav"])
        _require(stereo.shape == (N_SCENE, 2), f"{item['binaural_wav']} has shape {stereo.shape}")
        check_channels(stereo[:, 0], stereo[:, 1], N_SCENE)
        stem = item["scene_json"][: -len(".json")]
        for name in [item["mono_wav"]] + [f"{stem}_src{j}.wav" for j in range(k)]:
            mono = read_wav_checked(out_dir / name)
            _require(mono.shape == (N_SCENE,), f"{name} has shape {mono.shape}")
            _require(float(np.sum(mono * mono)) > 0.0, f"{name} is silent")
        _require(not (out_dir / f"{stem}_src{k}.wav").exists(), f"{stem} has a stray source WAV")


def batch_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_cli_render(proc: subprocess.CompletedProcess, out_wav: Path) -> None:
    _require(proc.returncode == 0, f"render exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    stereo = read_wav_checked(out_wav)
    _require(stereo.shape == (N_SCENE, 2), f"rendered WAV has shape {stereo.shape}")
    check_channels(stereo[:, 0], stereo[:, 1], N_SCENE)


def check_cli_eval(proc: subprocess.CompletedProcess, report_path: Path) -> None:
    _require(proc.returncode == 0, f"eval exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    _require(report_path.is_file(), "eval wrote no report")
    try:
        values = json.loads(report_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from exc
    check_report(values, windows=1)


def report_values(report) -> dict:
    return {
        "stft": report.stft_dist, "env": report.env, "mag": report.mag,
        "snr_db": report.snr_db, "d_phase": report.d_phase, "windows": report.windows,
    }


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Seeded inputs (built in __init__, untimed), a timed set-up, and ops.

    Library calls that build inputs run in forked children, so this
    process's library state stays that of a fresh process until set-up.
    The runner calls prepare(i) untimed, op(args) timed, then check(i,
    args, out) and cleanup(args) untimed; finish() runs once at the end
    and close() last of all.
    """

    audio_s_per_op: float
    spawns_processes = False
    setup_repeats = 9  # set-ups per run: this process's, then fresh ones
    probe_ref_s = probe.PROBE_REF_S
    prober = None  # the speed probe helper process, started on first use
    fork_server = None
    # filled only by workloads whose ops run in child processes
    child_spans: tuple = ()
    missing_targets: tuple = ()
    interpreter_s = 0.0
    import_s: tuple = ()
    import_scipy_signal_s: tuple = ()
    command_s: tuple = ()

    def probe_batch(self, min_total_s: float) -> list[float]:
        """At least one speed probe, and more until they sum to min_total_s,
        run in a helper process."""
        if self.prober is None:
            self.prober = probe.Prober()
        return self.prober.batch(min_total_s)

    def speed_factor(self, probes: list[float]) -> float:
        """Median probe time over the reference: above 1 the machine ran
        slower than the reference, and a measured time divided by it is the
        time at reference speed."""
        return float(np.median(probes)) / self.probe_ref_s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pack_dir = workdir / "pack"
        run_forked(save_synth_pack, self.pack_dir)
        self.pack = self.arr = None

    def setup(self) -> float:
        """Load the on-disk pack, build the default array, run one warm-up op.

        Returns the seconds spent in library calls; the warm-up's input
        generation and checks are excluded.
        """
        start = time.perf_counter()
        self.pack = hrir.load_pack(self.pack_dir)
        self.arr = binaural.default_speaker_array()
        elapsed = time.perf_counter() - start
        args = self.prepare(WARMUP, traced=False)
        start = time.perf_counter()
        out = self.op(args)
        elapsed += time.perf_counter() - start
        self.check(WARMUP, args, out)
        self.cleanup(args)
        return elapsed

    def keep_fresh_state(self) -> None:
        """Start the fork server fresh_setup() uses; call it before setup()."""
        self.fork_server = ForkServer(self.setup)

    def fresh_setup(self) -> float:
        """setup() in a process whose library state is as fresh as this one's
        was at keep_fresh_state(), so it pays every first-call cost again."""
        return self.fork_server.call()

    def prepare(self, i: int, traced: bool):
        raise NotImplementedError

    def op(self, args):
        raise NotImplementedError

    def check(self, i: int, args, out) -> None:
        raise NotImplementedError

    def reference_check(self, args, out) -> None:
        """An independent recomputation, run on the first measured op."""

    def cleanup(self, args) -> None:
        pass

    def finish(self) -> None:
        pass

    def close(self) -> None:
        if self.fork_server is not None:
            self.fork_server.close()
            self.fork_server = None
        if self.prober is not None:
            self.prober.close()
            self.prober = None


class RenderLong(Workload):
    audio_s_per_op = LONG_S

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.clips = [
            ambisonic.MonoSignal(make_clip(rng_for(seed, 1, c), N_LONG), SR) for c in range(LONG_CLIPS)
        ]

    def prepare(self, i, traced):
        return self.clips[i % LONG_CLIPS], draw_pixel(rng_for(self.seed, 2, i))

    def op(self, args):
        clip, (u, v) = args
        direction = visualmap.pixel_to_direction(u, v)
        return direction, binaural.render_ambisonic_hrir(ambisonic.encode(clip, direction), self.arr, self.pack)

    def check(self, i, args, out):
        check_channels(out[1].left, out[1].right, N_LONG)

    def reference_check(self, args, out):
        direction, sig = out
        check_against((sig.left, sig.right), reference_render(args[0].samples, direction, self.arr, self.pack))


class Dataset(Workload):
    audio_s_per_op = DATASET_BATCH * SCENE_S

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pool_dir = workdir / "pool"
        pool_dir.mkdir()
        self.pool = tuple(f"clip{c}.wav" for c in range(POOL_CLIPS))
        for c, name in enumerate(self.pool):
            n = int(rng_for(seed, 3, c).integers(N_SCENE // 2, 2 * N_SCENE))
            wavfile.write(pool_dir / name, SR, make_clip(rng_for(seed, 4, c), n).astype(np.float32))
        self.store = scenegen.WavStore(pool_dir)
        self.first_digest = None

    def config(self, i: int, out_dir: Path):
        # A batch's cost follows its scenes' source counts. The warm-up batch
        # is the same under every seed, so set-up does the same work in each run.
        seed = WARMUP if i == WARMUP else self.seed
        return scenegen.DatasetConfig(
            master_seed=master_seed(seed, i), count=DATASET_BATCH, pool=self.pool,
            output_dir=str(out_dir),
        )

    def prepare(self, i, traced):
        return self.config(i, self.workdir / f"batch{i}")

    def op(self, cfg):
        return scenegen.gen_dataset(cfg, self.store, self.pack, self.arr)

    def check(self, i, cfg, out):
        out_dir = Path(cfg.output_dir)
        check_dataset_batch(out_dir, out, DATASET_BATCH)
        if i == 0:
            self.first_digest = batch_digest(out_dir)

    def cleanup(self, cfg):
        shutil.rmtree(cfg.output_dir, ignore_errors=True)

    def finish(self):
        """Regenerate the first batch; (master_seed, index) must fix every byte."""
        cfg = self.config(0, self.workdir / "batch0_again")
        scenegen.gen_dataset(cfg, self.store, self.pack, self.arr)
        digest = batch_digest(Path(cfg.output_dir))
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
        _require(digest == self.first_digest, "regenerated first batch differs byte-wise")


class Eval(Workload):
    audio_s_per_op = LONG_S

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        left, right = run_forked(render_ground_truth, make_clip(rng_for(seed, 5), N_LONG), draw_pixel(rng_for(seed, 6)))
        self.gt = binaural.BinauralSignal(left, right, SR)
        self.gt_left = ambisonic.MonoSignal(self.gt.left, SR)
        self.gt_right = ambisonic.MonoSignal(self.gt.right, SR)
        cfg = spectral.DEFAULT_STFT
        self.mask_shape = (cfg.n_bins, cfg.frame_count(N_LONG))

    def prepare(self, i, traced):
        rng = rng_for(self.seed, 7, i)
        noise = rng.standard_normal(self.mask_shape) + 1j * rng.standard_normal(self.mask_shape)
        return 1.0 + MASK_PERTURBATION / math.sqrt(2) * noise

    def op(self, perturbation):
        md = spectral.mono_and_diff(self.gt_left, self.gt_right)
        mask = spectral.oracle_mask(md.spec_d, md.spec_m)
        mask = spectral.ComplexMask(mask.bins * perturbation)
        diff = spectral.istft(spectral.apply_mask(mask, md.spec_m))
        pred = spectral.reconstruct_lr(md.s_m, diff)
        return pred, metrics.evaluate(self.gt, pred)

    def check(self, i, args, out):
        pred, report = out
        check_channels(pred.left, pred.right, N_LONG)
        check_report(report_values(report), EVAL_WINDOWS)

    def reference_check(self, args, out):
        pred, report = out
        check_report_against(report_values(report), reference_report(self.gt, pred))


class Cli(Workload):
    """One op is two fresh CLI processes: `render` of a mono WAV, then `eval`
    of the rendered file against a reference pair with `--report`.

    Pairing the two keeps the op-latency distribution unimodal, so its
    median does not jump between the render and the eval cost.
    """

    audio_s_per_op = 2 * SCENE_S
    spawns_processes = True
    setup_repeats = 5
    # A fresh interpreter importing numpy tracks process start-up and import
    # speed far better than the FFT probe does.
    probe_ref_s = 0.12

    def probe_batch(self, min_total_s: float) -> list[float]:
        times = []
        while not times or sum(times) < min_total_s:
            proc, elapsed = self.run(["-c", "import numpy"])
            _require(proc.returncode == 0, f"speed probe failed: {proc.stderr.strip()[-300:]}")
            times.append(elapsed)
        return times

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.mono_wav = workdir / "mono.wav"
        self.gt_wav = workdir / "gt.wav"
        clip = make_clip(rng_for(seed, 8), N_SCENE)
        wavfile.write(self.mono_wav, SR, clip.astype(np.float32))
        left, right = run_forked(render_ground_truth, clip, draw_pixel(rng_for(seed, 9)))
        wavfile.write(self.gt_wav, SR, np.stack([left, right], axis=1).astype(np.float32))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = "src" + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.child_spans = []
        self.import_s = []
        self.import_scipy_signal_s = []
        self.command_s = []
        self.interpreter_s = None
        self.missing_targets = set()

    def run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc, time.perf_counter() - start

    def setup(self) -> float:
        """What every CLI call pays before it parses its arguments: a fresh
        interpreter importing the CLI module."""
        proc, elapsed = self.run(["-c", "import binauralkit.cli"])
        _require(proc.returncode == 0, f"importing binauralkit.cli failed: {proc.stderr.strip()[-300:]}")
        return elapsed

    def keep_fresh_state(self) -> None:
        pass  # each set-up is a fresh interpreter already

    fresh_setup = setup

    def prepare(self, i, traced):
        u, v = draw_pixel(rng_for(self.seed, 11, i))
        rendered = self.workdir / f"render{i}.wav"
        report = self.workdir / f"report{i}.json"
        commands = [
            ["render", "--in", str(self.mono_wav), "--out", str(rendered), "--pixel", f"{u:.6f}", f"{v:.6f}"],
            ["eval", "--gt", str(self.gt_wav), "--pred", str(rendered), "--report", str(report)],
        ]
        calls = []
        for k, cmd in enumerate(commands):
            if traced:
                spans_out = self.workdir / f"spans{i}_{k}.json"
                calls.append((["-X", "importtime", str(HERE / "cli_child.py"), str(spans_out), *cmd], spans_out))
            else:
                calls.append((["-m", "binauralkit.cli", *cmd], None))
        return calls, rendered, report

    def op(self, args):
        return [self.run(argv) for argv, _ in args[0]]

    def check(self, i, args, out):
        calls, rendered, report = args
        (render_proc, _), (eval_proc, _) = out
        check_cli_render(render_proc, rendered)
        check_cli_eval(eval_proc, report)
        for (_, spans_out), (proc, wall) in zip(calls, out):
            if spans_out is not None:
                self.record_trace(proc, wall, spans_out)

    def record_trace(self, proc, wall: float, spans_out: Path) -> None:
        traced = json.loads(spans_out.read_text())
        self.child_spans.append(tracer.spans_from_json(traced["spans"]))
        self.missing_targets.update(traced["missing"])
        package, scipy_signal = import_times(proc.stderr)
        if self.interpreter_s is None:
            self.interpreter_s = float(np.median([self.run(["-c", "pass"])[1] for _ in range(3)]))
        self.import_s.append(package)
        self.import_scipy_signal_s.append(scipy_signal)
        self.command_s.append(wall - self.interpreter_s - package)

    def cleanup(self, args):
        calls, rendered, report = args
        for path in [rendered, report] + [spans_out for _, spans_out in calls if spans_out is not None]:
            path.unlink(missing_ok=True)


def import_times(stderr: str) -> tuple[float, float]:
    """(binauralkit, scipy.signal) cumulative import seconds from `-X importtime`.

    The package figure sums every top-level binauralkit entry, e.g. the
    package and `binauralkit.cli`; scipy.signal is counted wherever it is
    first imported.
    """
    package = scipy_signal = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_us = int(parts[1])
        raw = parts[2][1:]
        name = raw.strip()
        if raw == name and (name == "binauralkit" or name.startswith("binauralkit.")):
            package += cumulative_us
        if name == "scipy.signal":
            scipy_signal += cumulative_us
    return package / 1e6, scipy_signal / 1e6


WORKLOADS = {"render_long": RenderLong, "dataset": Dataset, "eval": Eval, "cli": Cli}
