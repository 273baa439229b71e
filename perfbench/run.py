#!/usr/bin/env python3
"""Layered benchmark for binauralkit's four user paths: render, dataset, eval, CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {render_long,dataset,eval,cli} \
        --seed N --seconds S --trace {0,1}

It imports binauralkit from the checkout's own `src/` and fails (exit 2,
no result) when that is missing. Inputs are generated from the seed; one
client runs ops back to back for S seconds and every op's output is
checked. Human-readable lines come first, then a `record` line holding
the environment and run details, and last one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones. Their times are
scaled to a reference machine speed: short speed probes run between ops,
outside the timed region and in a helper process of their own (for `cli`,
a fresh interpreter importing numpy), and each op's time is divided by
the median probe time around it over the probe's reference time. On a
shared host whose speed swings by up to 2x within a minute this keeps
run-to-run spread several times smaller; the unscaled figures and the
run's median speed factor are in the record line. `setup_s` is the
median of several set-ups, each in a process whose library state is
fresh: the runner's own before the ops, then processes forked from a
copy of it kept from before that set-up (for `cli`, fresh interpreters),
spread over the run between ops so that no single stretch of host load
sets the median.

With `--trace 1` the metrics are the per-layer ones: ops alternate in
pairs between untraced and traced, the per-layer counts are per traced
op (per set-up for the set-up functions), times are scaled by the run's
median speed factor, and `trace.throughput_ratio` is the traced against
the untraced audio_s_per_s.

BLAS/OpenMP thread counts are pinned to 1 before numpy loads, and the
runner with every process it starts to one CPU; the record line shows the
values found and used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("render_long", "dataset", "eval", "cli")
SETUP_PROBE_S = 0.1  # speed probing before and after each set-up, at least
PROBE_SHARE = 0.05  # probes before an op last at least this share of the op before
SPEED_WINDOW_S = 1.0  # an op's speed factor also uses the probes this close to it
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)
PINNED_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "audio_s_per_s": "audio-s/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
CLI_LAYER_UNITS = {
    "cli.interpreter_s": "s",
    "cli.import_binauralkit_s": "s",
    "cli.import_scipy_signal_s": "s",
    "cli.command_s": "s",
}


@dataclass
class Op:
    seconds: float
    ok: bool
    traced: bool
    start: float = 0.0
    speed: float = 1.0  # speed factor of the machine around this op

    @property
    def scaled_s(self) -> float:
        return self.seconds / self.speed


def pin_threads() -> dict:
    """Pin BLAS/OpenMP pools to one thread (<= nproc); return found and used values."""
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS
    return {"found": found, "used": {var: PINNED_THREADS for var in THREAD_VARS}}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile): p90 from 100 samples up, else the highest
    nearest-rank percentile with at least ten samples above it, never
    below the median."""
    xs = sorted(values)
    n = len(xs)
    k = max(min(math.ceil(0.9 * n) - 1, n - 11), n // 2)
    return xs[k], 100.0 * (k + 1) / n


def throughput(ops: list[Op], audio_s_per_op: float) -> float:
    good = [op.scaled_s for op in ops if op.ok]
    return len(good) * audio_s_per_op / sum(good) if good else 0.0


def pin_cpu() -> dict:
    """Run this process, and every process it starts, on one CPU.

    Ops and speed probes then share the CPU whose speed the probes track:
    on a shared host each CPU's speed varies on its own. The benchmark is
    single-threaded, and the probe helper only runs while the runner waits.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return {"nproc": len(allowed), "cpu": allowed[-1]}


def environment(pinned: dict, cpu: dict, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": find_spec("numba") is not None,
        "BINAURALKIT_NUMBA": os.environ.get("BINAURALKIT_NUMBA"),
        **cpu,
        "seed": seed,
        "threads": pinned,
    }


def scaled_setup(w, setup) -> tuple[float, float]:
    """(set-up seconds at reference speed, wall seconds) of one setup() call."""
    before = w.probe_batch(SETUP_PROBE_S)
    wall = setup()
    return wall / w.speed_factor(before + w.probe_batch(SETUP_PROBE_S)), wall


def measure(w, seconds: float, tr=None, probe: bool = False, interlude=None) -> tuple[list[Op], str | None]:
    """Closed loop, one client, for `seconds`.

    interlude(share), if given, runs after each op and its checks, with
    the share of `seconds` used so far; its own time does not count.

    With a tracer, every other pair of ops is traced. With `probe`, speed
    probes run before and after every op, outside the timed region, and
    each op's speed factor comes from the probes on either side of it and
    any others within SPEED_WINDOW_S of it: one probe batch is too short
    to tell a short op's speed on its own.
    """
    ops: list[Op] = []
    probes: list[list[float]] = []
    probe_ends: list[float] = []
    first_error = None
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        if probe:
            probes.append(w.probe_batch(PROBE_SHARE * (ops[-1].seconds if ops else 0.0)))
            probe_ends.append(time.perf_counter())
        traced = tr is not None and (i // 2) % 2 == 1
        args = w.prepare(i, traced)
        if traced:
            tr.active = True
        t0 = time.perf_counter()
        try:
            out, err = w.op(args), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, exc
        elapsed = time.perf_counter() - t0
        if tr is not None:
            tr.active = False
        if err is None:
            try:
                w.check(i, args, out)
                if i == 0:
                    w.reference_check(args, out)
            except Exception as exc:
                err = exc
        w.cleanup(args)
        ops.append(Op(elapsed, err is None, traced, t0))
        if err is not None and first_error is None:
            first_error = f"op {i}: {type(err).__name__}: {err}"
            traceback.print_exception(err, file=sys.stderr)
        i += 1
        used = time.perf_counter() - start - paused
        # a traced run needs at least one untraced and one traced pair
        if used >= seconds and (tr is None or i >= 4):
            break
        if interlude is not None:
            pause = time.perf_counter()
            interlude(used / seconds)
            paused += time.perf_counter() - pause
    if probe:
        probes.append(w.probe_batch(PROBE_SHARE * ops[-1].seconds))
        probe_ends.append(time.perf_counter())
        assign_speeds(w, ops, probes, probe_ends)
    try:
        w.finish()
    except Exception as exc:
        ops[0].ok = False
        first_error = first_error or f"finish: {type(exc).__name__}: {exc}"
        traceback.print_exception(exc, file=sys.stderr)
    return ops, first_error


def assign_speeds(w, ops: list[Op], probes: list[list[float]], probe_ends: list[float]) -> None:
    """Set each op's speed factor from probe batch k (before op k), k + 1
    (after it) and every batch that ended within SPEED_WINDOW_S of it."""
    for k, op in enumerate(ops):
        lo, hi = op.start - SPEED_WINDOW_S, op.start + op.seconds + SPEED_WINDOW_S
        near = [
            t for j, batch in enumerate(probes)
            if j in (k, k + 1) or lo <= probe_ends[j] <= hi
            for t in batch
        ]
        op.speed = w.speed_factor(near)


def timings(setups: list[float], good: list[float], audio_s_per_op: float) -> dict:
    """The timed end-to-end metrics from set-up and successful op seconds."""
    p90, _ = tail_percentile(good)
    return {
        "setup_s": statistics.median(setups),
        "audio_s_per_s": len(good) * audio_s_per_op / sum(good),
        "op_p50_ms": 1e3 * statistics.median(good),
        "op_p90_ms": 1e3 * p90,
    }


def end_to_end(w, seconds: float) -> tuple[dict, list[Op], dict]:
    w.keep_fresh_state()
    setups = [scaled_setup(w, w.setup)]  # the runner's own leaves it ready for the ops
    fresh = w.setup_repeats - 1

    def interlude(share: float) -> None:
        if len(setups) - 1 < fresh and share >= (len(setups) - 1) / fresh:
            setups.append(scaled_setup(w, w.fresh_setup))

    ops, first_error = measure(w, seconds, probe=True, interlude=interlude)
    while len(setups) - 1 < fresh:
        setups.append(scaled_setup(w, w.fresh_setup))
    good = [op for op in ops if op.ok]
    if not good:
        raise RuntimeError(f"no op succeeded; first error: {first_error}")
    who = resource.RUSAGE_CHILDREN if w.spawns_processes else resource.RUSAGE_SELF
    values = timings([s for s, _ in setups], [op.scaled_s for op in good], w.audio_s_per_op)
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    details = {
        "speed_factor": statistics.median(op.speed for op in good),
        "wall": timings([wall for _, wall in setups], [op.seconds for op in good], w.audio_s_per_op),
        "setup_samples_s": setups,
        "op_p90_percentile": tail_percentile([op.seconds for op in good])[1],
        "op_samples": len(good),
        "first_error": first_error,
    }
    return values, ops, details


def per_layer(w, seconds: float) -> tuple[dict, list[Op], dict]:
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.active = True
        w.setup()
        tr.active = False
        setup_spans = tr.take()
        ops, first_error = measure(w, seconds, tr=tr, probe=True)
    finally:
        tr.active = False
        tr.uninstall()
    missing = sorted(set(tr.missing) | set(w.missing_targets))
    if missing:
        raise tracer.MissingTarget(f"traced functions not found: {missing}; update TRACED")
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    op_spans = tracer.renumber([tr.spans, *w.child_spans])
    values = {name: v for name, (v, _) in tracer.layer_metrics(op_spans, len(traced), setup_spans).items()}
    values["cli.interpreter_s"] = w.interpreter_s or 0.0
    values["cli.import_binauralkit_s"] = _median_or_zero(w.import_s)
    values["cli.import_scipy_signal_s"] = _median_or_zero(w.import_scipy_signal_s)
    values["cli.command_s"] = _median_or_zero(w.command_s)
    plain = throughput(untraced, w.audio_s_per_op)
    values["trace.throughput_ratio"] = throughput(traced, w.audio_s_per_op) / plain if plain else 0.0
    speed = statistics.median(op.speed for op in ops)
    units = layer_units()
    for name, unit in units.items():
        if unit == "s" or unit.startswith("s/"):
            values[name] /= speed  # to reference speed, as the end-to-end times
    details = {
        "speed_factor": speed,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "first_error": first_error,
    }
    return {k: (values[k], u) for k, u in units.items()}, ops, details


def _median_or_zero(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_units() -> dict:
    """Every per-layer metric name with its unit, as a traced run emits them."""
    units = {name: u for name, (_, u) in tracer.layer_metrics([], 0, []).items()}
    units.update(CLI_LAYER_UNITS)
    units["trace.throughput_ratio"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "binauralkit" / "__init__.py").is_file():
        print(f"error: no binauralkit sources under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_threads()
    cpu = pin_cpu()
    sys.path.insert(0, str(SRC))
    import binauralkit

    if Path(binauralkit.__file__).resolve().parent != SRC / "binauralkit":
        print(f"error: binauralkit was imported from {binauralkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    (HERE / ".tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".tmp"))
    w = None
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, ops, details = per_layer(w, args.seconds)
        else:
            values, ops, details = end_to_end(w, args.seconds)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        if w is not None:
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".tmp").rmdir()
        except OSError:
            pass

    failed = sum(not op.ok for op in ops)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        **details,
        "env": environment(pinned, cpu, args.seed),
    }
    print(f"{args.workload}  seed {args.seed}  ops {len(ops)}  fail_ratio {failed / len(ops):.4f} failed/attempted")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
