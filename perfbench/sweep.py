#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --workloads render_long dataset eval cli \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0|1] [--out summary.json]

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
inter-quartile distance as a share of the median, next to the bound
from BENCHMARK.json. Runs are sequential; the seconds per run come from
BENCHMARK.json unless --seconds is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(next(line for line in lines if line.startswith("record "))[len("record "):])
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    all_correct = True
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        all_correct &= all(r["correct"] for r in results)
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        if "wall" in results[0]["record"]:
            for name in results[0]["record"]["wall"]:
                metrics[f"wall.{name}"] = summarize([r["record"]["wall"][name] for r in results])
                metrics[f"wall.{name}"]["unit"] = metrics[name]["unit"]
            metrics["speed_factor"] = summarize([r["record"]["speed_factor"] for r in results])
            metrics["speed_factor"]["unit"] = "ratio"
        summary[workload] = {
            "env": results[0]["record"]["env"],
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
        }
        print(f"{workload}: attempted {summary[workload]['attempted']} failed {summary[workload]['failed']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] < bound / 3 else "  <-- spread >= bound/3"
            bound_txt = f"bound {bound:.2f}" if bound is not None else ""
            print(
                f"  {name:<46} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
                f" spread {m['spread']:.4f} {bound_txt}{flag}"
            )
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": seconds, "trace": args.trace, "workloads": summary}, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
