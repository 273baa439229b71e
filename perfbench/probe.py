"""Machine-speed probe, run in a helper process of its own.

Usage: python3 perfbench/probe.py

It reads one number per line from stdin, a minimum total in seconds, runs
speed_probe() at least once and until the probe times sum to that total,
and writes the probe times as one JSON list per line. It exits when stdin
closes. The benchmark keeps one such helper per run, so whatever a library
change does to the measured process (heap, caches, threads) cannot change
the probe times.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PROBE_REF_S = 0.025  # speed_probe() seconds at the reference speed: about its median on a 2-core shared host

_SIGNAL = np.random.default_rng(0).standard_normal(1 << 18)


def speed_probe() -> float:
    """Seconds for two 2^18-point FFT round trips, about 20 ms.

    How long it takes tracks the machine's momentary speed, which on a
    shared host swings by up to 2x over tens of seconds. Large FFTs, which
    do not fit in cache, track the ops' times better than interpreter work
    or small FFTs do: over blocks of ten render_long or eval ops, the ratio
    of op to probe time varied 1.5-5x less.
    """
    start = time.perf_counter()
    for _ in range(2):
        np.fft.irfft(np.fft.rfft(_SIGNAL))
    return time.perf_counter() - start


def probe_batch(min_total_s: float) -> list[float]:
    times = [speed_probe()]
    while sum(times) < min_total_s:
        times.append(speed_probe())
    return times


class Prober:
    """The parent's handle on a probe helper process; close() stops it."""

    ref_s = PROBE_REF_S

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def batch(self, min_total_s: float) -> list[float]:
        self.proc.stdin.write(f"{min_total_s!r}\n")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe helper exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(probe_batch(float(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
