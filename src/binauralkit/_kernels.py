"""Numpy kernels that the benchmark's tracer times as layers of their own.

``overlap_add`` serves ``spectral.istft`` and ``phase_mean_abs`` the
standalone phase metric; ``sum_contributions`` has no caller in the
package. All three stay at this path, rather than beside their callers,
only because ``perfbench/tracer.py`` looks them up by name at
``binauralkit._kernels`` (its ``TRACED`` table). ``abs_phase_diff`` is the
per-bin phase formula that ``phase_mean_abs`` and ``metrics.evaluate``
share.
"""

import numpy as np


def overlap_add(frames: np.ndarray, window: np.ndarray, hop: int, out_len: int):
    """Accumulate windowed frames and the squared-window envelope."""
    frames = np.asarray(frames, dtype=np.float64)
    window = np.asarray(window, dtype=np.float64)
    hop, out_len = int(hop), int(out_len)
    acc = np.zeros(out_len)
    wsq = np.zeros(out_len)
    wsq_frame = window * window
    for t in range(frames.shape[0]):
        off = t * hop
        acc[off:off + frames.shape[1]] += frames[t] * window
        wsq[off:off + frames.shape[1]] += wsq_frame
    return acc, wsq


def sum_contributions(contribs: np.ndarray) -> np.ndarray:
    """Sum an (n_parts, n_samples) stack over axis 0.

    numpy reduces pairwise, which keeps the result independent of how the
    contributing rows were scheduled. No renderer calls this:
    binaural.render_ambisonic_hrir sums the speakers inside its
    precomputed ear filter.
    """
    return np.sum(np.asarray(contribs, dtype=np.float64), axis=0)


def abs_phase_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|wrapped phase(a) - phase(b)| per bin, in [0, pi]; zero bins count as phase 0."""
    return np.abs(np.mod(np.angle(a) - np.angle(b) + np.pi, 2.0 * np.pi) - np.pi)


def phase_mean_abs(a: np.ndarray, b: np.ndarray) -> float:
    """Mean |wrapped phase(a) - phase(b)| over all bins; zero bins count as phase 0."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return float(np.mean(abs_phase_diff(a, b)))
