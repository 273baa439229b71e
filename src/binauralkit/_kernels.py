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


def overlap_add(frames: np.ndarray, window: np.ndarray, hop: int):
    """Accumulate windowed frames and the squared-window envelope.

    Frame t starts at sample t * hop, so both sums span the
    max((frames - 1) * hop + frame length, 0) samples the frames cover.
    Each frame is cut into pieces of hop samples, and piece k of every
    frame is added at once through a (frames, hop) view of the output,
    from the last piece to the first: so each sample adds its frames in
    ascending order, as a loop over the frames would.
    """
    count, length = frames.shape
    pieces = -(-length // hop)
    # room for whole pieces past the last frame's end; cut off on return
    size = (count + pieces - 1) * hop
    acc = np.zeros(size)
    wsq = np.zeros(size)
    wsq_frame = window * window
    for k in reversed(range(pieces)):
        cols = slice(k * hop, min((k + 1) * hop, length))
        width = cols.stop - cols.start
        span = slice(k * hop, (k + count) * hop)  # row t: where piece k of frame t lands
        acc[span].reshape(count, hop)[:, :width] += frames[:, cols] * window[cols]
        wsq[span].reshape(count, hop)[:, :width] += wsq_frame[cols]
    covered = max((count - 1) * hop + length, 0)
    return acc[:covered], wsq[:covered]


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
    return float(np.mean(abs_phase_diff(a, b)))
