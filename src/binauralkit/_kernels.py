"""Hot inner loops, each with a numba-jitted and a pure-numpy implementation.

The overlap-add and Legendre recurrences are loop-carried/scatter
patterns where the jitted path measures ~2x faster; they use numba when
it is importable and the environment variable ``BINAURALKIT_NUMBA`` is
not set to ``0``/``false``. The contribution sum and wrapped-phase mean
vectorize cleanly, and ``benchmarks/bench_kernels.py`` shows numpy
beating their jitted variants, so numpy is their primary path; the jit
variants stay available for the benchmark comparison.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False


def numba_requested(env: str | None = None) -> bool:
    """True unless BINAURALKIT_NUMBA (or `env`) disables the jitted path."""
    if env is None:
        env = os.environ.get("BINAURALKIT_NUMBA", "1")
    return env.strip().lower() not in ("0", "false", "no", "off")


USE_NUMBA = HAVE_NUMBA and numba_requested()


# ---------------------------------------------------------------------------
# associated Legendre recurrence, ambisonic convention (no Condon-Shortley)

def _legendre_body(l, m, x):
    # seed P^m_m = (2m-1)!! (1-x^2)^{m/2}, then raise l by the standard
    # three-term recurrence (l-m) P^m_l = (2l-1) x P^m_{l-1} - (l+m-1) P^m_{l-2}
    pmm = np.ones_like(x)
    if m > 0:
        somx2 = np.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(m):
            pmm = pmm * fact * somx2
            fact += 2.0
    if l == m:
        return pmm
    pmmp1 = x * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pmmp1
    pll = pmmp1
    for ll in range(m + 2, l + 1):
        pll = (x * (2.0 * ll - 1.0) * pmmp1 - (ll + m - 1.0) * pmm) / (ll - m)
        pmm = pmmp1
        pmmp1 = pll
    return pll


legendre_numpy = _legendre_body
if HAVE_NUMBA:
    _legendre_jit = njit(cache=True)(_legendre_body)


def legendre_values(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """P^m_l(x) (m >= 0, no phase factor) evaluated over an array."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if USE_NUMBA:
        return _legendre_jit(l, m, x)
    return legendre_numpy(l, m, x)


# ---------------------------------------------------------------------------
# overlap-add accumulation for the inverse STFT

def _ola_body(frames, window, hop, out_len):
    n_frames, n_fft = frames.shape
    acc = np.zeros(out_len)
    wsq = np.zeros(out_len)
    for t in range(n_frames):
        off = t * hop
        for i in range(n_fft):
            acc[off + i] += frames[t, i] * window[i]
            wsq[off + i] += window[i] * window[i]
    return acc, wsq


def overlap_add_numpy(frames, window, hop, out_len):
    acc = np.zeros(out_len)
    wsq = np.zeros(out_len)
    wsq_frame = window * window
    for t in range(frames.shape[0]):
        off = t * hop
        acc[off:off + frames.shape[1]] += frames[t] * window
        wsq[off:off + frames.shape[1]] += wsq_frame
    return acc, wsq


if HAVE_NUMBA:
    _ola_jit = njit(cache=True)(_ola_body)


def overlap_add(frames: np.ndarray, window: np.ndarray, hop: int, out_len: int):
    """Accumulate windowed frames and the squared-window envelope."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    window = np.ascontiguousarray(window, dtype=np.float64)
    if USE_NUMBA:
        return _ola_jit(frames, window, int(hop), int(out_len))
    return overlap_add_numpy(frames, window, int(hop), int(out_len))


# ---------------------------------------------------------------------------
# order-independent summation of a stack of rows

def _kahan_body(contribs):
    n_parts, n = contribs.shape
    out = np.zeros(n)
    comp = np.zeros(n)
    for m in range(n_parts):
        for i in range(n):
            y = contribs[m, i] - comp[i]
            t = out[i] + y
            comp[i] = (t - out[i]) - y
            out[i] = t
    return out


if HAVE_NUMBA:
    _kahan_jit = njit(cache=True)(_kahan_body)


def sum_contributions(contribs: np.ndarray) -> np.ndarray:
    """Sum an (n_parts, n_samples) stack over axis 0.

    numpy reduces pairwise, which keeps the result independent of how the
    contributing rows were scheduled; the compensated jit variant
    (_kahan_jit) exists for the benchmark but measures slower. No renderer
    calls this: binaural.render_ambisonic_hrir sums the speakers inside
    its precomputed ear filter. It stays for benchmarks/bench_kernels.py
    and for perfbench's tracer, which resolves it by name.
    """
    return np.sum(np.asarray(contribs, dtype=np.float64), axis=0)


sum_contributions_numpy = sum_contributions


# ---------------------------------------------------------------------------
# mean absolute principal-value phase difference between two spectrograms

def _phase_body(a, b):
    rows, cols = a.shape
    acc = 0.0
    for i in range(rows):
        for j in range(cols):
            d = np.arctan2(a[i, j].imag, a[i, j].real) - np.arctan2(
                b[i, j].imag, b[i, j].real
            )
            if d > np.pi:
                d -= 2.0 * np.pi
            elif d < -np.pi:
                d += 2.0 * np.pi
            acc += abs(d)
    return acc / (rows * cols)


if HAVE_NUMBA:
    _phase_jit = njit(cache=True)(_phase_body)


def phase_mean_abs_numpy(a, b):
    d = np.mod(np.angle(a) - np.angle(b) + np.pi, 2.0 * np.pi) - np.pi
    return float(np.mean(np.abs(d)))


def phase_mean_abs(a: np.ndarray, b: np.ndarray) -> float:
    """Mean |wrapped phase(a) - phase(b)| over all bins; zero bins count as phase 0.

    Vectorized numpy outruns the scalar jit loop here (two libm arctan2
    calls per bin dominate), so this stays on the numpy path.
    """
    return phase_mean_abs_numpy(
        np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    )


def warmup() -> None:
    """Trigger JIT compilation of the jit-primary kernels on tiny inputs."""
    x = np.linspace(-0.9, 0.9, 4)
    legendre_values(2, 1, x)
    overlap_add(np.ones((2, 8)), np.ones(8), 4, 12)
