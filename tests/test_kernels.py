import numpy as np
import pytest

from binauralkit import _kernels as k


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(51)


def kahan_sum(contribs):
    """Compensated summation over axis 0, one element at a time."""
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


def phase_loop(a, b):
    """Mean |phase difference| folded into [-pi, pi] by branches, bin by bin."""
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


def overlap_add_loop(frames, window, hop):
    """The frame-by-frame overlap-add, one windowed frame per step."""
    count, length = frames.shape
    out_len = max((count - 1) * hop + length, 0)
    acc = np.zeros(out_len)
    wsq = np.zeros(out_len)
    for t in range(count):
        off = t * hop
        acc[off:off + length] += frames[t] * window
        wsq[off:off + length] += window * window
    return acc, wsq


class TestOverlapAdd:
    def test_numpy_path_matches_naive(self, rng):
        frames = rng.normal(size=(12, 64))
        window = rng.normal(size=64) ** 2
        hop = 16
        out_len = 64 + 11 * hop
        acc, wsq = k.overlap_add(frames, window, hop)
        acc2 = np.zeros(out_len)
        wsq2 = np.zeros(out_len)
        for t in range(12):
            for i in range(64):
                acc2[t * hop + i] += frames[t, i] * window[i]
                wsq2[t * hop + i] += window[i] ** 2
        np.testing.assert_allclose(acc, acc2, atol=1e-12)
        np.testing.assert_allclose(wsq, wsq2, atol=1e-12)

    @pytest.mark.parametrize("count, length, hop", [
        (1001, 512, 160),  # the 16 kHz istft
        (12, 64, 16),  # a hop that divides the frame
        (7, 10, 3),  # one that does not
        (9, 64, 64),  # frames that just touch
        (5, 64, 100),  # a hop longer than the frame
        (1, 64, 16),  # a single frame
        (0, 64, 16),  # no frame
        (3, 1, 1),
    ])
    def test_bytes_equal_the_frame_loop(self, rng, count, length, hop):
        frames = rng.normal(size=(count, length)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))
        window = rng.normal(size=length)
        got = k.overlap_add(frames, window, hop)
        want = overlap_add_loop(frames, window, hop)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestSumContributions:
    def test_compensated_body_matches_pairwise(self, rng):
        stack = rng.normal(size=(8, 4096))
        np.testing.assert_allclose(kahan_sum(stack), k.sum_contributions(stack), atol=1e-12)

    def test_order_independent(self, rng):
        stack = rng.normal(size=(8, 1024)) * 1e6
        shuffled = stack[rng.permutation(8)]
        np.testing.assert_allclose(
            k.sum_contributions(stack), k.sum_contributions(shuffled), atol=1e-9
        )


class TestPhaseMeanAbs:
    def test_branch_fold_body_matches_numpy(self, rng):
        a = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
        b = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
        assert phase_loop(a, b) == pytest.approx(k.phase_mean_abs(a, b), abs=1e-12)

    def test_zero_bins_count_as_zero_phase(self):
        a = np.zeros((4, 4), dtype=np.complex128)
        b = np.zeros((4, 4), dtype=np.complex128)
        assert k.phase_mean_abs(a, b) == 0.0

    def test_antiphase_gives_pi(self):
        a = np.ones((4, 4), dtype=np.complex128)
        assert k.phase_mean_abs(a, -a) == pytest.approx(np.pi, abs=1e-12)

    def test_result_bounded_by_pi(self, rng):
        a = rng.normal(size=(32, 8)) + 1j * rng.normal(size=(32, 8))
        b = rng.normal(size=(32, 8)) + 1j * rng.normal(size=(32, 8))
        assert 0.0 <= k.phase_mean_abs(a, b) <= np.pi
