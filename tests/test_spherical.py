import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit.spherical import (
    Direction,
    assoc_legendre,
    harmonic_vector,
    real_sph_harmonic,
    sn3d_norm,
)


def quadrature_integral(f, n_polar=64, n_azimuth=128):
    """Brute-force sphere integral of f(Direction) on a Gauss x longitude grid."""
    nodes, weights = np.polynomial.legendre.leggauss(n_polar)
    azimuths = 2 * np.pi * np.arange(n_azimuth) / n_azimuth
    total = 0.0
    for mu, w in zip(nodes, weights):
        el = math.asin(mu)
        total += w * sum(f(Direction(az, el)) for az in azimuths)
    return total * (2 * np.pi / n_azimuth)


class TestDirection:
    def test_azimuth_wraps_into_range(self):
        assert Direction(3 * math.pi, 0.0).azimuth == pytest.approx(-math.pi)
        assert Direction(math.pi / 2 + 2 * math.pi, 0.0).azimuth == pytest.approx(math.pi / 2)

    def test_elevation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Direction(0.0, math.pi)
        with pytest.raises(ValueError):
            Direction(0.0, float("nan"))

    @given(st.floats(-50.0, 50.0))
    def test_any_azimuth_lands_in_range(self, az):
        d = Direction(az, 0.0)
        assert -math.pi <= d.azimuth <= math.pi


class TestAssocLegendre:
    def test_p00_is_one(self):
        assert assoc_legendre(0, 0, 0.73) == pytest.approx(1.0)

    def test_p01_is_identity(self):
        assert assoc_legendre(1, 0, 0.5) == pytest.approx(0.5)

    def test_p11_no_phase(self):
        # sqrt(1 - x^2) without the Condon-Shortley sign
        assert assoc_legendre(1, 1, 0.0) == pytest.approx(1.0)

    def test_p21_value(self):
        # P^1_2(x) = 3 x sqrt(1-x^2) in the no-phase convention
        assert assoc_legendre(2, 1, 0.5) == pytest.approx(3 * 0.5 * math.sqrt(0.75), abs=1e-12)

    def test_negative_m_uses_abs(self):
        assert assoc_legendre(2, -1, 0.3) == assoc_legendre(2, 1, 0.3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre(1, 2, 0.0)
        with pytest.raises(ValueError):
            assoc_legendre(1, 0, 1.5)
        with pytest.raises(ValueError):
            assoc_legendre(-1, 0, 0.0)

    def test_array_input(self):
        x = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(assoc_legendre(1, 0, x), x)

    def test_array_matches_closed_form(self):
        x = np.random.default_rng(51).uniform(-1, 1, 64)
        np.testing.assert_allclose(assoc_legendre(1, 1, x), np.sqrt(1 - x**2), atol=1e-14)
        np.testing.assert_allclose(assoc_legendre(2, 1, x), 3 * x * np.sqrt(1 - x**2), atol=1e-13)

    def test_array_keeps_shape(self):
        x = np.linspace(-1, 1, 12).reshape(3, 4)
        for l, m in [(0, 0), (1, 0), (3, 2)]:
            assert assoc_legendre(l, m, x).shape == (3, 4)

    @settings(max_examples=200)
    @given(st.integers(0, 8), st.integers(0, 8), st.floats(-1.0, 1.0))
    def test_scalar_equals_one_element_array(self, l, m, x):
        m = min(m, l)
        scalar = assoc_legendre(l, m, x)
        assert type(scalar) is float
        assert scalar == assoc_legendre(l, m, np.array([x]))[0]
        assert scalar == assoc_legendre(l, m, np.float64(x))

    @settings(max_examples=200)
    @given(st.integers(0, 6), st.integers(0, 6), st.floats(-1.0, 1.0))
    def test_matches_scipy_with_phase_correction(self, l, m, x):
        m = min(m, l)
        lpmv = pytest.importorskip("scipy.special").lpmv
        expected = (-1.0) ** m * lpmv(m, l, x)
        assert assoc_legendre(l, m, x) == pytest.approx(expected, abs=1e-10)


class TestSn3dNorm:
    @pytest.mark.parametrize(
        "l,m,expected",
        [
            (0, 0, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (2, 1, math.sqrt(2 * 1 / 6)),  # sqrt(2 * 1!/3!)
        ],
    )
    def test_values(self, l, m, expected):
        assert sn3d_norm(l, m) == pytest.approx(expected, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sn3d_norm(1, 2)


class TestRealSphHarmonic:
    # the three functions of (l, m) check an order alike
    @pytest.mark.parametrize("func", [
        lambda l, m: assoc_legendre(l, m, 0.0),
        sn3d_norm,
        lambda l, m: real_sph_harmonic(l, m, Direction(0.0, 0.0)),
    ], ids=["assoc_legendre", "sn3d_norm", "real_sph_harmonic"])
    @pytest.mark.parametrize("l, m, message", [
        (-1, 0, "order l must be non-negative, got -1"),
        (1, 2, r"\|m\| = 2 exceeds l = 1"),
        (1, -2, r"\|m\| = 2 exceeds l = 1"),
        (1.5, 0, "order l must be an integer, got 1.5"),
        (2, 1.5, "order m must be an integer, got 1.5"),
        (1.9, 1, "order l must be an integer, got 1.9"),
        (2.0, 0, "order l must be an integer, got 2.0"),
        (True, 0, "order l must be an integer, got True"),
        (1, np.True_, re.escape(f"order m must be an integer, got {np.True_!r}")),
    ], ids=["negative l", "m past l", "negative m past l", "fractional l", "fractional m",
            "fractional l past m", "float l", "bool l", "numpy bool m"])
    def test_order_outside_its_range_rejected(self, func, l, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            func(l, m)

    @pytest.mark.parametrize("func", [
        lambda l, m: assoc_legendre(l, m, 0.3),
        sn3d_norm,
        lambda l, m: real_sph_harmonic(l, m, Direction(0.4, 0.3)),
    ], ids=["assoc_legendre", "sn3d_norm", "real_sph_harmonic"])
    def test_numpy_integer_orders_act_as_ints(self, func):
        for l, m in [(0, 0), (1, -1), (2, 1), (3, -2)]:
            assert func(np.int64(l), np.int32(m)) == func(l, m)
            assert func(np.uint8(l), np.int8(m)) == func(l, m)

    def test_omni_term(self):
        for az, el in [(0.0, 0.0), (1.2, -0.7), (-2.5, 1.1)]:
            assert real_sph_harmonic(0, 0, Direction(az, el)) == pytest.approx(1.0)

    def test_first_order_channel_patterns(self):
        assert real_sph_harmonic(1, -1, Direction(math.pi / 2, 0.0)) == pytest.approx(1.0)
        assert real_sph_harmonic(1, 0, Direction(0.0, math.pi / 2)) == pytest.approx(1.0)
        assert real_sph_harmonic(1, 1, Direction(0.0, 0.0)) == pytest.approx(1.0)

    def test_azimuth_periodicity(self):
        for m in (-1, 1):
            a = real_sph_harmonic(1, m, Direction(0.4, 0.1))
            b = real_sph_harmonic(1, m, Direction(0.4 + 2 * math.pi, 0.1))
            assert a == pytest.approx(b, abs=1e-12)

    def test_harmonic_vector_matches_scalars(self):
        d = Direction(0.7, -0.3)
        vec = harmonic_vector(d)
        expected = [
            real_sph_harmonic(0, 0, d),
            real_sph_harmonic(1, 1, d),
            real_sph_harmonic(1, -1, d),
            real_sph_harmonic(1, 0, d),
        ]
        np.testing.assert_allclose(vec, expected, atol=1e-14)


def all_orders(l_max):
    return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


class TestOrthogonality:
    def test_sn3d_self_integral(self):
        # (1/4pi) integral of Y^2 must equal 1/(2l+1) under SN3D
        for l, m in all_orders(2):
            integral = quadrature_integral(lambda d: real_sph_harmonic(l, m, d) ** 2)
            assert integral / (4 * np.pi) == pytest.approx(1.0 / (2 * l + 1), abs=1e-6)

    def test_cross_terms_vanish(self):
        orders = all_orders(2)
        for i, (l1, m1) in enumerate(orders):
            for l2, m2 in orders[i + 1 :]:
                integral = quadrature_integral(
                    lambda d: real_sph_harmonic(l1, m1, d) * real_sph_harmonic(l2, m2, d)
                )
                assert abs(integral) < 1e-6, f"({l1},{m1}) vs ({l2},{m2})"
