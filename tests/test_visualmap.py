import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binauralkit.hrir import _from_json
from binauralkit.spherical import Direction
from binauralkit.visualmap import (
    DEFAULT_FOV,
    FovConfig,
    direction_to_pixel,
    pixel_to_direction,
)


class TestFovConfig:
    def test_defaults(self):
        assert DEFAULT_FOV.theta_v0 == pytest.approx(math.pi / 3)
        assert DEFAULT_FOV.aspect_hw == pytest.approx(0.5)
        assert DEFAULT_FOV.vert_extent == pytest.approx(math.pi / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FovConfig(theta_v0=0.0)
        with pytest.raises(ValueError):
            FovConfig(aspect_hw=-1.0)
        with pytest.raises(ValueError):
            FovConfig(vert_extent=0.0)

    @pytest.mark.parametrize("key", ["aspect_hw", "vert_extent"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_are_named(self, key, value):
        # NaN fails every comparison, so the check is written as 0 < x < inf
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite, got {value}$"):
            FovConfig(**{key: value})

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"theta_v0": 1.0, "aspect_hw": 0.4, "vert_extent": 0.9, "vert_extnt": 0.9},
             "unknown keys in fov: vert_extnt"),
            ([1.0, 0.4, 0.9], "fov is not a JSON object"),
        ],
        ids=["unknown-key", "list"],
    )
    def test_reader_takes_an_object_of_its_keys_only(self, raw, message):
        with pytest.raises(ValueError) as info:
            _from_json(raw, FovConfig, "fov")
        assert str(info.value) == message

    def test_reader_fills_a_missing_key_with_its_default(self):
        raw = {"theta_v0": 1.0, "aspect_hw": 0.4}
        assert _from_json(raw, FovConfig, "fov") == FovConfig(theta_v0=1.0, aspect_hw=0.4)

    def test_dict_round_trip(self):
        cfg = FovConfig(theta_v0=1.0, aspect_hw=0.4, vert_extent=0.9)
        assert _from_json(cfg.to_dict(), FovConfig, "fov") == cfg


class TestForwardMap:
    def test_center_is_straight_ahead(self):
        d = pixel_to_direction(0.0, 0.0)
        assert d.azimuth == 0.0
        assert d.elevation == 0.0

    def test_left_edge_is_positive_border_azimuth(self):
        d = pixel_to_direction(-1.0, 0.0)
        assert d.azimuth == pytest.approx(math.pi / 3)
        assert d.elevation == 0.0

    def test_top_edge_elevation(self):
        d = pixel_to_direction(0.0, 1.0)
        assert d.elevation == pytest.approx(math.atan(math.pi / 3))

    def test_out_of_frame_rejected(self):
        with pytest.raises(ValueError):
            pixel_to_direction(1.2, 0.0)
        with pytest.raises(ValueError):
            pixel_to_direction(0.0, -1.01)

    @pytest.mark.parametrize("u, v", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_pixel_is_outside_the_frame(self, u, v):
        with pytest.raises(ValueError) as info:
            pixel_to_direction(u, v)
        assert str(info.value) == f"pixel ({u}, {v}) outside the [-1, 1] image frame"

    def test_azimuth_strictly_decreasing_in_u(self):
        us = np.linspace(-1, 1, 21)
        azimuths = [pixel_to_direction(u, 0.0).azimuth for u in us]
        assert all(a > b for a, b in zip(azimuths, azimuths[1:]))
        assert azimuths[0] == pytest.approx(DEFAULT_FOV.theta_v0)
        assert azimuths[-1] == pytest.approx(-DEFAULT_FOV.theta_v0)

    def test_elevation_strictly_increasing_in_v(self):
        vs = np.linspace(-1, 1, 21)
        elevations = [pixel_to_direction(0.0, v).elevation for v in vs]
        assert all(a < b for a, b in zip(elevations, elevations[1:]))


class TestInverseMap:
    def test_center(self):
        assert direction_to_pixel(Direction(0.0, 0.0)) == (0.0, 0.0)

    def test_border(self):
        u, v = direction_to_pixel(Direction(math.pi / 3, 0.0))
        assert u == pytest.approx(-1.0)
        assert v == 0.0

    def test_out_of_fov_rejected(self):
        with pytest.raises(ValueError):
            direction_to_pixel(Direction(math.pi / 2, 0.0))
        with pytest.raises(ValueError):
            direction_to_pixel(Direction(0.0, math.pi / 2 - 1e-6))

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_round_trip_identity(self, u, v):
        d = pixel_to_direction(u, v)
        u2, v2 = direction_to_pixel(d)
        assert u2 == pytest.approx(u, abs=1e-12)
        assert v2 == pytest.approx(v, abs=1e-12)

    def test_round_trip_from_direction_side(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = Direction(
                rng.uniform(-DEFAULT_FOV.theta_v0, DEFAULT_FOV.theta_v0),
                rng.uniform(-0.8, 0.8) * math.atan(DEFAULT_FOV.vert_extent),
            )
            u, v = direction_to_pixel(d)
            d2 = pixel_to_direction(u, v)
            assert d2.azimuth == pytest.approx(d.azimuth, abs=1e-12)
            assert d2.elevation == pytest.approx(d.elevation, abs=1e-12)
