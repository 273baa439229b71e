"""Mapping between frontal-image pixel positions and sphere directions.

The image plane is treated as part of a cylinder around the listener:
horizontal pixel position maps linearly to azimuth, vertical position
through an arctangent. Pixel coordinates are normalized to [-1, 1] with
u = -1 at the image's left edge and v = +1 at its top edge. Because the
image is what the listener sees, image-left corresponds to positive
(listener-left) azimuth.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .spherical import Direction


@dataclass(frozen=True)
class FovConfig:
    """Field-of-view geometry of the pseudo image plane.

    theta_v0 is the azimuth at the image border, vert_extent the tangent
    of the top-edge elevation. aspect_hw (height/width) rides along as
    scene metadata.
    """

    theta_v0: float = math.pi / 3
    aspect_hw: float = 0.5
    vert_extent: float = math.pi / 3

    def __post_init__(self):
        if not 0 < self.theta_v0 < math.pi:
            raise ValueError(f"theta_v0 must be in (0, pi), got {self.theta_v0}")
        if not 0 < self.aspect_hw < math.inf:
            raise ValueError(f"aspect_hw must be positive and finite, got {self.aspect_hw}")
        if not 0 < self.vert_extent < math.inf:
            raise ValueError(f"vert_extent must be positive and finite, got {self.vert_extent}")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_FOV = FovConfig()


def pixel_to_direction(u: float, v: float, cfg: FovConfig = DEFAULT_FOV) -> Direction:
    """Map a normalized pixel position to a sphere direction."""
    if not (abs(u) <= 1.0 and abs(v) <= 1.0):  # NaN fails too
        raise ValueError(f"pixel ({u}, {v}) outside the [-1, 1] image frame")
    return Direction(azimuth=-u * cfg.theta_v0, elevation=math.atan(v * cfg.vert_extent))


def direction_to_pixel(direction: Direction, cfg: FovConfig = DEFAULT_FOV) -> tuple[float, float]:
    """Exact inverse of pixel_to_direction for in-FOV directions."""
    if abs(direction.azimuth) > cfg.theta_v0:
        raise ValueError(
            f"azimuth {direction.azimuth} outside the +/-{cfg.theta_v0} field of view"
        )
    t = math.tan(direction.elevation)
    if abs(t) > cfg.vert_extent:
        raise ValueError(
            f"elevation {direction.elevation} outside the vertical field of view"
        )
    return -direction.azimuth / cfg.theta_v0, t / cfg.vert_extent
