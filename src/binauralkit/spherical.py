"""Real spherical harmonics (SN3D) and the direction convention shared by the toolkit.

Azimuth is measured counterclockwise from straight ahead when seen from
above, so positive azimuth is the listener's left. Elevation is positive
up from the horizon. Harmonics follow ambisonic practice: real-valued,
Schmidt semi-normalized (SN3D), and without the Condon-Shortley phase.
Oracles built on math libraries that include the phase (e.g.
``scipy.special.lpmv``) must apply a ``(-1)**m`` correction before
comparing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Direction:
    """A source direction on the listening sphere, in radians.

    Any azimuth is accepted and wrapped into [-pi, pi]; elevation must
    already lie in [-pi/2, pi/2].
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        az = float(self.azimuth)
        el = float(self.elevation)
        if not math.isfinite(az) or not math.isfinite(el):
            raise ValueError("direction angles must be finite")
        if not -HALF_PI <= el <= HALF_PI:
            raise ValueError(f"elevation {el} outside [-pi/2, pi/2]")
        object.__setattr__(self, "azimuth", math.remainder(az, math.tau))
        object.__setattr__(self, "elevation", el)

    @classmethod
    def from_degrees(cls, azimuth_deg: float, elevation_deg: float) -> "Direction":
        return cls(math.radians(azimuth_deg), math.radians(elevation_deg))


def _legendre(l: int, m: int, x):
    """P^m_l(x) for 0 <= m <= l, no phase factor; x is a float or a float64 ndarray.

    The same arithmetic runs on both: seed P^m_m = (2m-1)!! (1-x^2)^{m/2},
    then raise l by the standard three-term recurrence
    (l-m) P^m_l = (2l-1) x P^m_{l-1} - (l+m-1) P^m_{l-2}.
    """
    is_array = isinstance(x, np.ndarray)
    pmm = np.ones_like(x) if is_array else 1.0
    if m > 0:
        somx2 = (np.sqrt if is_array else math.sqrt)((1.0 - x) * (1.0 + x))
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


def _order(l: int, m: int) -> int:
    """|m| as an int, or a ValueError unless l and m are integers (numpy's too,
    not bools) with 0 <= |m| <= l."""
    for name, value in (("l", l), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"order {name} must be an integer, got {value!r}")
    if l < 0:
        raise ValueError(f"order l must be non-negative, got {l}")
    m = abs(int(m))
    if m > l:
        raise ValueError(f"|m| = {m} exceeds l = {l}")
    return m


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre P^|m|_l(x) without the Condon-Shortley phase.

    Accepts a scalar (returns a float) or an array (returns an ndarray of
    its shape) for ``x``; |x| must not exceed 1.
    """
    m = _order(l, m)
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        x = float(x)
        in_domain = -1.0 <= x <= 1.0
    else:
        x = np.asarray(x, dtype=np.float64)
        in_domain = bool(np.all(np.abs(x) <= 1.0))
    if not in_domain:  # NaN fails the comparison too
        raise ValueError("argument x must lie in [-1, 1]")
    return _legendre(int(l), m, x)


def sn3d_norm(l: int, m: int) -> float:
    """Schmidt semi-normalization weight N^|m|_l."""
    m = _order(l, m)
    delta = 1.0 if m == 0 else 0.0
    return math.sqrt((2.0 - delta) * math.factorial(l - m) / math.factorial(l + m))


def real_sph_harmonic(l: int, m: int, direction: Direction) -> float:
    """Real SN3D spherical harmonic Y^m_l at a direction.

    cos(m*azimuth) flavors for m >= 0, sin(|m|*azimuth) for m < 0; the
    polar argument is sin(elevation).
    """
    p = assoc_legendre(l, m, math.sin(direction.elevation))
    if m >= 0:
        trig = math.cos(m * direction.azimuth)
    else:
        trig = math.sin(abs(m) * direction.azimuth)
    return sn3d_norm(l, m) * p * trig


def harmonic_vector(direction: Direction) -> np.ndarray:
    """First-order harmonics [Y^0_0, Y^1_1, Y^-1_1, Y^0_1], the W/X/Y/Z gains."""
    cos_el = math.cos(direction.elevation)
    return np.array(
        [
            1.0,
            cos_el * math.cos(direction.azimuth),
            cos_el * math.sin(direction.azimuth),
            math.sin(direction.elevation),
        ]
    )
