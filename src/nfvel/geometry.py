"""Array and target geometry for a monostatic radar with a linear receive array.

The array lies on the x axis, centred on the origin.  A scatterer at range
``d`` and angle ``theta`` (measured from the y axis, positive toward +x) sits
at ``(d*sin(theta), d*cos(theta))``.  Element indices live on a symmetric grid
``k in {-(K-1)/2, ..., (K-1)/2}`` with unit step, so they are half-integers
when the element count is even; the same convention is reused for the
slow-time and subcarrier grids elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import SPEED_OF_LIGHT

__all__ = [
    "ArrayGeometry",
    "DegenerateGeometryError",
    "TargetState",
    "distance_to_element",
    "element_distances",
    "radial_projection_coeff",
    "radial_projection_coeffs",
    "symmetric_index_grid",
    "transverse_projection_coeff",
    "transverse_projection_coeffs",
]

# Relative distance below which a target is taken to sit on an element.
_COINCIDENCE_RTOL = 1e-12
# Points per block of per-point work and of the 2x2 inverse.  On fig4's default map a
# block of 2**11 or 2**12 gives the same peak; 2**13 adds 0.3 MB and 2**14 1.0 MB.
_POINT_BLOCK = 2**12


class DegenerateGeometryError(ValueError):
    """Raised when the target coincides with an array element or the array centre."""

    def __init__(
        self, message: str = "target sits on an array element or the array centre; check distance"
    ) -> None:
        super().__init__(message)


def _require_positive(**values) -> None:
    """Raise a ``ValueError`` naming the first key whose value, or any entry of it, is not above 0."""
    for key, value in values.items():
        if not np.all(np.asarray(value) > 0.0):
            raise ValueError(f"{key} must be positive, got {value!r}")


def _row_blocks(count: int, step: int = _POINT_BLOCK):
    """Slices of at most ``step`` rows covering ``range(count)``."""
    return (slice(start, start + step) for start in range(0, count, step))


def _per_point(function, *arrays) -> np.ndarray:
    """``function`` of the Python floats at each index of equal-shape float arrays, as a float array.

    ``math`` functions round as published values pin, where numpy's vectorised
    forms may differ in the last bit.  The floats are listed one block at a time,
    so a call holds one block's Python objects however many points it has.
    """
    flat = [np.asarray(a, dtype=float).reshape(-1) for a in arrays]
    out = np.empty(flat[0].size)
    for rows in _row_blocks(out.size):
        block = [a[rows].tolist() for a in flat]
        out[rows] = np.fromiter(map(function, *block), float, len(block[0]))
    return out.reshape(np.shape(arrays[0]))


def symmetric_index_grid(count: int) -> np.ndarray:
    """Return ``count`` indices centred on zero with unit step.

    Integers for odd counts, half-integers for even counts.  Either way the
    grid is symmetric and ``sum(grid**2) == count*(count**2 - 1)/12``.
    """
    if count < 1:
        raise ValueError(f"grid needs at least one point, got {count}")
    return np.arange(count, dtype=float) - (count - 1) / 2.0


def _cos_angle(angle: float) -> float:
    # Evaluated as sin(pi/2 - |angle|) so that angle == +/-pi/2 (the float
    # constant) yields exactly 0.0 rather than ~6e-17; end-fire geometry must
    # produce an exactly null transverse projection.
    return math.sin(math.pi / 2.0 - abs(angle))


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array on the x axis.

    Parameters
    ----------
    num_elements:
        Element count ``K >= 1``.
    spacing:
        Inter-element spacing in metres, ``> 0``.
    """

    num_elements: int
    spacing: float

    def __post_init__(self) -> None:
        if not isinstance(self.num_elements, (int, np.integer)) or self.num_elements < 1:
            raise ValueError(f"num_elements must be a positive integer, got {self.num_elements!r}")
        _require_positive(spacing=self.spacing)

    @classmethod
    def half_wavelength(cls, num_elements: int, carrier: float) -> "ArrayGeometry":
        """Array with spacing set to half the carrier wavelength."""
        _require_positive(carrier=carrier)
        return cls(num_elements=num_elements, spacing=SPEED_OF_LIGHT / (2.0 * carrier))

    @cached_property
    def element_x_positions(self) -> np.ndarray:
        """x coordinate of every element, metres, ascending."""
        positions = symmetric_index_grid(self.num_elements) * self.spacing
        positions.setflags(write=False)
        return positions

    @property
    def aperture(self) -> float:
        """End-to-end array length ``(K - 1) * spacing`` in metres."""
        return (self.num_elements - 1) * self.spacing


@dataclass(frozen=True)
class TargetState:
    """Scatterer position and velocity in the array plane.

    ``radial_velocity`` is the speed toward the array centre;
    ``transverse_velocity`` is the in-plane component perpendicular to that,
    positive toward +x when the target is at boresight.  Equivalently the
    Cartesian velocity is
    ``radial_velocity * (-sin(angle), -cos(angle))
    + transverse_velocity * (cos(angle), -sin(angle))``.
    """

    distance: float
    angle: float
    radial_velocity: float = 0.0
    transverse_velocity: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(distance=self.distance)
        if not abs(self.angle) <= math.pi / 2.0:
            raise ValueError(f"angle must lie in [-pi/2, pi/2], got {self.angle!r}")

    @property
    def position_xy(self) -> tuple[float, float]:
        """Cartesian position ``(x, y)`` with the array along the x axis."""
        return (self.distance * math.sin(self.angle), self.distance * _cos_angle(self.angle))

    @property
    def velocity_xy(self) -> tuple[float, float]:
        """Cartesian velocity ``(vx, vy)`` under the documented convention."""
        sin_t = math.sin(self.angle)
        cos_t = _cos_angle(self.angle)
        vx = -self.radial_velocity * sin_t + self.transverse_velocity * cos_t
        vy = -self.radial_velocity * cos_t - self.transverse_velocity * sin_t
        return (vx, vy)

    @classmethod
    def from_xy(
        cls,
        x: float,
        y: float,
        radial_velocity: float = 0.0,
        transverse_velocity: float = 0.0,
    ) -> "TargetState":
        """Build a state from a Cartesian position with ``y >= 0``."""
        if y < 0.0:
            raise ValueError(f"target must sit on the +y side of the array, got y={y!r}")
        return cls(
            distance=math.hypot(x, y),
            angle=math.atan2(x, y),
            radial_velocity=radial_velocity,
            transverse_velocity=transverse_velocity,
        )


def _check_rows(distances: np.ndarray, angles: np.ndarray) -> None:
    """Raise the error :class:`TargetState` gives the first (distance, angle) row it rejects."""
    valid = (distances >= 0.0) & (np.abs(angles) <= math.pi / 2.0)
    if not valid.all():
        row = int(np.argmin(valid))
        # Distance 0, the array centre, is a degenerate row: at 1 m only its angle can fail.
        TargetState(float(distances[row]) or 1.0, float(angles[row]))


def element_distances(target, geometry: ArrayGeometry, *, sines=None):
    """Distance from the target to every array element.

    Implements ``d_k = d * sqrt(1 + x_k**2/d**2 - 2*x_k*sin(theta)/d)`` for
    each element position ``x_k``.  One :class:`TargetState` gives a ``(K,)``
    array.  A pair ``(distances, angles)`` of P rows gives the ``(P, K)``
    block, each row bit-identical to a one-target call, and a ``(P,)`` mask
    of degenerate rows; a row that :class:`TargetState` rejects raises its
    ``ValueError``, unless its distance is 0.  A caller that has checked the
    angles and holds their ``(P,)`` sines already may pass them as ``sines``.

    A row is degenerate when its smallest distance is not above
    ``1e-12 * max(d, aperture)``: on an element, with a radicand that rounds
    below zero (a NaN root), or with ``d <= 1e-12 * aperture``, 0 included,
    where ``x_k/d`` could overflow (evaluated at NaN).  A degenerate
    :class:`TargetState` raises :class:`DegenerateGeometryError`; a pair
    flags the row and fills it with ones.
    """
    single = isinstance(target, TargetState)
    distance_list, angle_list = ([target.distance], [target.angle]) if single else target
    given = np.asarray(distance_list, dtype=float).reshape(-1, 1)
    # Rows at the centre and rows TargetState rejects are NaN, which flags them.  Sines
    # come from ``math``, as published values pin; ratio * (2 sin) rounds as (2 ratio) * sin.
    d = np.where(given > _COINCIDENCE_RTOL * geometry.aperture, given, math.nan)
    if sines is None:
        sines = [math.sin(a) if abs(a) <= math.pi / 2 else math.nan for a in angle_list]
    two_sin = 2.0 * np.asarray(sines)[:, None]
    ratio = geometry.element_x_positions / d
    distances = ratio * ratio
    distances += 1.0
    distances -= np.multiply(ratio, two_sin, out=ratio)
    with np.errstate(invalid="ignore"):
        np.sqrt(distances, out=distances)
        distances *= d
        degenerate = ~(distances.min(axis=1) > _COINCIDENCE_RTOL * np.maximum(d[:, 0], geometry.aperture))
    if degenerate.any():
        _check_rows(given[:, 0], np.asarray(angle_list, dtype=float))
        if single:
            raise DegenerateGeometryError()
        distances[degenerate] = 1.0
    return distances[0] if single else (distances, degenerate)


def distance_to_element(target: TargetState, geometry: ArrayGeometry, k: float) -> float:
    """Distance from the target to the element with grid index ``k``."""
    x_k = k * geometry.spacing
    d = target.distance
    arg = 1.0 + (x_k / d) ** 2 - 2.0 * (x_k / d) * math.sin(target.angle)
    dist = d * math.sqrt(max(arg, 0.0))
    if dist <= _COINCIDENCE_RTOL * max(d, abs(x_k)):
        raise DegenerateGeometryError()
    return dist


def radial_projection_coeffs(target: TargetState, geometry: ArrayGeometry) -> np.ndarray:
    """Per-element projection of the radial unit velocity onto the element line of sight.

    ``q_k = (d - x_k*sin(theta)) / d_k``; always in ``[-1, 1]``, equal to 1
    for the centre element.
    """
    x = geometry.element_x_positions
    return (target.distance - x * math.sin(target.angle)) / element_distances(target, geometry)


def radial_projection_coeff(target: TargetState, geometry: ArrayGeometry, k: float) -> float:
    """Scalar form of :func:`radial_projection_coeffs` for one grid index."""
    x_k = k * geometry.spacing
    d_k = distance_to_element(target, geometry, k)
    return (target.distance - x_k * math.sin(target.angle)) / d_k


def transverse_projection_coeffs(target: TargetState, geometry: ArrayGeometry) -> np.ndarray:
    """Per-element projection of the transverse unit velocity onto the element line of sight.

    ``p_k = x_k*cos(theta) / d_k``; zero at the centre element and exactly
    zero everywhere for end-fire targets (``theta = +/-pi/2``).
    """
    x = geometry.element_x_positions
    return x * _cos_angle(target.angle) / element_distances(target, geometry)


def transverse_projection_coeff(target: TargetState, geometry: ArrayGeometry, k: float) -> float:
    """Scalar form of :func:`transverse_projection_coeffs` for one grid index."""
    x_k = k * geometry.spacing
    d_k = distance_to_element(target, geometry, k)
    return x_k * _cos_angle(target.angle) / d_k
