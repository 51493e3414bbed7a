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
    "projection_rows",
    "radial_projection_coeff",
    "radial_projection_coeffs",
    "symmetric_index_grid",
    "transverse_projection_coeff",
    "transverse_projection_coeffs",
]

# Relative threshold below which an element-to-target distance is treated as a
# coincidence (target sitting on the array element).
_COINCIDENCE_RTOL = 1e-12


class DegenerateGeometryError(ValueError):
    """Raised when the target coincides with an array element or the array centre."""

    def __init__(
        self, message: str = "target sits on an array element or the array centre; check distance"
    ) -> None:
        super().__init__(message)


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
        if not self.spacing > 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")

    @classmethod
    def half_wavelength(cls, num_elements: int, carrier: float) -> "ArrayGeometry":
        """Array with spacing set to half the carrier wavelength."""
        if not carrier > 0.0:
            raise ValueError(f"carrier must be positive, got {carrier!r}")
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
        if not self.distance > 0.0:
            raise ValueError(f"distance must be positive, got {self.distance!r}")
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
        distance = math.hypot(x, y)
        if distance == 0.0:
            raise ValueError("target cannot sit at the array centre")
        return cls(
            distance=distance,
            angle=math.atan2(x, y),
            radial_velocity=radial_velocity,
            transverse_velocity=transverse_velocity,
        )


def element_distances(target: TargetState, geometry: ArrayGeometry) -> np.ndarray:
    """Distance from the target to every array element.

    Implements ``d_k = d * sqrt(1 + x_k**2/d**2 - 2*x_k*sin(theta)/d)`` for
    each element position ``x_k``.

    Raises
    ------
    DegenerateGeometryError
        If the target coincides with an element, or sits so close to the
        array centre that ``x_k/d`` would overflow.
    """
    d = target.distance
    if d <= _COINCIDENCE_RTOL * geometry.aperture:
        raise DegenerateGeometryError()
    ratio = geometry.element_x_positions / d
    arg = 1.0 + ratio * ratio - 2.0 * ratio * math.sin(target.angle)
    # Guard tiny negatives produced by rounding before the square root.
    distances = d * np.sqrt(np.maximum(arg, 0.0))
    scale = max(d, geometry.aperture)
    if np.any(distances <= _COINCIDENCE_RTOL * scale):
        raise DegenerateGeometryError()
    return distances


def projection_rows(
    distances, angles, geometry: ArrayGeometry, flag_degenerate: bool = False
) -> tuple[np.ndarray, ...]:
    """Both projection coefficients for P targets at once.

    Returns the ``(P, K)`` arrays ``q_k`` and ``p_k`` of the single-target
    functions below, row by row bit-identical to them, and a ``(P,)`` mask of
    degenerate rows.  Each row's element distances come from one
    :func:`element_distances` call, so a degenerate target raises
    :class:`DegenerateGeometryError`; with ``flag_degenerate`` its row is
    masked instead and holds placeholder values.
    """
    distance_list = np.asarray(distances, dtype=float).reshape(-1).tolist()
    angle_list = np.asarray(angles, dtype=float).reshape(-1).tolist()
    element_d = np.ones((len(distance_list), geometry.num_elements))
    degenerate = np.zeros(len(distance_list), dtype=bool)
    # One rule, in element_distances, decides and raises for a degenerate target.
    for row, (distance, angle) in enumerate(zip(distance_list, angle_list)):
        try:
            element_d[row] = element_distances(TargetState(distance, angle), geometry)
        except DegenerateGeometryError:
            if not flag_degenerate:
                raise
            degenerate[row] = True

    d = np.array(distance_list).reshape(-1, 1)
    # Per-row sines from ``math``, as a one-point call computes them.
    sin_angle = np.array([math.sin(a) for a in angle_list]).reshape(-1, 1)
    cos_angle = np.array([_cos_angle(a) for a in angle_list]).reshape(-1, 1)
    x = geometry.element_x_positions
    q = (d - x * sin_angle) / element_d
    p = x * cos_angle / element_d
    return q, p, degenerate


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
    return projection_rows([target.distance], [target.angle], geometry)[0][0]


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
    return projection_rows([target.distance], [target.angle], geometry)[1][0]


def transverse_projection_coeff(target: TargetState, geometry: ArrayGeometry, k: float) -> float:
    """Scalar form of :func:`transverse_projection_coeffs` for one grid index."""
    x_k = k * geometry.spacing
    d_k = distance_to_element(target, geometry, k)
    return x_k * _cos_angle(target.angle) / d_k
