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


def _require_count(minimum: int, ceiling: int | None = 2**53, **values) -> None:
    """Raise a ``ValueError`` naming the first key whose value is not an integer from ``minimum`` to ``ceiling``.

    Past 2**53 a count no longer converts to float exactly; a seed, which never does, passes ``None``.
    """
    for key, value in values.items():
        if not (isinstance(value, (int, np.integer)) and value >= minimum):
            raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
        if ceiling is not None and value > ceiling:
            raise ValueError(f"{key} must be at most {ceiling}, got {value!r}")


def _check_angles(**values) -> None:
    """Reject an angle in degrees, or a list entry, outside ``[-90, 90]``."""
    for key, value in values.items():
        if not all(abs(v) <= 90.0 for v in np.atleast_1d(value)):
            raise ValueError(f"{key} must lie in [-90, 90] degrees, got {value!r}")


def _row_blocks(count: int, step: int = _POINT_BLOCK):
    """Slices of at most ``step`` rows covering ``range(count)``."""
    return (slice(start, start + step) for start in range(0, count, step))


def _per_point(function, *arrays, out=None) -> np.ndarray:
    """``function`` of the Python numbers at each index of equal-shape arrays, as a float array.

    ``math`` functions round as published values pin, where numpy's vectorised
    forms may differ in the last bit.  The numbers are listed one block at a time,
    so a call holds one block's Python objects however many points it has.
    Entries keep their type, so a list's int past the float range stays a Python int.
    ``out``, a contiguous float array of the same shape, takes the values; it may be
    one of the inputs, since each block is listed before it is written.
    """
    flat = [np.asarray(a).reshape(-1) for a in arrays]
    result = np.empty(flat[0].size) if out is None else out.reshape(-1)
    for rows in _row_blocks(result.size):
        block = [a[rows].tolist() for a in flat]
        result[rows] = np.fromiter(map(function, *block), float, len(block[0]))
    return result.reshape(np.shape(arrays[0]))


def symmetric_index_grid(count: int) -> np.ndarray:
    """Return ``count`` indices centred on zero with unit step.

    Integers for odd counts, half-integers for even counts.  Either way the
    grid is symmetric and ``sum(grid**2) == count*(count**2 - 1)/12``.
    """
    _require_count(1, count=count)
    return np.arange(count, dtype=float) - (count - 1) / 2.0


def _cos_angle(angle: float) -> float:
    # Evaluated as sin(pi/2 - |angle|) so that angle == +/-pi/2 (the float
    # constant) yields exactly 0.0 rather than ~6e-17; end-fire geometry must
    # produce an exactly null transverse projection.
    return math.sin(math.pi / 2.0 - abs(angle))


def _trig(angles: np.ndarray) -> np.ndarray:
    """``(2, P)`` sines and cosines of checked angles, the cosine as ``_cos_angle`` takes it.

    With numpy 2.4.6, the floor in ``pyproject.toml``, float64 ``sin`` calls the C library's
    ``sin`` per value, as ``math.sin`` does, so the published values keep their bits.  For any
    other numpy, ``TestSines`` is the check: it holds this to ``math.sin`` on ``[-pi/2, pi/2]``,
    with numpy's AVX-512 targets and without them.
    """
    return np.sin(np.stack((angles, math.pi / 2.0 - np.abs(angles))))


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
        _require_count(1, num_elements=self.num_elements)
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


def _row_terms(distances: np.ndarray, trig: np.ndarray, geometry: ArrayGeometry) -> tuple:
    """Per-row terms of :func:`element_distances` for checked ``(P,)`` distances and their ``(2, P)`` ``trig``.

    Gives ``(along, across, shift, floor)``: ``d*sin(theta)`` and ``(d*cos(theta))**2`` as
    ``(P, 1)`` columns, the ``(P, 1)`` power-of-two exponents the lengths are taken in, or
    None when no row needs one, and the ``(P,)`` coincidence floor ``1e-12 * max(d, aperture)``.
    A row at the centre or at an infinite distance is NaN, which flags it.  A row past 2**+-400 m
    takes its lengths in units of a power of two near the larger of d and the aperture, so
    its squares stay normal; a power of two changes no bit.
    """
    given = distances.reshape(-1, 1)
    d = np.where((given > _COINCIDENCE_RTOL * geometry.aperture) & (given < math.inf), given, math.nan)
    lengths = np.maximum(d, geometry.aperture)
    shift = np.frexp(lengths)[1]
    shift[np.abs(shift) <= 400] = 0
    if shift.any():
        d = np.ldexp(d, -shift)
    else:
        shift = None
    return d * trig[0][:, None], np.square(d * trig[1][:, None]), shift, _COINCIDENCE_RTOL * lengths[:, 0]


def element_distances(target, geometry: ArrayGeometry, *, terms=None, out=None):
    """Distance from the target to every array element.

    Implements ``d_k = sqrt((x_k - d*sin(theta))**2 + (d*cos(theta))**2)`` for
    each element position ``x_k``, a sum of squares that does not cancel near
    an element.  The cosine is ``_cos_angle``'s, so an end-fire row is exactly
    ``|x_k - d|``.  One :class:`TargetState` gives a ``(K,)`` array.  A pair
    ``(distances, angles)`` of P rows gives the ``(P, K)`` block, each row
    bit-identical to a one-target call, and a ``(P,)`` mask of degenerate rows;
    a row that :class:`TargetState` rejects raises its ``ValueError``, unless
    its distance is 0.  A caller that has checked its rows may form their
    per-row terms once with ``_row_terms`` and pass them, or any row slice of
    them, as ``terms`` in place of a target (``target`` None); ``out`` is a
    ``(P, K)`` float array the block is written to, so that a caller can reuse it.

    A row is degenerate when its smallest distance is not above
    ``1e-12 * max(d, aperture)``: on an element, or with ``d <= 1e-12 * aperture``,
    0 included, or infinite (evaluated at NaN).  A degenerate :class:`TargetState` raises
    :class:`DegenerateGeometryError`; a pair flags the row and fills it with ones.
    """
    single = isinstance(target, TargetState)
    if terms is None:
        distance_list, angle_list = ([target.distance], [target.angle]) if single else target
        given = np.asarray(distance_list, dtype=float).reshape(-1)
        angles = np.asarray(angle_list, dtype=float).reshape(-1)
        _check_rows(given, angles)
        terms = _row_terms(given, _trig(angles), geometry)
    along, across, shift, floor = terms
    x = geometry.element_x_positions
    distances = np.empty((len(along), x.size)) if out is None else out
    if shift is None and len(along) == 1:
        np.subtract(x, along, out=distances)
    else:
        # Over several rows a ufunc that broadcasts both its inputs buffers both: the
        # positions go into place first, which is faster and buffers one.
        if shift is None:
            np.copyto(distances, x)
        else:
            np.ldexp(x, -shift, out=distances)
        distances -= along
    distances *= distances
    distances += across
    np.sqrt(distances, out=distances)
    if shift is not None:
        np.ldexp(distances, shift, out=distances)
    degenerate = ~(distances.min(axis=1) > floor)
    if degenerate.any():
        if single:
            raise DegenerateGeometryError()
        distances[degenerate] = 1.0
    return distances[0] if single else (distances, degenerate)


def distance_to_element(target: TargetState, geometry: ArrayGeometry, k: float) -> float:
    """Distance from the target to the element with grid index ``k``, exactly ``d`` at ``k = 0``."""
    x_k, d = k * geometry.spacing, target.distance
    dist = math.hypot(d - x_k * math.sin(target.angle), x_k * _cos_angle(target.angle))
    if dist <= _COINCIDENCE_RTOL * max(d, abs(x_k)):
        raise DegenerateGeometryError()
    return dist


def radial_projection_coeffs(target: TargetState, geometry: ArrayGeometry) -> np.ndarray:
    """Per-element projection of the radial unit velocity onto the element line of sight.

    ``q_k = (d - x_k*sin(theta)) / d_k``; in ``[-1, 1]``, and 1 for the centre
    element, within the rounding of :func:`element_distances`, about an ulp.
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
