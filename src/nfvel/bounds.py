"""Fisher information and Cramer-Rao lower bounds for the velocity pair.

The unknown vector is (radial velocity, transverse velocity) with everything
else known.  Two routes compute the 2x2 information matrix:

* :func:`fisher_info_numeric` sums derivative products over every sample of a
  synthesized observation cube;
* :func:`closed_form_bounds` collapses the slow-time sum analytically into a
  per-subcarrier weight times projection-coefficient sums, and inverts the
  result, for a batch of points; :func:`fisher_info_closed_form` and
  :func:`crlb_from_fisher` are its one-point forms.

The routes intentionally share no arithmetic beyond the geometry primitives
they both consume, so their agreement is a meaningful cross-check.  The rest
of the module holds the boresight / far-field special forms and the distance
at which the two bounds trade places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import (
    ArrayGeometry,
    DegenerateGeometryError,
    TargetState,
    _check_rows,
    _per_point,
    _require_positive,
    _row_blocks,
    element_distances,
    symmetric_index_grid,
)
from .waveform import (
    ChannelNoise,
    WaveformConfig,
    _float_power,
    _phase_rates,
    subcarrier_frequencies,
    synthesize_noise_free,
)

__all__ = [
    "BoundRows",
    "CrlbResult",
    "FisherInfo",
    "closed_form_bounds",
    "crlb_from_fisher",
    "crossover_distance",
    "fisher_info_closed_form",
    "fisher_info_numeric",
    "radial_crlb_far_field",
    "radial_info_boresight",
    "transverse_info_boresight",
    "transverse_info_boresight_approx",
    "transverse_info_half_wavelength",
]

# Relative determinant floor below which the matrix is declared singular.
_SINGULAR_RTOL = 1e-12
# A mildly negative determinant is rounding residue; anything worse is an
# upstream bug.
_NEGATIVE_DET_RTOL = 1e-9
# Elements per kernel chunk: every (rows, K) temporary of a batch holds about
# this many values, so memory stays flat however many points a sweep has.
_CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True)
class FisherInfo:
    """Symmetric 2x2 Fisher information over (radial, transverse) velocity."""

    j_rr: float
    j_tt: float
    j_rt: float


@dataclass(frozen=True)
class CrlbResult:
    """Variance lower bounds in (m/s)^2; infinite entries mark unidentifiable axes."""

    radial: float
    transverse: float
    singular: bool


@dataclass(frozen=True)
class BoundRows:
    """Closed-form information and bounds of a batch of P points, as ``(P,)`` float or bool arrays.

    ``root_radial`` and ``root_transverse`` are the square roots of the variance
    bounds, bit for bit where a variance is a normal float, and finite past the
    float range of the variance wherever the root itself is finite.
    """

    j_rr: np.ndarray
    j_tt: np.ndarray
    j_rt: np.ndarray
    radial: np.ndarray
    transverse: np.ndarray
    root_radial: np.ndarray
    root_transverse: np.ndarray
    singular: np.ndarray
    degenerate: np.ndarray


def _row_chunks(count: int, width: int):
    """Slices of at most ``_CHUNK_ELEMENTS // width`` rows covering ``range(count)``."""
    return _row_blocks(count, max(1, _CHUNK_ELEMENTS // max(width, 1)))


def fisher_info_numeric(
    target: TargetState,
    geometry: ArrayGeometry,
    config: WaveformConfig,
    snr: float,
) -> FisherInfo:
    """Information matrix by brute-force summation over the sample cube.

    Synthesizes the noise-free observation at unit channel gain and
    accumulates ``(2/sigma^2) * Re{conj(dy_a) * dy_b}`` over all
    ``(m, n, k)``, where ``dy_a = y * j*m*psi_a`` is the derivative of sample
    ``y`` in velocity ``a`` and ``psi`` the model's phase rates.  Exact
    per-subcarrier frequencies are used throughout.  The result does not
    depend on the target's velocity, only on its position.
    """
    _require_positive(snr=snr)
    noise = ChannelNoise.from_snr(config, snr)
    cube = synthesize_noise_free(target, geometry, config, noise)

    m_grid = symmetric_index_grid(config.num_symbols)
    psi = _phase_rates(target, geometry, config)
    # The derivative cubes, each shaped (M, N, K): sample y turns by m * psi per unit velocity.
    dy_radial, dy_transverse = cube.samples * (1j * (m_grid[:, None, None] * psi[:, None]))

    weight = 2.0 / noise.noise_variance
    j_rr = weight * float(np.sum((dy_radial.conj() * dy_radial).real))
    j_tt = weight * float(np.sum((dy_transverse.conj() * dy_transverse).real))
    j_rt = weight * float(np.sum((dy_radial.conj() * dy_transverse).real))
    return FisherInfo(j_rr=j_rr, j_tt=j_tt, j_rt=j_rt)


def _crlb(j_rr: np.ndarray, j_tt: np.ndarray, j_rt: np.ndarray) -> tuple[np.ndarray, ...]:
    """Variance bounds, root bounds and singular flags of P information matrices.

    The bounds are ``(2, P)``, radial then transverse, and the flags ``(P,)``.
    Each axis is scaled by an exact power of two ``2**s`` that brings its diagonal
    entry into [0.5, 2), so the tests are relative at any scale, and rows whose
    products stay normal round as a one-matrix inverse that squares ``j_rt`` by
    multiplication.  A scaled bound ``b`` gives the variance ``ldexp(b, 2 s)`` and
    the root ``ldexp(sqrt(b), s)``, which equals the root of the variance bit for
    bit where that is normal and stays finite where it overflows.  An error names
    the first bad row as given: an entry that is not finite overflows, and finite
    entries whose determinant is ``-inf`` are negative definite.
    """
    # In the order (j_tt, j_rr): divided by the determinant, they give (radial, transverse).
    scaled = np.stack((j_tt, j_rr))
    # frexp gives exponent 0 for a zero, infinite or NaN entry, whose scale stays 1;
    # a negative entry raises below.
    shift = -(np.frexp(scaled)[1] >> 1)
    with np.errstate(all="ignore"):
        t, r = np.ldexp(scaled, 2 * shift, out=scaled)
        c = np.ldexp(j_rt, shift.sum(axis=0))
        diag_product = r * t
        det = diag_product - c * c
        negative_diag = (j_rr < 0.0) | (j_tt < 0.0)
        overflow = ~(np.isfinite(j_rr) & np.isfinite(j_tt) & np.isfinite(j_rt))
        bad = negative_diag | overflow | (det < -_NEGATIVE_DET_RTOL * diag_product)
        if bad.any():
            i = int(np.argmax(bad))
            row = (float(j_rr[i]), float(j_tt[i]), float(j_rt[i]))
            if negative_diag[i]:
                raise ValueError(f"information diagonal must be nonnegative, got {row}")
            if overflow[i]:
                raise ValueError(f"information matrix {row} overflows; reduce carrier or snr")
            raise ValueError(f"information matrix is negative definite: {row}")
        singular = det <= _SINGULAR_RTOL * diag_product
        # A singular row falls back to the one-parameter bounds 1/j_rr, and 1/j_tt where j_rr is 0.
        fallback = np.where(r > 0.0, 1.0 / r, math.inf), np.where((t > 0.0) & (r == 0.0), 1.0 / t, math.inf)
        scaled /= det
        np.copyto(scaled, fallback, where=singular)
        shift = shift[::-1]
        roots = np.sqrt(scaled)
        return np.ldexp(scaled, 2 * shift, out=scaled), np.ldexp(roots, shift, out=roots), singular


def closed_form_bounds(
    distances, angles, geometry: ArrayGeometry, config: WaveformConfig, snr
) -> BoundRows:
    """Closed-form information and CRLB for P points sharing one array and waveform.

    ``distances`` and ``angles`` (radians) give one target position per
    point; ``snr`` is one linear SNR for all points or one per point.  For
    each subcarrier the slow-time sum collapses to the weight

        w_n = 2 * pi^2 * f_n^2 * M * snr * (M^2 - 1) * T_sym^2 / (3 * c^2)

    and the entries are the summed weight times the element sums of
    ``(1 + q_k)^2``, ``p_k^2`` and ``p_k * (1 + q_k)``.  All P matrices are
    inverted in blocks of rows, by the inverse :func:`crlb_from_fisher` applies
    to one matrix, so rows match the one-point functions bit for bit.  The root
    bounds are taken before the inverse's power-of-two scale is undone, so they
    stay finite where a variance overflows.  A target on an element or the
    array centre, distance 0 included, has no bound: its row is marked
    ``degenerate``, with zero information and infinite bounds at any SNR, and
    the caller decides what that means.
    Information past the float range raises a ``ValueError`` naming the carrier.
    """
    distances = np.asarray(distances, dtype=float).reshape(-1)
    angles = np.asarray(angles, dtype=float).reshape(-1)
    snr = np.broadcast_to(np.asarray(snr, dtype=float), distances.shape)
    _require_positive(snr=snr)
    # Validation comes first: math.sin raises its own error for an infinite angle.
    _check_rows(distances, angles)
    # One sine and one cosine per point, from ``math``; the cosine is sin(pi/2 - |angle|),
    # as ``_cos_angle`` takes it.
    trig = _per_point(math.sin, np.stack((angles, math.pi / 2.0 - np.abs(angles))))
    weight_total = np.empty(distances.size)
    entries = np.empty((3, distances.size))
    degenerate = np.empty(distances.size, dtype=bool)
    # An overflow leaves its row with no finite determinant, which _crlb rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        # The SNR factor stays fourth in the weight product; moving it would
        # change the rounding of published values.
        head = 2.0 * math.pi**2 * subcarrier_frequencies(config) ** 2 * config.num_symbols
        for rows in _row_chunks(distances.size, config.num_subcarriers):
            weights = head * snr[rows, None] * (config.num_symbols**2 - 1) * config.symbol_time**2
            weight_total[rows] = np.sum(weights / (3.0 * SPEED_OF_LIGHT**2), axis=1)
        for rows in _row_chunks(distances.size, geometry.num_elements):
            d = distances[rows, None]
            element_d, degenerate[rows] = element_distances((d, angles[rows]), geometry, sines=trig[0, rows])
            # 1 + q = 1 + (d - x sin)/d_k, p = x cos/d_k and p(1 + q), in place.
            terms = np.empty((3, *element_d.shape))
            np.multiply(geometry.element_x_positions, trig[:, rows, None], out=terms[:2])
            np.subtract(d, terms[0], out=terms[0])
            terms[:2] /= element_d
            terms[0] += 1.0
            np.multiply(terms[1], terms[0], out=terms[2])
            terms[:2] *= terms[:2]
            entries[:, rows] = weight_total[rows] * terms.sum(axis=2)
            del terms  # before the next chunk's distances: one chunk's terms at a time
    entries[:, degenerate] = 0.0
    del trig, weight_total  # before the inverse's blocks: the two loops' peaks stay apart
    # Variance bounds, then root bounds, radial before transverse.
    bounds = np.empty((4, distances.size))
    singular = np.empty(distances.size, dtype=bool)
    for rows in _row_blocks(distances.size):
        bounds[:2, rows], bounds[2:, rows], singular[rows] = _crlb(*entries[:, rows])
    return BoundRows(*entries, *bounds, singular, degenerate)


def fisher_info_closed_form(
    target: TargetState,
    geometry: ArrayGeometry,
    config: WaveformConfig,
    snr: float,
) -> FisherInfo:
    """Information matrix via the analytic slow-time reduction of :func:`closed_form_bounds`."""
    rows = closed_form_bounds([target.distance], [target.angle], geometry, config, snr)
    if rows.degenerate[0]:
        raise DegenerateGeometryError()
    return FisherInfo(j_rr=rows.j_rr.item(), j_tt=rows.j_tt.item(), j_rt=rows.j_rt.item())


def crlb_from_fisher(info: FisherInfo) -> CrlbResult:
    """Invert a 2x2 information matrix into per-component variance bounds.

    A determinant at most ``1e-12`` of the diagonal product marks the matrix
    singular: the transverse axis is reported infinite and the radial bound
    falls back to the single-parameter value ``1/j_rr``.  A determinant below
    ``-1e-9`` of it, or a negative diagonal, signals an upstream bug and raises,
    as does an entry past the float range.  Both tests are relative at any scale.
    This is the one-row case of the array inverse :func:`closed_form_bounds`
    applies to a whole batch.
    """
    entries = np.array([[info.j_rr], [info.j_tt], [info.j_rt]], dtype=float)
    (radial, transverse), _, singular = _crlb(*entries)
    return CrlbResult(radial.item(), transverse.item(), singular.item())


def radial_crlb_far_field(config: WaveformConfig, num_elements: int, snr: float) -> float:
    """Radial velocity bound when every element sees the same line of sight.

    ``3*c^2 / (8*pi^2*f_c^2*M*N*K*snr*(M^2-1)*T_sym^2)``; infinite for a
    single symbol, since one pulse carries no Doppler information.
    """
    _require_positive(snr=snr)
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements!r}")
    if config.num_symbols == 1:
        return math.inf
    return 1.0 / (4.0 * num_elements * _boresight_weight(config, snr))


def _boresight_weight(config: WaveformConfig, snr: float) -> float:
    # Per-element information weight at the carrier frequency, all N
    # subcarriers folded in under the narrowband approximation f_n ~ f_c.
    m_count = config.num_symbols
    return (
        2.0
        * math.pi**2
        * config.carrier**2
        * m_count
        * config.num_subcarriers
        * snr
        * (m_count**2 - 1)
        * config.symbol_time**2
        / (3.0 * SPEED_OF_LIGHT**2)
    )


def radial_info_boresight(distance, geometry: ArrayGeometry, config: WaveformConfig, snr: float):
    """Closed-form ``j_rr`` for a target on the array normal.

    Equals the boresight weight times ``sum_k (1 + 1/sqrt(1 + k^2*delta^2/d^2))^2``;
    bounded by ``4*K`` times the weight, with equality in the far field.
    ``distance`` may be an array, which gives an array of the same shape.
    """
    _require_positive(distance=distance, snr=snr)
    flat = np.asarray(distance, dtype=float).reshape(-1)
    k_grid = symmetric_index_grid(geometry.num_elements)
    sums = np.empty(flat.size)
    for rows in _row_chunks(flat.size, geometry.num_elements):
        # Near the centre the ratio overflows to inf, where each term takes its limit 1.
        with np.errstate(over="ignore"):
            ratio_sq = (k_grid * geometry.spacing / flat[rows, None]) ** 2
        sums[rows] = np.sum((1.0 + 1.0 / np.sqrt(1.0 + ratio_sq)) ** 2, axis=1)
    info = _boresight_weight(config, snr) * sums
    return float(info[0]) if np.ndim(distance) == 0 else info.reshape(np.shape(distance))


def transverse_info_boresight(
    distance: float, geometry: ArrayGeometry, config: WaveformConfig, snr: float
) -> float:
    """Closed-form ``j_tt`` for a target on the array normal (no aperture approximation).

    Boresight weight times ``(delta^2/d^2) * sum_k k^2/(1 + k^2*delta^2/d^2)``.
    Zero for a single element: one element carries no transverse information.
    ``distance`` is one float; at the centre the limit is the weight per off-centre element.
    """
    _require_positive(distance=distance, snr=snr)
    if np.ndim(distance) != 0:
        raise ValueError(f"distance must be one float, got {distance!r}")
    k_grid = symmetric_index_grid(geometry.num_elements)
    weight = _boresight_weight(config, snr)
    try:
        prefactor = _inverse_square(weight * geometry.spacing**2, 1.0, distance)
    except ValueError:
        if distance > 1.0:  # d**2 overflows
            raise
        prefactor = math.inf
    with np.errstate(over="ignore"):
        ratio_sq = (k_grid * geometry.spacing / distance) ** 2
        if prefactor < math.inf and ratio_sq.max() < math.inf:
            return prefactor * float(np.sum(k_grid**2 / (1.0 + ratio_sq)))
        # Near the centre, where d^2, r = (k delta/d)^2 or delta^2/d^2 leaves the float range,
        # each element's share r/(1 + r) is taken as 1/(1 + 1/r).
        inverse_sq = (distance / (k_grid[k_grid != 0.0] * geometry.spacing)) ** 2
    return weight * float(np.sum(1.0 / (1.0 + inverse_sq)))


def transverse_info_boresight_approx(
    distance: float,
    geometry: ArrayGeometry,
    config: WaveformConfig,
    snr: float,
    *,
    aperture_form: bool = False,
) -> float:
    """Small-aperture approximation of :func:`transverse_info_boresight`.

    With ``aperture_form=False`` the element sum is replaced by its leading
    term ``K*(K^2-1)/12``:

        pi^2 * f_c^2 * M * N * K * snr * (M^2-1) * T_sym^2 * (K^2-1) * delta^2
            / (18 * c^2 * d^2)

    With ``aperture_form=True`` the same quantity is expressed through the
    physical aperture ``D = (K-1)*delta`` and observation time
    ``T_obs^2 ~ (M^2-1)*T_sym^2``, replacing ``(K^2-1)*delta^2`` by ``D^2``.
    The two differ by the factor ``(K+1)/(K-1)``, i.e. about ``2/K``.
    """
    _require_positive(distance=distance, snr=snr)
    k_count = geometry.num_elements
    if aperture_form:
        length_sq = geometry.aperture**2
    else:
        length_sq = (k_count**2 - 1) * geometry.spacing**2
    return _inverse_square(_boresight_weight(config, snr) * k_count * length_sq, 12.0, distance)


def transverse_info_half_wavelength(
    distance, num_elements: int, config: WaveformConfig, snr: float
):
    """Boresight transverse information for half-wavelength element spacing.

    Substituting ``delta = c/(2*f_c)`` cancels the carrier entirely:

        pi^2 * M * N * K * snr * (M^2-1) * T_sym^2 * (K^2-1) / (72 * d^2)

    The function reads only the grid sizes and symbol time from ``config``;
    by construction the result is carrier-independent.  ``distance`` may be
    an array, which gives an array of the same shape.
    """
    _require_positive(distance=distance)
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements!r}")
    _require_positive(snr=snr)
    m_count = config.num_symbols
    numerator = (
        math.pi**2
        * m_count
        * config.num_subcarriers
        * num_elements
        * snr
        * (m_count**2 - 1)
        * config.symbol_time**2
        * (num_elements**2 - 1)
    )
    return _inverse_square(numerator, 72.0, distance)


def _inverse_square(numerator: float, factor: float, distance):
    """``numerator / (factor * distance**2)``, a boresight form's distance law.

    A ``ValueError`` names a distance, at either end, whose square is no normal
    float, whose scaled square overflows, or that takes a finite quotient past the float range.
    """
    square = _float_power(distance, 2)
    with np.errstate(over="ignore"):
        scaled = factor * square
        if np.all((square >= np.finfo(float).tiny) & (scaled < math.inf)):
            law = numerator / scaled
            if np.all(law < math.inf) or not math.isfinite(numerator):
                return law
    raise ValueError(f"distance {distance!r} takes its bound past the float range")


def crossover_distance(geometry: ArrayGeometry) -> float:
    """Distance below which the transverse bound beats the far-field radial bound.

    ``D / (4*sqrt(3))`` for aperture ``D``; at exactly this distance the
    far-field radial bound and the reciprocal of the aperture-form
    transverse approximation coincide.
    """
    return geometry.aperture / (4.0 * math.sqrt(3.0))
