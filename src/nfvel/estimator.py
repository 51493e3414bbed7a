"""Maximum-likelihood velocity estimation and its Monte Carlo harness.

With position and noise statistics known, the ML estimate of the velocity
pair maximises the magnitude of the matched-filter output

    L(v_r, v_t) = | sum_{m,n,k} r_{m,n,k} * conj(model_{m,n,k}(v_r, v_t)) |^2

which is invariant to any common complex gain on the data.  The search runs a
coarse grid, then joint Newton steps on the analytic gradient and Hessian of
L, which carry the radial/transverse coupling.  One search path serves a
single cube, each cube of a stack and every Monte Carlo trial.  It scales
the samples by the power of two that takes their largest magnitude into
[0.5, 1), so the data's absolute power does not move its result either.  An
axis along which the statistic shows no curvature at the peak (end-fire
targets leave the transverse component unobservable) is flagged
unidentifiable instead.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundRows, closed_form_bounds
from .constants import SPEED_OF_LIGHT
from .geometry import (
    ArrayGeometry,
    TargetState,
    _require_count,
    _require_positive,
    symmetric_index_grid,
)
from .waveform import (
    ChannelNoise,
    ObservationCube,
    WaveformConfig,
    _phase_rates,
    _unit_noise,
    add_noise,  # noqa: F401 - perfbench's tracer test patches it through this module
    round_trip_delays,
    subcarrier_frequencies,
    synthesize_noise_free,
)

__all__ = [
    "MatchedFilter",
    "MlSearchConfig",
    "MonteCarloReport",
    "Scenario",
    "VelocityEstimate",
    "ml_estimate",
    "monte_carlo_mse",
    "monte_carlo_reports",
]

# Peak curvature below this fraction of the peak value means the statistic is
# flat along that axis: the component is unidentifiable, not merely noisy.
_CURVATURE_FLOOR = 1e-12

# Newton refinement gives up after this many steps even if it is still moving.
_MAX_NEWTON_STEPS = 30

# The least normal float: the curvature floor's scale when the peak is zero.
_TINY = sys.float_info.min

# Cubes whose coarse grids one _statistic call forms.  A call builds its table rows once, so a
# larger block runs faster, but each cube adds about 70 KB to what the call holds at the default
# scene: its copy in the block and, while the block is folded, its compensated copy and folded
# columns.  Its (41, 5) grid is 3.3 KB (27 KB at 41 x 41).
_TRIAL_BLOCK = 9


@dataclass(frozen=True)
class MlSearchConfig:
    """Search window and refinement tolerance for :func:`ml_estimate`.

    The spans must bracket the true velocities; the radial span must be narrower
    than the Doppler ambiguity interval ``c / (2 * f_c * T_sym)`` so the grid
    sees a single peak.  Each axis of the coarse grid steps by half its mainlobe's half-power
    half-width, with an odd count of at least 3 and at most ``grid_points``.
    Refinement stops once a Newton step moves no axis by ``tolerance`` (m/s);
    an axis whose grid cell is below it stays on the grid.
    """

    radial_span: tuple[float, float]
    transverse_span: tuple[float, float]
    grid_points: int = 41
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        for name, span in (("radial_span", self.radial_span), ("transverse_span", self.transverse_span)):
            if not span[1] > span[0]:
                raise ValueError(f"{name} must be increasing, got {span!r}")
            try:
                width = float(span[1]) - float(span[0])
            except OverflowError:  # an int end past the float range
                width = math.inf
            if not math.isfinite(width):
                raise ValueError(f"{name} {span!r} is wider than the float range")
            object.__setattr__(self, name, tuple(span))  # a frozen config hashes
        _require_count(3, grid_points=self.grid_points)
        _require_positive(tolerance=self.tolerance)


@dataclass(frozen=True)
class VelocityEstimate:
    """ML velocity estimate; an unidentifiable axis carries NaN and a False flag."""

    radial: float
    transverse: float
    radial_identifiable: bool
    transverse_identifiable: bool


@dataclass(frozen=True)
class Scenario:
    """Everything a Monte Carlo run needs but the noise level: truth, hardware and search."""

    target: TargetState
    geometry: ArrayGeometry
    waveform: WaveformConfig
    search: MlSearchConfig


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical MSEs against the matching variance bounds: one ``montecarlo`` row after its SNR.

    The fields are the row's columns, in order, with ``_radial`` and ``_transverse`` written
    ``_vr`` and ``_vt``.  ``mse_*`` average over the trials where the axis was identifiable, and
    are None where no trial was; ``ratio_*`` are None where the MSE is or the bound is infinite.
    ``degenerate_trials`` counts trials where either axis was flagged.  No field holds NaN.
    """

    trials: int
    mse_radial: float | None
    mse_transverse: float | None
    crlb_radial: float
    crlb_transverse: float
    ratio_radial: float | None
    ratio_transverse: float | None
    seed: int
    degenerate_trials: int


class MatchedFilter:
    """ML search tables for one array, waveform, known position and search window."""

    def __init__(
        self,
        geometry: ArrayGeometry,
        config: WaveformConfig,
        distance: float,
        angle: float,
        search: MlSearchConfig,
    ) -> None:
        ambiguity = SPEED_OF_LIGHT / (2.0 * config.carrier * config.symbol_time)
        if not search.radial_span[1] - search.radial_span[0] < ambiguity:
            raise ValueError(
                "the radial search window (vr_window) must be narrower than the Doppler "
                f"ambiguity interval c/(2*f_c*T_sym) = {ambiguity:g} m/s"
            )
        self.search = search
        position = TargetState(distance=distance, angle=angle)

        freqs = subcarrier_frequencies(config)
        delays = round_trip_delays(position, geometry)
        m_grid = symmetric_index_grid(config.num_symbols)

        # Conjugate of the model's delay phase; applying it to the data
        # leaves only the velocity-dependent phase to search over.
        self._delay_comp = np.exp(2j * math.pi * freqs[:, None] * delays[None, :])
        self._shape = (config.num_symbols,) + self._delay_comp.shape  # (M, N, K)

        # Rows: the phase per unit radial and per unit transverse velocity, at m = 1.
        self._psi = psi = _phase_rates(position, geometry, config).reshape(2, -1)
        self._starts = (-1j * np.array([m_grid[0], 1.0]))[: config.num_symbols, None]
        self._factor_rows = np.minimum(np.arange(config.num_symbols), 1)
        self._powers = np.array([m_grid, m_grid**2])
        self._weights = np.stack([*psi, *psi[[0, 0, 1]] * psi[[0, 1, 1]]], 1).astype(complex)

        # Each axis's coarse step is half its mainlobe's half-power half-width.  Near the truth the
        # clean statistic falls off as 1 - c_a * offset**2, with c_a = sum((m psi_a)**2) / X (its
        # Hessian is -X sigma**2 J); Python floats sum c_a, so no BLAS rounding moves a count.
        spans = [(float(low), float(high)) for low, high in (search.radial_span, search.transverse_span)]
        mean_m2 = math.fsum((m_grid**2).tolist()) / config.num_symbols
        counts = [
            _axis_points(high - low, mean_m2 * math.fsum((rates**2).tolist()) / rates.size, search.grid_points)
            for (low, high), rates in zip(spans, psi)
        ]
        self._radial_grid, self._transverse_grid = (np.linspace(*span, count) for span, count in zip(spans, counts))
        self._cell = [float(grid[1] - grid[0]) for grid in (self._radial_grid, self._transverse_grid)]

        # The coarse grid, folded (see _statistic): with each axis's centre phase taken off
        # the data, the offsets on each axis and the symbol index m are mirrored about 0.
        # Each axis's table holds cos and sin of the phase on the upper half of its offsets
        # and m >= 0, shaped (cos/sin, H, M_h * N * K); row `first` holds the least m >= 0.
        # Its quadrants are the grid indices of those offsets, upward and mirrored downward.
        self._lower, self._upper = zip(*spans)
        first = config.num_symbols // 2
        self._centring = np.exp(-1j * m_grid[:, None] * (np.array(spans).mean(axis=1) @ psi))
        if config.num_symbols % 2:
            self._centring[first] *= 0.5  # m = 0 pairs with itself
        self._fold = (slice(first, None), slice((config.num_symbols - 1) // 2, None, -1))
        tables, self._quadrants = [], []
        for (low, high), count, rates in zip(spans, counts, psi):
            half = -(-count // 2)
            offsets = (high - low) / (count - 1) * (np.arange(count - half, count) - (count - 1) / 2.0)
            angles = (offsets[:, None, None] * (m_grid[first:, None] * rates)).reshape(half, -1)
            tables.append(np.stack([np.cos(angles), np.sin(angles)]))
            self._quadrants.append((slice(count - half, None), slice(half - 1, None, -1)))
        self._radial_half, self._transverse_half = tables

    @staticmethod
    def _axis_curvature(grid_values: np.ndarray, index: int) -> float:
        """Three-point curvature along one axis, clamped interior."""
        pivot = min(max(index, 1), grid_values.size - 2)
        return grid_values.item(pivot - 1) - 2.0 * grid_values.item(pivot) + grid_values.item(pivot + 1)

    def estimate(self, samples: np.ndarray) -> VelocityEstimate | list[VelocityEstimate]:
        """ML estimate from the samples of a cube ``(M, N, K)`` taken at this filter's position.

        A stack of cubes ``(..., M, N, K)`` gives a list of their estimates in C order, each equal
        to the estimate of that cube alone.  The stack's coarse grids are formed several cubes per
        call, which costs less per cube than one call per cube.
        """
        samples = np.asarray(samples)
        if samples.shape[-3:] != self._shape:
            raise ValueError(f"samples must have shape (..., M, N, K) with (M, N, K) = {self._shape}, got {samples.shape}")
        cubes = samples.reshape((-1,) + self._shape)
        estimates = [self._search(cube, statistic) for cube, statistic in self._with_statistics(cubes)]
        return estimates[0] if samples.ndim == 3 else estimates

    def _with_statistics(self, cubes: Iterable[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each of ``cubes``, ``(M, N, K)``, with its :meth:`_statistic`, formed ``_TRIAL_BLOCK`` cubes per call.

        The cubes are copied into one block that the next block overwrites, so a cube yielded is
        read before the next one is asked for.  Each grid is yielded as a copy, so one that the
        caller still holds does not keep its whole block's grids while the next block's are formed.
        """
        cubes = iter(cubes)
        block = np.empty((_TRIAL_BLOCK,) + self._shape, complex)
        while True:
            count = 0
            for cube in itertools.islice(cubes, _TRIAL_BLOCK):
                block[count] = cube
                count += 1
            if not count:
                return
            filled = block[:count]
            yield from ((cube, grid.copy()) for cube, grid in zip(filled, self._statistic(filled)))

    def _compensate(self, samples: np.ndarray) -> np.ndarray:
        """The samples of a cube or a stack of cubes, ``(..., M, N, K)``, less the model's delay
        phase, as symbol rows ``(..., M, N * K)``."""
        return (samples * self._delay_comp).reshape(samples.shape[:-2] + (-1,))

    def _statistic(self, samples: np.ndarray) -> np.ndarray:
        """Matched-filter output on the coarse grid of each cube in ``samples``, ``(..., M, N, K)`` to ``(..., G_r, G_t)``.

        ``S[i, j] = sum(d * exp(-i * m * (v_i psi_r + w_j psi_t)))`` over the samples ``d`` less the
        model's delay phase, on radial and transverse grids ``v`` and ``w`` of ``G_r`` and ``G_t``
        points, linear in ``d`` and searched as ``|.|**2``.  With each axis's centre
        taken off the data and rows ``m``, ``-m`` paired as ``e = d_m + d_-m``,
        ``o = d_m - d_-m``, the kernel's cos is even and its sin odd in ``m`` and in
        each offset, so four sums over ``m >= 0`` and the upper half offsets give every quadrant (signs
        ``s_r``, ``s_t``): ``A - s_r s_t B - i (s_r P + s_t Q)``, with ``A = sum(e C_r C_t)``,
        ``B = sum(e S_r S_t)``, ``P = sum(o S_r C_t)`` and ``Q = sum(o C_r S_t)``.

        The whole stack is folded once into real columns ``[e, -i o]``, re/im interleaved so that a
        product views as complex.  For each of the ``ceil(G_t / 2)`` upper transverse offsets ``j``,
        the data-free rows ``[C_r C_t[j]; S_r S_t[j]]``, then ``[C_r S_t[j]; S_r C_t[j]]``, each half
        over the ``ceil(G_r / 2)`` upper radial offsets, take one reused buffer, and
        their real products with the columns give column ``j`` of ``A``, ``B``, ``-i Q`` and ``-i P``
        for every cube.  The rows cost as much for one cube as for many, so :meth:`_with_statistics`
        passes blocks of cubes.  The radial offsets are the rows: transverse offsets with equal tables
        (end-fire) make equal calls and so give exactly equal columns, however BLAS splits a product.
        """
        cubes = self._compensate(samples).reshape((-1,) + self._centring.shape)
        count = len(cubes)
        grid = (self._radial_grid.size, self._transverse_grid.size)
        tables = self._radial_half  # (cos/sin, H_r, M_h * N * K)
        half, width = tables.shape[1:]
        upper, lower = self._fold
        # [e, -i o] as (e/o, M_h * N * K, cube, re/im), each part written through a (cube, M_h, N * K) view.
        columns = np.empty((2, width, count, 2))
        e, o = (part.view(complex)[..., 0].T.reshape((count, -1) + cubes.shape[2:]) for part in columns)
        np.multiply(cubes[:, upper], self._centring[upper], out=e)
        mirrored = cubes[:, lower] * self._centring[lower]
        np.subtract(e.imag, mirrored.imag, out=o.real)
        np.subtract(mirrored.real, e.real, out=o.imag)
        e += mirrored
        del cubes, mirrored  # before the product buffers: a block's peak is what it holds at once
        columns = columns.reshape(2, width, 2 * count)

        rows = np.empty((2, half, width))
        products = rows.reshape(2 * half, width)
        sums = np.empty((2, 2 * half, 2 * count))  # per offset j: rows @ columns, for e and for -i o
        first, second = sums.view(complex).reshape(2, 2, half, count).transpose(1, 0, 2, 3)  # [A, -i Q], [B, -i P]
        (diff_e, diff_o), (sum_e, sum_o) = combined = np.empty((2, 2, half, count), complex)
        (top, bottom), (top_t, bottom_t) = self._quadrants
        out = np.empty((count,) + grid, complex)
        columns_t = range(grid[1])
        for j, (top_j, bottom_j) in enumerate(zip(columns_t[top_t], columns_t[bottom_t])):
            for part, pair in enumerate((self._transverse_half[:, j], self._transverse_half[::-1, j])):
                np.multiply(tables, pair[:, None, :], out=rows)
                np.matmul(products, columns[part], out=sums[part])
            np.subtract(first, second, out=combined[0])
            np.add(first, second, out=combined[1])
            np.add(diff_e, sum_o, out=out[:, top, top_j].T)
            np.add(sum_e, diff_o, out=out[:, bottom, top_j].T)
            np.subtract(sum_e, diff_o, out=out[:, top, bottom_j].T)
            np.subtract(diff_e, sum_o, out=out[:, bottom, bottom_j].T)
        return out.reshape(samples.shape[:-3] + grid)

    def _search(self, samples: np.ndarray, statistic: np.ndarray) -> VelocityEstimate:
        """Peak pick, identifiability test and Newton refinement of a cube ``(M, N, K)`` from its ``_statistic``.

        The cube is compensated here, like the statistic's own input.  The compensated
        samples and the statistic are first scaled by the power of two that takes the
        largest compensated sample magnitude into [0.5, 1).  The search is exact under a
        power-of-two gain, so the data's absolute power does not move the estimate, and a
        caller may pass any statistic that equals ``_statistic(samples)`` by linearity.
        """
        rows = self._compensate(samples)
        scale = _unit_scale(np.abs(rows).max())
        rows *= scale
        coarse = np.abs(statistic * scale) ** 2
        peak = int(coarse.argmax())
        i0, j0 = divmod(peak, coarse.shape[1])
        floor = _CURVATURE_FLOOR * max(coarse.item(peak), _TINY)
        radial_ok = abs(self._axis_curvature(coarse[:, j0], i0)) > floor
        transverse_ok = abs(self._axis_curvature(coarse[i0], j0)) > floor

        v_r, v_t = self._radial_grid.item(i0), self._transverse_grid.item(j0)
        # An axis whose coarse cell is already below the tolerance is not refined.
        tolerance = self.search.tolerance
        free = (radial_ok and self._cell[0] >= tolerance, transverse_ok and self._cell[1] >= tolerance)
        if free[0] or free[1]:
            v_r, v_t = self._newton(rows, v_r, v_t, free)
        return VelocityEstimate(
            v_r if radial_ok else math.nan, v_t if transverse_ok else math.nan, radial_ok, transverse_ok
        )

    def _newton(self, rows: np.ndarray, v_r: float, v_t: float, free: tuple[bool, bool]) -> tuple[float, float]:
        """Joint Newton ascent of ``|S|^2`` from ``(v_r, v_t)``, on :meth:`_derivatives` of ``rows``."""
        tolerance = self.search.tolerance
        for _ in range(_MAX_NEWTON_STEPS):
            _, grad, hess = self._derivatives(rows, v_r, v_t)
            m_r, m_t = self._step(v_r, v_t, grad, hess, free)
            if abs(m_r - v_r) < tolerance and abs(m_t - v_t) < tolerance:
                return m_r, m_t
            v_r, v_t = m_r, m_t
        return v_r, v_t

    def _derivatives(
        self, rows: np.ndarray, v_r: float, v_t: float
    ) -> tuple[complex, tuple[float, float], tuple[float, float, float, float]]:
        """``S = sum(rows * exp(-i * m * theta))``, ``theta = (v_r, v_t) @ psi``, and ``|S|^2``'s gradient
        ``(g_r, g_t)`` and Hessian ``(h_rr, h_rt, h_tr, h_tt)``.

        ``psi`` is the phase per unit velocity at ``m = 1``.  In ``E = rows * factor``, (M, N*K), the factor
        is ``exp(-i * m_0 * theta)`` times powers of ``exp(-i * theta)``: two ``exp`` over N*K values and a
        cumulative product, rounding differently from a direct ``exp``.  Phase sums: ``(m**p @ E) @ w``.
        The Hessian is exactly symmetric: ``conj(f_t) * f_r`` rounds as ``conj(f_r) * f_t`` does.
        """
        e = np.exp(self._starts * (np.array((v_r, v_t)) @ self._psi))[self._factor_rows]
        np.cumprod(e, axis=0, out=e)
        e *= rows
        s = complex(e.sum())
        sums = (self._powers @ e.view(float)).view(complex) @ self._weights
        (f_r, f_t, _, _, _), (_, _, w_rr, w_rt, w_tt) = sums.tolist()
        s_conj = s.conjugate()
        h_rt = 2.0 * (f_r.conjugate() * f_t - s_conj * w_rt).real
        return s, (2.0 * (s_conj * f_r).imag, 2.0 * (s_conj * f_t).imag), (
            2.0 * (f_r.conjugate() * f_r - s_conj * w_rr).real,
            h_rt,
            h_rt,
            2.0 * (f_t.conjugate() * f_t - s_conj * w_tt).real,
        )

    def _step(
        self,
        v_r: float,
        v_t: float,
        grad: tuple[float, float],
        hess: tuple[float, float, float, float],
        free: tuple[bool, bool],
    ) -> tuple[float, float]:
        """One ascent step from ``(v_r, v_t)``, by at most a cell per axis and inside the spans.

        An axis that is not free, or that its gradient presses against the span,
        is held: no gradient, a -1 diagonal and no coupling.  Where the Hessian is
        negative definite the step is Newton's, else half a cell up the gradient.
        """
        (g_r, g_t), (h_rr, h_rt, h_tr, h_tt) = grad, hess
        (low_r, low_t), (high_r, high_t), (cell_r, cell_t) = self._lower, self._upper, self._cell
        if not free[0] or (v_r >= high_r if g_r > 0.0 else v_r <= low_r):
            g_r, h_rr, h_rt, h_tr = 0.0, -1.0, -0.0, -0.0
        if not free[1] or (v_t >= high_t if g_t > 0.0 else v_t <= low_t):
            g_t, h_tt, h_rt, h_tr = 0.0, -1.0, -0.0, -0.0
        if h_rr < 0.0 and h_rr * h_tt > h_rt**2:
            det = h_rr * h_tt - h_rt * h_tr
            s_r, s_t = (h_rt * g_t - h_tt * g_r) / det, (h_tr * g_r - h_rr * g_t) / det
        else:
            s_r, s_t = 0.5 * cell_r * ((g_r > 0.0) - (g_r < 0.0)), 0.5 * cell_t * ((g_t > 0.0) - (g_t < 0.0))
        return (
            min(max(v_r + min(max(s_r, -cell_r), cell_r), low_r), high_r),
            min(max(v_t + min(max(s_t, -cell_t), cell_t), low_t), high_t),
        )


def _axis_points(width: float, curvature: float, cap: int) -> int:
    """Coarse grid points on a search axis ``width`` wide, along which the clean statistic falls off as
    ``1 - curvature * offset**2``.

    The mainlobe's half-power half-width is ``1 / sqrt(2 * curvature)``, and the step is half of it.
    The count is odd, so the window centre is a point, and 3 to ``cap``, or to ``cap - 1`` for an even
    ``cap``; a flat axis takes 3.
    """
    cap -= 1 - cap % 2
    steps = width * math.sqrt(8.0 * curvature)
    if not steps < cap:
        return cap
    count = math.ceil(steps) + 1
    return min(max(count + 1 - count % 2, 3), cap)


def _unit_scale(magnitude: float) -> float:
    """The power of two that takes ``magnitude`` into [0.5, 1), where float products neither under- nor overflow."""
    return math.ldexp(1.0, min(-math.frexp(magnitude)[1], 1023))  # 2**1023 takes a subnormal one to normal


def ml_estimate(
    cube: ObservationCube, distance: float, angle: float, search: MlSearchConfig
) -> VelocityEstimate:
    """ML velocity estimate from one observation cube at a known position.

    Runs the coarse matched-filter grid defined by ``search``, then refines
    the identifiable axes jointly by Newton steps until a step moves no axis
    by ``search.tolerance``.  Each call builds the :class:`MatchedFilter`
    tables; a caller that estimates many cubes at one position holds one
    filter and passes them to its ``estimate`` as one stack, whose coarse
    grids are formed several cubes per call.
    """
    return MatchedFilter(cube.geometry, cube.config, distance, angle, search).estimate(cube.samples)


def monte_carlo_mse(scenario: Scenario, snr: float, trials: int, seed: int) -> MonteCarloReport:
    """Empirical estimation MSE at one linear SNR over independent noise draws, next to the bounds.

    Trial ``t`` draws its noise from a generator seeded by ``(seed, t)``, so
    any single trial can be reproduced in isolation and the full report is
    deterministic for a given seed.  This is the one report of
    :func:`monte_carlo_reports` for ``[snr]``.
    """
    return monte_carlo_reports(scenario, [snr], trials, seed)[0]


def monte_carlo_reports(
    scenario: Scenario, snrs: Sequence[float], trials: int, seed: int
) -> list[MonteCarloReport]:
    """One :func:`monte_carlo_mse` report per linear SNR, all from the same noise draws.

    The trials run on a unit-magnitude clean cube at the floor ``1/snr``, so the waveform's
    ``total_power`` does not move a report.  Every SNR scales the same draws, so each report
    equals its one-SNR call and the reports are correlated with one another.  The bounds are
    those of :func:`~nfvel.bounds.closed_form_bounds` at each SNR as given.
    """
    _require_count(100, trials=trials)  # fewer trials give no usable MSE
    _require_count(0, None, seed=seed)
    if not snrs:
        return []
    target, search, config = scenario.target, scenario.search, scenario.waveform
    if not (search.radial_span[0] <= target.radial_velocity <= search.radial_span[1]):
        raise ValueError("radial search span does not contain the true velocity")
    if not (search.transverse_span[0] <= target.transverse_velocity <= search.transverse_span[1]):
        raise ValueError("transverse search span does not contain the true velocity")

    # One watt per subcarrier gives the unit-magnitude cube and the floor 1/snr; the copy's warnings would repeat.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unit = replace(scenario, waveform=replace(config, total_power=float(config.num_subcarriers)))
    noises = [ChannelNoise.from_snr(unit.waveform, snr) for snr in snrs]
    count = len(snrs)
    bounds = closed_form_bounds([target.distance] * count, [target.angle] * count, scenario.geometry, config, snrs)
    estimates = _trial_estimates(unit, noises, trials, seed)
    return _reports(estimates, (target.radial_velocity, target.transverse_velocity), bounds, seed)


def _trial_estimates(scenario: Scenario, noises: Sequence[ChannelNoise], trials: int, seed: int) -> np.ndarray:
    """Estimates ``(rows, 2, trials)``, radial then transverse, of the trials at each of ``noises``; NaN
    where a trial did not identify the axis.

    Trial ``t`` draws a unit noise cube ``u`` seeded by ``(seed, t)``, and row ``r`` searches the clean
    cube plus ``sigma_r * u``, the cube :func:`add_noise` returns for that seed.  The coarse statistic
    is linear, so it is formed once for the clean cube and once per ``u``, in ``estimate``'s blocks.
    """
    target, geometry = scenario.target, scenario.geometry
    clean = synthesize_noise_free(target, geometry, scenario.waveform, noises[0]).samples
    finder = MatchedFilter(geometry, scenario.waveform, target.distance, target.angle, scenario.search)
    clean_statistic = finder._statistic(clean)
    sigmas = [math.sqrt(noise.noise_variance / 2.0) for noise in noises]
    units = (_unit_noise(clean.shape, np.random.SeedSequence([seed, trial])) for trial in range(trials))
    estimates = np.empty((len(noises), 2, trials))
    for trial, (unit, unit_statistic) in enumerate(finder._with_statistics(units)):
        for row, sigma in enumerate(sigmas):
            est = finder._search(clean + sigma * unit, clean_statistic + sigma * unit_statistic)
            estimates[row, :, trial] = est.radial, est.transverse
    return estimates


def _reports(estimates: np.ndarray, truth: Sequence[float], bounds: BoundRows, seed: int) -> list[MonteCarloReport]:
    """The report of each row of trial ``estimates`` ``(rows, 2, trials)`` of ``truth``, against that
    row of ``bounds``.  An axis's MSE is the mean over the trials that identified it, None if none did;
    its ratio is None where the MSE is or where the bound is infinite."""
    degenerate = np.isnan(estimates).any(axis=1).sum(axis=1).tolist()
    reports = []
    for row, crlb, flagged in zip(estimates, zip(bounds.radial.tolist(), bounds.transverse.tolist()), degenerate):
        # Python's ** squares each error, which rounds otherwise than numpy's square on some values.
        squares = [[(v - t) ** 2 for v in axis[~np.isnan(axis)].tolist()] for axis, t in zip(row, truth)]
        mse = [float(np.mean(found)) if found else None for found in squares]
        ratio = [None if m is None or not 0.0 < c < math.inf else m / c for m, c in zip(mse, crlb)]
        reports.append(MonteCarloReport(row.shape[1], *mse, *crlb, *ratio, seed, flagged))
    return reports
