"""Maximum-likelihood velocity estimation and its Monte Carlo harness.

With position and noise statistics known, the ML estimate of the velocity
pair maximises the magnitude of the matched-filter output

    L(v_r, v_t) = | sum_{m,n,k} r_{m,n,k} * conj(model_{m,n,k}(v_r, v_t)) |^2

which is invariant to any common complex gain on the data.  The search runs a
coarse grid, then joint Newton steps on the analytic gradient and Hessian of
L, which carry the radial/transverse coupling.  One search path serves a
single cube and every Monte Carlo trial.  It scales the samples by the power
of two that takes their largest magnitude into [0.5, 1), so the data's
absolute power does not move its result either.  An axis along which the
statistic shows no curvature at the peak (end-fire targets leave the
transverse component unobservable) is flagged unidentifiable instead.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .bounds import closed_form_bounds
from .constants import SPEED_OF_LIGHT
from .geometry import (
    ArrayGeometry,
    TargetState,
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


@dataclass(frozen=True)
class MlSearchConfig:
    """Search window and refinement tolerance for :func:`ml_estimate`.

    The spans must bracket the true velocities; the radial span must be narrower
    than the Doppler ambiguity interval ``c / (2 * f_c * T_sym)`` so the grid
    sees a single peak.  The coarse grid has ``grid_points`` values per axis.
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
            object.__setattr__(self, name, tuple(span))  # a frozen config hashes
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points!r}")
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
    """Empirical MSEs against the matching variance bounds.

    ``mse_*`` average over the trials where the axis was identifiable;
    ``degenerate_trials`` counts trials where either axis was flagged.
    Ratios are NaN when the bound is infinite or no trial contributed.
    """

    trials: int
    degenerate_trials: int
    mse_radial: float
    mse_transverse: float
    crlb_radial: float
    crlb_transverse: float
    ratio_radial: float
    ratio_transverse: float
    seed: int


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

        # Rows: the phase per unit radial and per unit transverse velocity, at m = 1 and on the grid.
        self._psi = psi = _phase_rates(position, geometry, config).reshape(2, -1)
        phase = (m_grid[None, :, None] * psi[:, None, :]).reshape(2, -1)
        self._starts = (-1j * np.array([m_grid[0], 1.0]))[: config.num_symbols, None]
        self._factor_rows = np.minimum(np.arange(config.num_symbols), 1)
        self._powers = np.array([m_grid, m_grid**2])
        self._weights = np.stack([*psi, *psi[[0, 0, 1]] * psi[[0, 1, 1]]], 1).astype(complex)

        self._radial_grid = np.linspace(*search.radial_span, search.grid_points)
        self._transverse_grid = np.linspace(*search.transverse_span, search.grid_points)
        self._cell = [float(grid[1] - grid[0]) for grid in (self._radial_grid, self._transverse_grid)]
        self._lower, self._upper = np.array([search.radial_span, search.transverse_span], float).T.tolist()
        self._radial_table = np.exp(-1j * np.outer(self._radial_grid, phase[0]))
        self._transverse_table = np.exp(-1j * np.outer(self._transverse_grid, phase[1]))

    @staticmethod
    def _axis_curvature(grid_values: np.ndarray, index: int) -> float:
        """Three-point curvature along one axis, clamped interior."""
        pivot = min(max(index, 1), grid_values.size - 2)
        return grid_values[pivot - 1] - 2.0 * grid_values[pivot] + grid_values[pivot + 1]

    def estimate(self, samples: np.ndarray) -> VelocityEstimate:
        """ML estimate from the samples of any cube taken at this filter's position."""
        data = self._compensate(samples)
        return self._search(data, self._statistic(data))

    def _compensate(self, samples: np.ndarray) -> np.ndarray:
        """The samples with the model's delay phase removed, flattened."""
        return (samples * self._delay_comp[None, :, :]).ravel()

    def _statistic(self, data: np.ndarray) -> np.ndarray:
        """Matched-filter output on the coarse grid: linear in ``data``, searched as ``|.|**2``."""
        return (self._radial_table * data[None, :]) @ self._transverse_table.T

    def _search(self, data: np.ndarray, statistic: np.ndarray) -> VelocityEstimate:
        """Peak pick, identifiability test and Newton refinement of ``data`` from ``_statistic(data)``.

        Both are first scaled by the power of two that takes the largest sample
        magnitude into [0.5, 1).  The search is exact under a power-of-two gain,
        so the data's absolute power does not move the estimate, and a caller may
        pass any statistic that equals ``_statistic(data)`` by linearity.
        """
        scale = _unit_scale(np.abs(data).max())
        data = data * scale
        coarse = np.abs(statistic * scale) ** 2
        i0, j0 = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
        peak = coarse[i0, j0]
        floor = _CURVATURE_FLOOR * max(peak, np.finfo(float).tiny)

        curv_r = self._axis_curvature(coarse[:, j0], int(i0))
        curv_t = self._axis_curvature(coarse[i0, :], int(j0))
        identifiable = [bool(abs(curv_r) > floor), bool(abs(curv_t) > floor)]

        velocity = [float(self._radial_grid[i0]), float(self._transverse_grid[j0])]
        # An axis whose coarse cell is already below the tolerance is not refined.
        free = [ok and cell >= self.search.tolerance for ok, cell in zip(identifiable, self._cell)]
        if any(free):
            velocity = self._newton(data.reshape(len(self._powers[0]), -1), velocity, free)
        radial, transverse = (v if ok else math.nan for v, ok in zip(velocity, identifiable))
        return VelocityEstimate(radial, transverse, *identifiable)

    def _newton(self, rows: np.ndarray, velocity: list[float], free: list[bool]) -> list[float]:
        """Joint Newton ascent of ``|S|^2`` from ``velocity``, on :meth:`_derivatives` of ``rows``."""
        for _ in range(_MAX_NEWTON_STEPS):
            moved = self._step(velocity, *self._derivatives(rows, velocity)[1:], free)
            if all(abs(m - v) < self.search.tolerance for m, v in zip(moved, velocity)):
                return moved
            velocity = moved
        return velocity

    def _derivatives(self, rows: np.ndarray, velocity: list[float]) -> tuple[complex, list, list]:
        """``S = sum(rows * exp(-i * m * theta))``, ``theta = velocity @ psi``, and ``|S|^2``'s derivatives.

        ``psi`` is the phase per unit velocity at ``m = 1``.  In ``E = rows * factor``, (M, N*K), the factor
        is ``exp(-i * m_0 * theta)`` times powers of ``exp(-i * theta)``: two ``exp`` over N*K values and a
        cumulative product, rounding differently from a direct ``exp``.  Phase sums: ``(m**p @ E) @ w``.
        """
        e = np.exp(self._starts * (np.array(velocity) @ self._psi))[self._factor_rows]
        np.cumprod(e, axis=0, out=e)
        e *= rows
        s = complex(e.sum())
        sums = (self._powers @ e.view(float)).view(complex) @ self._weights
        (*first, _, _, _), (_, _, w_rr, w_rt, w_tt) = sums.tolist()
        s_conj = s.conjugate()
        grad = [2.0 * (s_conj * f).imag for f in first]
        hess = [[2.0 * (f_i.conjugate() * f_j - s_conj * w).real for f_j, w in zip(first, row)]
                for f_i, row in zip(first, ((w_rr, w_rt), (w_rt, w_tt)))]
        return s, grad, hess

    def _step(self, velocity: list[float], grad: list, hess: list, free: list[bool]) -> list[float]:
        """One ascent step from ``velocity``, by at most a cell per axis and inside the spans.

        An axis that is not free, or that its gradient presses against the span,
        is held: no gradient, a -1 diagonal and no coupling.  Where the Hessian is
        negative definite the step is Newton's, else half a cell up the gradient.
        """
        (g_r, g_t), ((h_rr, h_rt), (h_tr, h_tt)) = grad, hess
        held = [
            not ok or (v >= high if g > 0.0 else v <= low)
            for ok, v, g, low, high in zip(free, velocity, grad, self._lower, self._upper)
        ]
        if held[0]:
            g_r, h_rr, h_rt, h_tr = 0.0, -1.0, -0.0, -0.0
        if held[1]:
            g_t, h_tt, h_rt, h_tr = 0.0, -1.0, -0.0, -0.0
        if h_rr < 0.0 and h_rr * h_tt > h_rt**2:
            det = h_rr * h_tt - h_rt * h_tr
            step = [(h_rt * g_t - h_tt * g_r) / det, (h_tr * g_r - h_rr * g_t) / det]
        else:
            step = [0.5 * c * ((g > 0.0) - (g < 0.0)) for c, g in zip(self._cell, (g_r, g_t))]
        return [
            min(max(v + min(max(s, -c), c), low), high)
            for v, s, c, low, high in zip(velocity, step, self._cell, self._lower, self._upper)
        ]


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
    filter and calls its ``estimate``.
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

    The trials run in units of the noise, a unit-magnitude clean cube and the
    floor ``1/snr``, so the waveform's ``total_power`` does not move a report.
    Trial ``t`` draws one unit noise cube ``u`` from a generator seeded by
    ``(seed, t)``, and each SNR estimates from ``clean + sigma * u``: the cube
    :func:`add_noise` returns for that generator.  Each report therefore
    equals the one-SNR call, and the reports are correlated with one another.
    The coarse matched-filter statistic is linear in the samples, so it is
    formed once for the clean cube and once per trial for ``u``.  One
    :class:`MatchedFilter` serves every SNR and trial, through the search its
    ``estimate`` runs, scaled by the largest sample magnitude of each SNR's
    cube.  The bounds are those of :func:`~nfvel.bounds.closed_form_bounds`
    at each SNR as given.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100 for a usable MSE, got {trials!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if not snrs:
        return []
    target, search = scenario.target, scenario.search
    geometry, config = scenario.geometry, scenario.waveform
    if not (search.radial_span[0] <= target.radial_velocity <= search.radial_span[1]):
        raise ValueError("radial search span does not contain the true velocity")
    if not (search.transverse_span[0] <= target.transverse_velocity <= search.transverse_span[1]):
        raise ValueError("transverse search span does not contain the true velocity")

    # One watt per subcarrier gives the unit-magnitude cube and the floor 1/snr; the copy's warnings would repeat.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unit_config = replace(config, total_power=float(config.num_subcarriers))
    noises = [ChannelNoise.from_snr(unit_config, snr) for snr in snrs]
    count = len(snrs)
    bounds = closed_form_bounds([target.distance] * count, [target.angle] * count, geometry, config, snrs)
    clean = synthesize_noise_free(target, geometry, unit_config, noises[0]).samples
    finder = MatchedFilter(geometry, config, target.distance, target.angle, search)
    clean_statistic = finder._statistic(finder._compensate(clean))
    sigmas = [math.sqrt(noise.noise_variance / 2.0) for noise in noises]

    # Squared error per SNR, axis (radial, transverse) and trial; NaN where
    # the axis was not identified.
    sq_err = np.empty((len(noises), 2, trials))
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        unit = _unit_noise(clean.shape, rng)
        unit_statistic = finder._statistic(finder._compensate(unit))
        for row, sigma in enumerate(sigmas):
            est = finder._search(
                finder._compensate(clean + sigma * unit), clean_statistic + sigma * unit_statistic
            )
            sq_err[row, 0, trial] = (est.radial - target.radial_velocity) ** 2
            sq_err[row, 1, trial] = (est.transverse - target.transverse_velocity) ** 2

    identified = ~np.isnan(sq_err)
    found = identified.sum(axis=2)
    # NaN where a trial missed the axis.  A partly identified axis averages the
    # trials that found it: summed with zeros in their place, it would round otherwise.
    mse = sq_err.sum(axis=2) / trials
    for row, axis in np.argwhere((found > 0) & (found < trials)):
        mse[row, axis] = np.mean(sq_err[row, axis][identified[row, axis]])
    crlb = np.stack([bounds.radial, bounds.transverse], axis=1)
    # A ratio is NaN where the MSE is or where the bound is infinite.
    ratio = np.divide(mse, crlb, out=np.full_like(mse, math.nan), where=np.isfinite(crlb) & (crlb > 0.0))
    degenerate = (~identified).any(axis=1).sum(axis=1)
    return [
        MonteCarloReport(trials, degenerate_trials, *mse_row, *crlb_row, *ratio_row, seed)
        for degenerate_trials, mse_row, crlb_row, ratio_row in zip(
            degenerate.tolist(), mse.tolist(), crlb.tolist(), ratio.tolist()
        )
    ]
