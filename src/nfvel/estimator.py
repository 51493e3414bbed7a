"""Maximum-likelihood velocity estimation and its Monte Carlo harness.

With position and noise statistics known, the ML estimate of the velocity
pair maximises the magnitude of the matched-filter output

    L(v_r, v_t) = | sum_{m,n,k} r_{m,n,k} * conj(model_{m,n,k}(v_r, v_t)) |^2

which is invariant to any common complex gain on the data.  The search runs a
coarse grid, then joint Newton steps on the analytic gradient and Hessian of
L, which carry the radial/transverse coupling.  An axis along which the
statistic shows no curvature at the peak (end-fire targets leave the
transverse component unobservable) is flagged unidentifiable instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import crlb_from_fisher, fisher_info_closed_form
from .constants import SPEED_OF_LIGHT
from .geometry import (
    ArrayGeometry,
    TargetState,
    radial_projection_coeffs,
    symmetric_index_grid,
    transverse_projection_coeffs,
)
from .waveform import (
    ChannelNoise,
    ObservationCube,
    WaveformConfig,
    add_noise,
    round_trip_delays,
    subcarrier_frequencies,
    synthesize_noise_free,
)

__all__ = [
    "MlSearchConfig",
    "MonteCarloReport",
    "Scenario",
    "VelocityEstimate",
    "ml_estimate",
    "monte_carlo_mse",
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
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points!r}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")


@dataclass(frozen=True)
class VelocityEstimate:
    """ML velocity estimate; an unidentifiable axis carries NaN and a False flag."""

    radial: float
    transverse: float
    radial_identifiable: bool
    transverse_identifiable: bool


@dataclass(frozen=True)
class Scenario:
    """Everything a Monte Carlo run needs: truth, hardware, noise and search."""

    target: TargetState
    geometry: ArrayGeometry
    waveform: WaveformConfig
    noise: ChannelNoise
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


class _MatchedFilterSearch:
    """Precomputed tables for repeated ML searches at one known position."""

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
        q = radial_projection_coeffs(position, geometry)
        p = transverse_projection_coeffs(position, geometry)
        m_grid = symmetric_index_grid(config.num_symbols)

        # Conjugate of the model's delay phase; applying it to the data
        # leaves only the velocity-dependent phase to search over.
        self._delay_comp = np.exp(2j * math.pi * freqs[:, None] * delays[None, :])

        scale = 2.0 * math.pi * config.symbol_time / SPEED_OF_LIGHT
        sens = scale * m_grid[:, None, None] * freqs[None, :, None]
        # Rows: the phase per unit radial and per unit transverse velocity.
        self._phase = np.stack([sens * (1.0 + q), sens * p]).reshape(2, -1)

        self._radial_grid = np.linspace(*search.radial_span, search.grid_points)
        self._transverse_grid = np.linspace(*search.transverse_span, search.grid_points)
        self._cell = np.array([grid[1] - grid[0] for grid in (self._radial_grid, self._transverse_grid)])
        self._lower, self._upper = np.array([search.radial_span, search.transverse_span]).T
        self._radial_table = np.exp(-1j * np.outer(self._radial_grid, self._phase[0]))
        self._transverse_table = np.exp(-1j * np.outer(self._transverse_grid, self._phase[1]))

    @staticmethod
    def _axis_curvature(grid_values: np.ndarray, index: int) -> float:
        """Three-point curvature along one axis, clamped interior."""
        pivot = min(max(index, 1), grid_values.size - 2)
        return grid_values[pivot - 1] - 2.0 * grid_values[pivot] + grid_values[pivot + 1]

    def estimate(self, samples: np.ndarray) -> VelocityEstimate:
        data = (samples * self._delay_comp[None, :, :]).ravel()
        coarse = np.abs((self._radial_table * data[None, :]) @ self._transverse_table.T) ** 2
        i0, j0 = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
        peak = coarse[i0, j0]
        floor = _CURVATURE_FLOOR * max(peak, np.finfo(float).tiny)

        curv_r = self._axis_curvature(coarse[:, j0], int(i0))
        curv_t = self._axis_curvature(coarse[i0, :], int(j0))
        identifiable = np.array([abs(curv_r) > floor, abs(curv_t) > floor])

        velocity = np.array([self._radial_grid[i0], self._transverse_grid[j0]])
        # An axis whose coarse cell is already below the tolerance is not refined.
        free = identifiable & (self._cell >= self.search.tolerance)
        if free.any():
            velocity = self._newton(data, velocity, free)
        radial, transverse = np.where(identifiable, velocity, math.nan)

        return VelocityEstimate(
            radial=float(radial),
            transverse=float(transverse),
            radial_identifiable=bool(identifiable[0]),
            transverse_identifiable=bool(identifiable[1]),
        )

    def _newton(self, data: np.ndarray, velocity: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Joint Newton ascent of ``|S|^2``, ``S = sum(data * exp(-i * velocity @ phase))``.

        Each step is clipped to one grid cell per axis and the estimate to the spans.
        """
        for _ in range(_MAX_NEWTON_STEPS):
            e = data * np.exp(-1j * (velocity @ self._phase))
            s_conj = e.sum().conjugate()
            weighted = self._phase * e
            first = weighted.sum(axis=1)
            grad = 2.0 * (s_conj * first).imag
            hess = 2.0 * (np.outer(first.conjugate(), first) - s_conj * (weighted @ self._phase.T)).real
            # Hold an axis that is not free, or that its gradient presses
            # against the span, so that only the other axis moves.
            moving = free & ~np.where(grad > 0.0, velocity >= self._upper, velocity <= self._lower)
            grad = np.where(moving, grad, 0.0)
            hess = np.where(np.outer(moving, moving), hess, -np.eye(2))
            if hess[0, 0] < 0.0 and hess[0, 0] * hess[1, 1] > hess[0, 1] ** 2:
                step = np.linalg.solve(hess, -grad)
            else:
                # Not concave here: move each axis half a cell up its gradient.
                step = 0.5 * self._cell * np.sign(grad)
            step = np.clip(step, -self._cell, self._cell)
            moved = np.clip(velocity + step, self._lower, self._upper)
            if np.all(np.abs(moved - velocity) < self.search.tolerance):
                return moved
            velocity = moved
        return velocity


def ml_estimate(
    cube: ObservationCube, distance: float, angle: float, search: MlSearchConfig
) -> VelocityEstimate:
    """ML velocity estimate from one observation cube at a known position.

    Runs the coarse matched-filter grid defined by ``search``, then refines
    the identifiable axes jointly by Newton steps until a step moves no axis
    by ``search.tolerance``.
    """
    finder = _MatchedFilterSearch(cube.geometry, cube.config, distance, angle, search)
    return finder.estimate(cube.samples)


def monte_carlo_mse(scenario: Scenario, trials: int, seed: int) -> MonteCarloReport:
    """Empirical estimation MSE over independent noise draws, next to the bounds.

    Trial ``t`` draws its noise from a generator seeded by ``(seed, t)``, so
    any single trial can be reproduced in isolation and the full report is
    deterministic for a given seed.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100 for a usable MSE, got {trials!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    target = scenario.target
    search = scenario.search
    if not (search.radial_span[0] <= target.radial_velocity <= search.radial_span[1]):
        raise ValueError("radial search span does not contain the true velocity")
    if not (search.transverse_span[0] <= target.transverse_velocity <= search.transverse_span[1]):
        raise ValueError("transverse search span does not contain the true velocity")

    clean = synthesize_noise_free(target, scenario.geometry, scenario.waveform, scenario.noise)
    finder = _MatchedFilterSearch(
        scenario.geometry, scenario.waveform, target.distance, target.angle, search
    )

    snr = scenario.noise.snr(scenario.waveform)
    crlb = crlb_from_fisher(
        fisher_info_closed_form(target, scenario.geometry, scenario.waveform, snr)
    )

    sq_err_radial: list[float] = []
    sq_err_transverse: list[float] = []
    degenerate = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        noisy = add_noise(clean, rng)
        est = finder.estimate(noisy.samples)
        if not (est.radial_identifiable and est.transverse_identifiable):
            degenerate += 1
        if est.radial_identifiable:
            sq_err_radial.append((est.radial - target.radial_velocity) ** 2)
        if est.transverse_identifiable:
            sq_err_transverse.append((est.transverse - target.transverse_velocity) ** 2)

    mse_radial = float(np.mean(sq_err_radial)) if sq_err_radial else math.nan
    mse_transverse = float(np.mean(sq_err_transverse)) if sq_err_transverse else math.nan

    def _ratio(mse: float, bound: float) -> float:
        if math.isnan(mse) or not math.isfinite(bound) or bound <= 0.0:
            return math.nan
        return mse / bound

    return MonteCarloReport(
        trials=trials,
        degenerate_trials=degenerate,
        mse_radial=mse_radial,
        mse_transverse=mse_transverse,
        crlb_radial=crlb.radial,
        crlb_transverse=crlb.transverse,
        ratio_radial=_ratio(mse_radial, crlb.radial),
        ratio_transverse=_ratio(mse_transverse, crlb.transverse),
        seed=seed,
    )
