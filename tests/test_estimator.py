"""Tests for the matched-filter ML estimator and its Monte Carlo harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvel import (
    ArrayGeometry,
    ChannelNoise,
    MlSearchConfig,
    ObservationCube,
    Scenario,
    TargetState,
    WaveformConfig,
    add_noise,
    crlb_from_fisher,
    fisher_info_closed_form,
    ml_estimate,
    monte_carlo_mse,
    synthesize_noise_free,
)

from conftest import make_waveform


def _clean_cube(target, geom, wf, snr=100.0):
    noise = ChannelNoise.from_snr(wf, snr)
    return synthesize_noise_free(target, geom, wf, noise)


def _search(radial=(-10.0, 10.0), transverse=(-10.0, 10.0), **overrides):
    params = dict(
        radial_span=radial,
        transverse_span=transverse,
        grid_points=41,
        tolerance=1e-3,
    )
    params.update(overrides)
    return MlSearchConfig(**params)


class TestSearchConfig:
    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            _search(radial=(5.0, 5.0))
        with pytest.raises(ValueError):
            _search(transverse=(2.0, -2.0))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            _search(grid_points=2)
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            _search(grid_points=1)

    def test_rejects_bad_refinement(self):
        with pytest.raises(ValueError):
            _search(tolerance=0.0)


class TestNoiseFree:
    def test_recovers_truth_on_randomized_scenarios(self):
        # spans stay well inside the slow-time ambiguity interval
        # c / (f * (1+q) * T_sym) ~ 27 m/s at the strongest settings drawn here
        rng = np.random.default_rng(20240818)
        worst = 0.0
        for _ in range(100):
            geom = ArrayGeometry(
                num_elements=int(rng.integers(16, 34)),
                spacing=float(rng.uniform(0.03, 0.06)),
            )
            wf = make_waveform(
                carrier=float(rng.uniform(6e9, 14e9)),
                num_subcarriers=int(rng.integers(1, 3)),
                num_symbols=int(rng.integers(8, 15)),
                symbol_time=float(rng.uniform(2e-4, 4e-4)),
            )
            target = TargetState(
                distance=float(geom.aperture * 10 ** rng.uniform(0.0, 2.0)),
                angle=float(rng.uniform(-math.pi / 3, math.pi / 3)),
                radial_velocity=float(rng.uniform(-7.0, 7.0)),
                transverse_velocity=float(rng.uniform(-7.0, 7.0)),
            )
            cube = _clean_cube(target, geom, wf)
            est = ml_estimate(cube, target.distance, target.angle, _search())
            assert est.radial_identifiable and est.transverse_identifiable
            err_r = abs(est.radial - target.radial_velocity)
            err_t = abs(est.transverse - target.transverse_velocity)
            worst = max(worst, err_r, err_t)
            assert err_r <= 1e-3, f"radial error {err_r:.2e} at {target!r}"
            assert err_t <= 1e-3, f"transverse error {err_t:.2e} at {target!r}"
        # refinement should do far better than the coarse half-metre step
        assert worst < 1e-3

    @settings(max_examples=25, deadline=None)
    @given(
        gain=st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        )
    )
    def test_gain_rotation_leaves_estimate_unchanged(self, gain):
        geom = ArrayGeometry(num_elements=17, spacing=0.04)
        wf = make_waveform(carrier=8e9, num_symbols=10, symbol_time=3e-4)
        target = TargetState(4.0, 0.3, radial_velocity=2.5, transverse_velocity=-1.5)
        cube = _clean_cube(target, geom, wf)
        noisy = add_noise(cube, 77)
        rotated = ObservationCube(
            samples=noisy.samples * gain,
            config=noisy.config,
            geometry=noisy.geometry,
            noise=noisy.noise,
        )
        search = _search()
        a = ml_estimate(noisy, target.distance, target.angle, search)
        b = ml_estimate(rotated, target.distance, target.angle, search)
        assert b.radial == pytest.approx(a.radial, abs=1e-9)
        assert b.transverse == pytest.approx(a.transverse, abs=1e-9)
        assert (b.radial_identifiable, b.transverse_identifiable) == (
            a.radial_identifiable,
            a.transverse_identifiable,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        angle=st.sampled_from([-0.4, math.pi / 4]),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_refined_estimate_does_not_snap_to_grid(self, angle, seed):
        # Noise-free (seed None) and noisy cubes, including 45 degrees in the
        # near field, where the radial/transverse coupling is strong.
        geom = ArrayGeometry(num_elements=21, spacing=0.04)
        wf = make_waveform(carrier=8e9, num_symbols=12, symbol_time=3e-4)
        target = TargetState(3.0, angle, radial_velocity=1.37, transverse_velocity=-2.61)
        cube = _clean_cube(target, geom, wf)
        if seed is not None:
            cube = add_noise(cube, seed)
        search = _search()
        coarse = ml_estimate(cube, target.distance, target.angle, search)
        dense = ml_estimate(
            cube, target.distance, target.angle, _search(grid_points=81)
        )
        assert dense.radial == pytest.approx(coarse.radial, abs=1e-3)
        assert dense.transverse == pytest.approx(coarse.transverse, abs=1e-3)

        # The estimate is a local maximum of the matched-filter statistic: no
        # probe one tolerance away, along an axis or a diagonal, scores higher.
        def statistic(radial, transverse):
            moving = TargetState(target.distance, angle, radial, transverse)
            model = synthesize_noise_free(moving, geom, wf, cube.noise).samples
            return abs(np.vdot(model, cube.samples)) ** 2

        peak = statistic(coarse.radial, coarse.transverse)
        tol = search.tolerance
        for dr, dt in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert statistic(coarse.radial + dr * tol, coarse.transverse + dt * tol) <= peak

    def test_end_fire_flags_transverse_axis(self):
        geom = ArrayGeometry(num_elements=15, spacing=0.02)
        wf = make_waveform(carrier=8e9, num_symbols=10, symbol_time=3e-4)
        target = TargetState(5.0, math.pi / 2, radial_velocity=3.0, transverse_velocity=0.0)
        cube = _clean_cube(target, geom, wf)
        est = ml_estimate(cube, target.distance, target.angle, _search())
        assert est.radial_identifiable
        assert not est.transverse_identifiable
        assert math.isnan(est.transverse)
        assert est.radial == pytest.approx(3.0, abs=1e-3)


def _mc_scenario(angle=0.0, snr=50.0, transverse_truth=-3.0):
    geom = ArrayGeometry(num_elements=9, spacing=0.02)
    wf = make_waveform(carrier=6e9, num_symbols=8, symbol_time=2e-4)
    target = TargetState(
        distance=0.8,
        angle=angle,
        radial_velocity=2.0,
        transverse_velocity=transverse_truth,
    )
    return Scenario(
        target=target,
        geometry=geom,
        waveform=wf,
        noise=ChannelNoise.from_snr(wf, snr),
        search=_search(radial=(-5.0, 5.0), transverse=(-8.0, 8.0)),
    )


class TestMonteCarlo:
    def test_same_seed_reproduces_report(self):
        scenario = _mc_scenario()
        a = monte_carlo_mse(scenario, trials=100, seed=42)
        b = monte_carlo_mse(scenario, trials=100, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        scenario = _mc_scenario()
        a = monte_carlo_mse(scenario, trials=100, seed=1)
        b = monte_carlo_mse(scenario, trials=100, seed=2)
        assert a.mse_radial != b.mse_radial

    def test_report_carries_matching_bound(self):
        scenario = _mc_scenario()
        report = monte_carlo_mse(scenario, trials=100, seed=5)
        snr = scenario.noise.snr(scenario.waveform)
        expected = crlb_from_fisher(
            fisher_info_closed_form(scenario.target, scenario.geometry, scenario.waveform, snr)
        )
        assert report.crlb_radial == pytest.approx(expected.radial, rel=1e-12)
        assert report.crlb_transverse == pytest.approx(expected.transverse, rel=1e-12)
        assert report.ratio_radial == pytest.approx(report.mse_radial / expected.radial)
        assert report.trials == 100
        assert report.seed == 5

    def test_rejects_truth_outside_span(self):
        scenario = _mc_scenario()
        bad = Scenario(
            target=scenario.target,
            geometry=scenario.geometry,
            waveform=scenario.waveform,
            noise=scenario.noise,
            search=_search(radial=(3.0, 5.0), transverse=(-8.0, 8.0)),
        )
        with pytest.raises(ValueError):
            monte_carlo_mse(bad, trials=100, seed=0)

    def test_rejects_thin_trial_count_and_bad_seed(self):
        scenario = _mc_scenario()
        with pytest.raises(ValueError):
            monte_carlo_mse(scenario, trials=99, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_mse(scenario, trials=100, seed=-1)

    def test_end_fire_marks_every_trial_degenerate(self):
        scenario = _mc_scenario(angle=math.pi / 2, snr=1e4, transverse_truth=0.0)
        report = monte_carlo_mse(scenario, trials=100, seed=9)
        assert report.degenerate_trials == 100
        assert math.isnan(report.mse_transverse)
        assert math.isnan(report.ratio_transverse)
        assert math.isinf(report.crlb_transverse)
        assert math.isfinite(report.mse_radial)

    def test_estimator_is_unbiased_at_high_snr(self):
        # the empirical mean error must be statistically indistinguishable
        # from zero: within 10% of the root bound at a few hundred trials
        carrier = 28e9
        geom = ArrayGeometry.half_wavelength(21, carrier)
        wf = make_waveform(carrier=carrier)
        target = TargetState(
            distance=5.0 * geom.aperture,
            angle=0.0,
            radial_velocity=0.05,
            transverse_velocity=0.3,
        )
        snr = 100.0
        noise = ChannelNoise.from_snr(wf, snr)
        search = MlSearchConfig(
            radial_span=(target.radial_velocity - 0.08, target.radial_velocity + 0.08),
            transverse_span=(target.transverse_velocity - 1.2, target.transverse_velocity + 1.2),
            tolerance=1e-6,
        )
        clean = synthesize_noise_free(target, geom, wf, noise)
        trials = 400
        errors = np.empty((trials, 2))
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([314, trial]))
            noisy = add_noise(clean, rng)
            est = ml_estimate(noisy, target.distance, target.angle, search)
            assert est.radial_identifiable and est.transverse_identifiable
            errors[trial] = (
                est.radial - target.radial_velocity,
                est.transverse - target.transverse_velocity,
            )
        bound = crlb_from_fisher(fisher_info_closed_form(target, geom, wf, snr))
        bias_r, bias_t = np.mean(errors, axis=0)
        assert abs(bias_r) < 0.1 * math.sqrt(bound.radial)
        assert abs(bias_t) < 0.1 * math.sqrt(bound.transverse)
